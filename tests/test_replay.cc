/**
 * @file
 * Trace capture & replay suite (ctest label `replay`).
 *
 * The standing contract under test: a Session run recorded with a
 * CapturePlan and replayed with a ReplayPlan reproduces alarms,
 * DetectorStats, TimingStats, FaultStats and the shared metrics
 * BIT-IDENTICALLY, with no VM in the loop; captures are byte-identical
 * across VM engines and delivery modes; sharded replay is
 * thread-count-invariant; and every corrupt, truncated, version-skewed
 * or foreign-module trace surfaces as a recoverable FatalError, never
 * a panic. A golden fixture in tests/data/ pins the on-disk encoding
 * to kTraceVersion: changing the format without bumping the version
 * fails loudly here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/names.h"
#include "obs/session.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "replay/replay.h"
#include "replay/snapshot.h"
#include "replay/writer.h"
#include "support/diag.h"
#include "support/rng.h"
#include "timing/config.h"
#include "timing/cpu.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

#ifndef IPDS_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define IPDS_TEST_DATA_DIR"
#endif

namespace ipds {
namespace {

// ------------------------------------------------------------- helpers

std::string
tmpTracePath(const std::string &name)
{
    return testing::TempDir() + "ipds_" + name + ".trc";
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Fix the header CRC after editing a header field (tests only). */
void
resealHeader(std::vector<uint8_t> &b)
{
    ASSERT_GE(b.size(), replay::kHeaderBytes);
    replay::putU32(b.data() + 36, replay::crc32(b.data(), 36));
}

bool
sameAlarms(const std::vector<Alarm> &a, const std::vector<Alarm> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++) {
        if (a[i].func != b[i].func || a[i].pc != b[i].pc ||
            a[i].actualTaken != b[i].actualTaken ||
            a[i].expected != b[i].expected ||
            a[i].branchIndex != b[i].branchIndex)
            return false;
    }
    return true;
}

/** metricsText() minus the replay-side meter lines (ipds.replay.* is
 *  new information the capture run cannot carry, and events_per_sec is
 *  wall-clock). Everything else must match bit-for-bit. */
std::string
stripReplayLines(const std::string &text)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("ipds.replay.", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

/** Small server-ish program with a correlated privilege flag — the
 *  same shape the obs suite uses, pinned here for tamper and golden
 *  tests. */
const char *kLoopProgram = R"(
void main() {
    int role;
    int req;
    role = 0;
    if (input_int() == 42) {
        role = 1;
    }
    req = 0;
    while (req < 4) {
        if (role == 1) {
            print_str("p\n");
        } else {
            print_str("n\n");
        }
        input_int();
        req = req + 1;
    }
}
)";

const std::vector<std::string> kLoopInputs{"7", "1", "2", "3", "4"};

// ------------------------------------------------- format primitives

TEST(ReplayFormat, ZigzagRoundTripsExtremes)
{
    for (int64_t v : {int64_t(0), int64_t(1), int64_t(-1),
                      int64_t(1) << 40, -(int64_t(1) << 40),
                      INT64_MAX, INT64_MIN})
        EXPECT_EQ(replay::zigzagDecode(replay::zigzagEncode(v)), v);
}

TEST(ReplayFormat, Crc32MatchesReferenceVector)
{
    // The IEEE 802.3 check value for "123456789".
    const uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8',
                           '9'};
    EXPECT_EQ(replay::crc32(msg, sizeof msg), 0xCBF43926u);
}

/** Bitwise CRC-32 (no table): the oracle for the sliced loop. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t n)
{
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    return ~c;
}

TEST(ReplayFormat, Crc32MatchesBitwiseOracleAtEveryLengthAndOffset)
{
    // Every tail length of the 8-byte stride, from every start
    // alignment, plus one long buffer through the sliced main loop.
    std::vector<uint8_t> buf(64 * 1024);
    Rng rng(0xC4C32);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t start = 0; start < 8; ++start)
        for (size_t len = 0; len <= 257; ++len)
            ASSERT_EQ(replay::crc32(buf.data() + start, len),
                      crc32Bitwise(buf.data() + start, len))
                << "start " << start << " len " << len;
    EXPECT_EQ(replay::crc32(buf.data(), buf.size()),
              crc32Bitwise(buf.data(), buf.size()));
}

TEST(ReplayFormat, TimingConfigPackIsLossless)
{
    TimingConfig cfg = table1Config();
    uint32_t words[replay::kTimingConfigWords];
    replay::packTimingConfig(cfg, words);
    TimingConfig back = replay::unpackTimingConfig(words);
    uint32_t words2[replay::kTimingConfigWords];
    replay::packTimingConfig(back, words2);
    for (uint32_t i = 0; i < replay::kTimingConfigWords; i++)
        EXPECT_EQ(words[i], words2[i]) << "word " << i;
}

TEST(ReplayFormat, ModuleHashSeparatesPrograms)
{
    CompiledProgram a = compileAndAnalyze(kLoopProgram, "rt_a");
    CompiledProgram b = compileAndAnalyze(
        "void main() { print_str(\"x\"); }", "rt_b");
    EXPECT_EQ(replay::moduleContentHash(a.mod),
              replay::moduleContentHash(a.mod));
    EXPECT_NE(replay::moduleContentHash(a.mod),
              replay::moduleContentHash(b.mod));
}

// ------------------------------------------------------- round trips

TEST(ReplayRoundTrip, AllWorkloadsDetectorOnly)
{
    for (const Workload &wl : allWorkloads()) {
        CompiledProgram prog =
            compileAndAnalyze(wl.source, wl.name);
        std::string path = tmpTracePath("det_" + wl.name);

        Session live = Session::builder()
                           .program(prog)
                           .inputs(wl.benignInputs)
                           .sessions(3)
                           .shards(2)
                           .plan(CapturePlan(path))
                           .build();
        live.run();

        Session rep = Session::builder()
                          .program(prog)
                          .plan(ReplayPlan(path))
                          .build();
        rep.run();

        EXPECT_TRUE(rep.detectorStats() == live.detectorStats())
            << wl.name;
        EXPECT_TRUE(sameAlarms(rep.alarms(), live.alarms()))
            << wl.name;
        EXPECT_TRUE(rep.timingStats() == live.timingStats())
            << wl.name;
        std::remove(path.c_str());
    }
}

TEST(ReplayRoundTrip, AllWorkloadsTiming)
{
    for (const Workload &wl : allWorkloads()) {
        CompiledProgram prog =
            compileAndAnalyze(wl.source, wl.name);
        std::string path = tmpTracePath("tim_" + wl.name);

        Session live = Session::builder()
                           .program(prog)
                           .inputs(wl.benignInputs)
                           .timing(table1Config())
                           .sessions(2)
                           .shards(2)
                           .plan(CapturePlan(path))
                           .build();
        live.run();

        Session rep = Session::builder()
                          .program(prog)
                          .plan(ReplayPlan(path))
                          .build();
        rep.run();

        // The full triple the tentpole promises: alarms,
        // DetectorStats AND cycle-exact TimingStats, with no VM.
        EXPECT_TRUE(rep.detectorStats() == live.detectorStats())
            << wl.name;
        EXPECT_TRUE(rep.timingStats() == live.timingStats())
            << wl.name;
        EXPECT_TRUE(sameAlarms(rep.alarms(), live.alarms()))
            << wl.name;
        std::remove(path.c_str());
    }
}

TEST(ReplayRoundTrip, MetricsMatchModuloReplayMeters)
{
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("metrics");

    Session live = Session::builder()
                       .program(prog)
                       .inputs(wl.benignInputs)
                       .timing(table1Config())
                       .sessions(4)
                       .shards(2)
                       .plan(CapturePlan(path))
                       .build();
    live.run();

    // The replay builder's geometry is deliberately wrong: the trace
    // header's (sessions, shards) must override it.
    Session rep = Session::builder()
                      .program(prog)
                      .sessions(999)
                      .shards(7)
                      .plan(ReplayPlan(path))
                      .build();
    rep.run();

    // Both sides strip ipds.replay.*: the replay side's meters and
    // the capture side's snapshots_written are replay-domain lines.
    EXPECT_EQ(stripReplayLines(rep.metricsText()),
              stripReplayLines(live.metricsText()));
    namespace n = obs::names;
    const obs::MetricsRegistry &m = rep.metrics();
    EXPECT_EQ(m.value(m.find(n::kSessRuns)), 4u);
    EXPECT_EQ(m.value(m.find(n::kReplaySessions)), 4u);
    EXPECT_GT(m.value(m.find(n::kReplayChunks)), 0u);
    EXPECT_GT(m.value(m.find(n::kReplayEvents)), 0u);
    EXPECT_EQ(m.value(m.find(n::kReplayBytes)),
              readBytes(path).size());
    EXPECT_EQ(m.value(m.find(n::kReplayCrcFailures)), 0u);
    // Replay has no VM output to reproduce.
    EXPECT_EQ(rep.result().output, "");
    std::remove(path.c_str());
}

TEST(ReplayRoundTrip, ShardedReplayIsThreadCountInvariant)
{
    const Workload &wl = workloadByName("wu-ftpd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("sharded");

    Session::builder()
        .program(prog)
        .inputs(wl.benignInputs)
        .timing(table1Config())
        .sessions(8)
        .shards(4)
        .plan(CapturePlan(path))
        .build()
        .run();

    auto replayWith = [&](unsigned threads) {
        Session s = Session::builder()
                        .program(prog)
                        .threads(threads)
                        .plan(ReplayPlan(path))
                        .build();
        s.run();
        // events_per_sec is wall-clock; everything else — including
        // the other ipds.replay.* meters — must be a pure function of
        // the trace, not of the worker count.
        std::istringstream in(s.metricsText());
        std::string out, line;
        while (std::getline(in, line))
            if (line.find("events_per_sec") == std::string::npos)
                out += line + "\n";
        return out;
    };
    std::string t1 = replayWith(1);
    EXPECT_EQ(t1, replayWith(2));
    EXPECT_EQ(t1, replayWith(8));
    std::remove(path.c_str());
}

// --------------------------------------- capture-side byte identity

TEST(ReplayCapture, CapturesAreByteIdenticalAcrossEnginesAndDelivery)
{
    // BranchesOnly capture must not depend on which engine ran or how
    // it delivered events (per-event on the switch engine, batched on
    // the threaded one) — the compact stream is the committed event
    // order, which the vm-diff suite holds bit-identical.
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

    auto captureWith = [&](VmEngine e) {
        std::ostringstream os;
        replay::TraceWriter w(os,
                              replay::TraceWriter::Mode::BranchesOnly);
        Vm vm(prog.mod);
        vm.setInputs(wl.benignInputs);
        vm.setEngine(e);
        Detector det(prog);
        vm.addObserver(&det);
        vm.addObserver(&w);
        w.beginSession(0);
        RunResult r = vm.run();
        // Flush count differs across delivery modes by design, so it
        // is pinned to 0 here; steps/instructions/blocks are part of
        // the cross-engine equivalence contract.
        w.endSession(r.steps, r.inputEventCount, 0,
                     vm.vmStats().instructions, vm.vmStats().blocks,
                     0);
        w.finish();
        return os.str();
    };

    std::string switchStream = captureWith(VmEngine::Switch);
    std::string threadedBatched = captureWith(VmEngine::Threaded);
    EXPECT_FALSE(switchStream.empty());
    EXPECT_EQ(switchStream, threadedBatched);
}

// ------------------------------------------------ fault composition

TEST(ReplayFault, FaultPlanComposesAndReplaysIdentically)
{
    // Every fault class at once — mem tampers, BSV flips, ring
    // drop/dup, context-switch storms, spill pressure — recorded into
    // the trace and reproduced from it with identical stats.
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("fault");

    FaultPlan plan;
    plan.seed = 31;
    plan.bsvEveryBranches = 43;
    plan.ringDropPermille = 50;
    plan.ringDupPermille = 30;
    plan.ctxEveryBranches = 71;
    plan.spillPressure = true;
    plan.memEveryInsts = 2000;
    plan.maxMemFaults = 2;

    Session live = Session::builder()
                       .program(prog)
                       .inputs(wl.benignInputs)
                       .timing(table1Config())
                       .sessions(3)
                       .shards(1)
                       .plan(CapturePlan(path).exec(
                           ExecPlan().faults(plan)))
                       .build();
    live.run();
    EXPECT_GT(live.faultStats().bsvFlips +
                  live.faultStats().ctxSwitches +
                  live.faultStats().memTampers,
              0u);

    Session rep = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    rep.run();

    EXPECT_TRUE(rep.detectorStats() == live.detectorStats());
    EXPECT_TRUE(rep.timingStats() == live.timingStats());
    EXPECT_TRUE(rep.faultStats() == live.faultStats());
    EXPECT_TRUE(sameAlarms(rep.alarms(), live.alarms()));
    std::remove(path.c_str());
}

TEST(ReplayFault, TamperedRunAlarmsIdenticallyOnReplay)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::string path = tmpTracePath("tamper");

    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 2;
    spec.addr = Vm(prog.mod).entryLocalAddr("role");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};

    Session live = Session::builder()
                       .program(prog)
                       .inputs(kLoopInputs)
                       .plan(CapturePlan(path).exec(
                           ExecPlan().addTamper(spec)))
                       .build();
    live.run();
    ASSERT_TRUE(live.alarmed());

    Session rep = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    rep.run();
    ASSERT_TRUE(rep.alarmed());
    EXPECT_TRUE(sameAlarms(rep.alarms(), live.alarms()));
    EXPECT_EQ(rep.alarms().front().pc, live.alarms().front().pc);
    // The fired tamper counts live, with no FaultPlan armed, as the
    // capture's SessionEnd record counts it for the replay.
    EXPECT_EQ(live.faultStats().memTampers, 1u);
    EXPECT_TRUE(rep.faultStats() == live.faultStats());
    std::remove(path.c_str());
}

// --------------------------------------------------- recipe guards

namespace {

void
expectBuildFatal(Session::Builder b, const char *what)
{
    try {
        b.build();
        FAIL() << "expected FatalError: " << what;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

// Recipes that used to be rejected at build() are now impossible to
// write: each concept below names one spelling, and the static_asserts
// keep it out of the API.
template <typename P>
concept HasTamper = requires(P p, TamperSpec t) { p.tamper(t); };
template <typename P>
concept HasAddTamper = requires(P p, TamperSpec t) { p.addTamper(t); };
template <typename P>
concept HasFaults = requires(P p, FaultPlan f) { p.faults(f); };
template <typename P>
concept HasObserve = requires(P p, ExecObserver *o) { p.observe(o); };
template <typename P>
concept HasRecordTrace = requires(P p) { p.recordTrace(true); };
template <typename B>
concept HasFaultPlan = requires(B b, FaultPlan f) { b.faultPlan(f); };
template <typename B>
concept HasCaptureTo = requires(B b) { b.captureTo("a.trc"); };
template <typename B>
concept HasReplayFrom = requires(B b) { b.replayFrom("b.trc"); };

// A replay has no VM: the tamper, the faults and the observers of the
// recorded run are already in the trace.
static_assert(!HasTamper<ReplayPlan> && !HasAddTamper<ReplayPlan> &&
              !HasFaults<ReplayPlan> && !HasObserve<ReplayPlan>);
// A capture takes its VM knobs from the ExecPlan it nests, nowhere else.
static_assert(!HasTamper<CapturePlan> && !HasFaults<CapturePlan> &&
              !HasObserve<CapturePlan>);
// One way to arm a tamper: addTamper().
static_assert(!HasTamper<ExecPlan> && HasAddTamper<ExecPlan> &&
              HasFaults<ExecPlan> && HasObserve<ExecPlan>);
// One trace rule: recorded for one session, not for many.
static_assert(!HasRecordTrace<ExecPlan> &&
              !HasRecordTrace<Session::Builder>);
// The Builder configures a run's plan only through plan().
static_assert(!HasTamper<Session::Builder> &&
              !HasFaultPlan<Session::Builder> &&
              !HasObserve<Session::Builder> &&
              !HasCaptureTo<Session::Builder> &&
              !HasReplayFrom<Session::Builder>);

TEST(ReplayBuilder, MixedPlansAreRejected)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    expectBuildFatal(Session::builder()
                         .program(prog)
                         .plan(CapturePlan("a.trc"))
                         .plan(ReplayPlan("b.trc")),
                     "mutually exclusive");
    expectBuildFatal(Session::builder()
                         .program(prog)
                         .plan(ExecPlan())
                         .plan(CapturePlan("a.trc")),
                     "mutually exclusive");
}

// ------------------------------------------------- corrupt traces

/** One small captured trace, reused by the rejection tests. The
 *  file is named after the calling test: ctest runs each test in its
 *  own process, concurrently, so a shared name races. */
std::vector<uint8_t>
captureSmallTrace(const CompiledProgram &prog)
{
    std::string path = tmpTracePath(
        std::string("reject_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    Session::builder()
        .program(prog)
        .inputs(kLoopInputs)
        .sessions(2)
        .plan(CapturePlan(path))
        .build()
        .run();
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(ReplayReject, ChunkCrcCorruptionIsRecoverable)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);
    ASSERT_GT(bytes.size(),
              replay::kHeaderBytes + replay::kChunkHeaderBytes + 4);

    // Flip one payload byte: load must throw the recoverable error
    // class, and validate must tally exactly one CRC failure.
    bytes[replay::kHeaderBytes + replay::kChunkHeaderBytes + 2] ^=
        0xff;
    try {
        replay::TraceFile::fromBytes(bytes);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << e.what();
    }
    replay::ValidateResult v =
        replay::TraceFile::validateBytes(bytes);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.crcFailures, 1u);
    EXPECT_EQ(v.versionMismatches, 0u);
}

TEST(ReplayReject, TruncationIsRecoverable)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);
    const size_t footerOff = static_cast<size_t>(
        replay::getU64(bytes.data() + bytes.size() - 8));

    // Cut into the last DATA chunk (the trailer locates the index
    // footer; everything before it is data): a hard truncation.
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + footerOff - 5);
    try {
        replay::TraceFile::fromBytes(cut);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(replay::TraceFile::validateBytes(cut).ok);

    // Cutting mid-header must also stay recoverable.
    std::vector<uint8_t> stub(bytes.begin(), bytes.begin() + 10);
    EXPECT_THROW(replay::TraceFile::fromBytes(stub), FatalError);

    // Cutting inside the index is NOT a failure: the footer and
    // trailer are advisory (the sequential scan recomputes them).
    std::vector<uint8_t> noTrailerTail(bytes.begin(),
                                       bytes.end() - 5);
    replay::TraceFile t1 =
        replay::TraceFile::fromBytes(noTrailerTail);
    EXPECT_TRUE(t1.hasIndexFooter()); // footer chunk itself intact

    // (the cut must leave the footer header's session sentinel
    // readable — a shorter stub is indistinguishable from a cut data
    // chunk and stays a hard truncation)
    std::vector<uint8_t> midFooter(
        bytes.begin(),
        bytes.begin() + footerOff + replay::kChunkHeaderBytes + 5);
    replay::TraceFile t2 = replay::TraceFile::fromBytes(midFooter);
    EXPECT_FALSE(t2.hasIndexFooter());
    EXPECT_EQ(t2.chunks().size(),
              replay::TraceFile::fromBytes(bytes).chunks().size());
}

TEST(ReplayReject, VersionSkewIsRecoverable)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);

    replay::putU32(bytes.data() + 8, replay::kTraceVersion + 1);
    resealHeader(bytes);
    try {
        replay::TraceFile::fromBytes(bytes);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
    replay::ValidateResult v =
        replay::TraceFile::validateBytes(bytes);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.versionMismatches, 1u);
}

TEST(ReplayReject, BadMagicIsRecoverable)
{
    std::vector<uint8_t> junk(64, 0x5a);
    try {
        replay::TraceFile::fromBytes(junk);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReplayReject, ForeignModuleIsRecoverable)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);
    replay::TraceFile file = replay::TraceFile::fromBytes(bytes);

    // Same program: accepted.
    replay::ReplayEngine ok(file, prog);
    EXPECT_EQ(ok.sessions(), 2u);

    // A different program — or the same source after an edit — is a
    // foreign module and must be rejected before any decoding.
    CompiledProgram other = compileAndAnalyze(
        "void main() { print_str(\"other\"); }", "replay_other");
    try {
        replay::ReplayEngine bad(file, other);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("different program"),
                  std::string::npos)
            << e.what();
    }
}

/** One timing field a header can carry but no CpuModel can run. */
struct TimingPatch
{
    const char *field;
    void (*apply)(TimingConfig &);
};

/** Five header patches, each of one word of the timing block. */
const TimingPatch kImpossibleTiming[] = {
    {"commitWidth", [](TimingConfig &c) { c.commitWidth = 0; }},
    {"issueWidth", [](TimingConfig &c) { c.issueWidth = 0; }},
    {"requestQueueSize",
     [](TimingConfig &c) { c.requestQueueSize = 0; }},
    {"l1i.blockBytes", [](TimingConfig &c) { c.l1i.blockBytes = 0; }},
    {"tlbEntries", [](TimingConfig &c) { c.tlbEntries = 1u << 31; }},
};

/** @p bytes with its header's timing block rewritten by @p pt. The
 *  header CRC stops before the block, so nothing needs resealing. */
std::vector<uint8_t>
patchTimingBlock(std::vector<uint8_t> bytes, const TimingPatch &pt)
{
    uint8_t *block = bytes.data() + replay::kHeaderBytes;
    uint32_t words[replay::kTimingConfigWords];
    for (uint32_t i = 0; i < replay::kTimingConfigWords; ++i)
        words[i] = replay::getU32(block + 4 * i);
    TimingConfig cfg = replay::unpackTimingConfig(words);
    pt.apply(cfg);
    replay::packTimingConfig(cfg, words);
    for (uint32_t i = 0; i < replay::kTimingConfigWords; ++i)
        replay::putU32(block + 4 * i, words[i]);
    return bytes;
}

TEST(ReplayReject, ImpossibleTimingBlockIsRecoverable)
{
    // A timing block that would divide by zero, hang the request
    // queue, panic the cache or allocate gigabytes must fail the
    // header parse, naming the field, before a CpuModel exists.
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("impossible_timing");
    Session::builder()
        .program(prog)
        .inputs(wl.benignInputs)
        .timing(table1Config())
        .plan(CapturePlan(path))
        .build()
        .run();
    const std::vector<uint8_t> good = readBytes(path);
    ASSERT_TRUE(replay::TraceFile::validateBytes(good).ok);

    for (const TimingPatch &pt : kImpossibleTiming) {
        std::vector<uint8_t> bad = patchTimingBlock(good, pt);
        ASSERT_NE(bad, good) << pt.field;
        writeBytes(path, bad);
        replay::ValidateResult v = replay::TraceFile::validate(path);
        EXPECT_FALSE(v.ok) << pt.field;
        EXPECT_NE(v.error.find(pt.field), std::string::npos)
            << v.error;
        try {
            Session::builder()
                .program(prog)
                .plan(ReplayPlan(path))
                .build()
                .run();
            ADD_FAILURE() << pt.field << ": expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(pt.field),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(ReplayReject, CorruptPayloadCannotReachDetectorPanics)
{
    // A CRC-valid chunk whose records are garbage must fail as a
    // FatalError from the replay engine's own validation, never as a
    // detector panic. Corrupt the payload, then re-seal the chunk CRC
    // so only the defensive decoding stands between the bytes and the
    // detector.
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);

    size_t payloadOff =
        replay::kHeaderBytes + replay::kChunkHeaderBytes;
    uint32_t payloadLen = replay::getU32(
        bytes.data() + replay::kHeaderBytes);
    ASSERT_GT(payloadLen, 8u);
    for (size_t i = 1; i < 8; i++)
        bytes[payloadOff + i] ^= 0xa5;
    replay::putU32(
        bytes.data() + replay::kHeaderBytes + 12,
        replay::crc32(bytes.data() + payloadOff, payloadLen));

    replay::TraceFile file = replay::TraceFile::fromBytes(bytes);
    replay::ReplayEngine eng(file, prog);
    replay::ReplayShardResult out;
    EXPECT_THROW(eng.replayShard(0, out), FatalError);
}

/** Record bytes for a hand-built chunk payload (tests only). */
struct Payload
{
    std::vector<uint8_t> b;

    Payload &tag(replay::Tag t)
    {
        b.push_back(static_cast<uint8_t>(t));
        return *this;
    }
    Payload &var(uint64_t v)
    {
        for (; v >= 0x80; v >>= 7)
            b.push_back(static_cast<uint8_t>(v | 0x80));
        b.push_back(static_cast<uint8_t>(v));
        return *this;
    }
    Payload &svar(int64_t v) { return var(replay::zigzagEncode(v)); }
    Payload &raw(std::initializer_list<uint8_t> bytes)
    {
        b.insert(b.end(), bytes);
        return *this;
    }
    /** SessionStart for session 0, no ring fault. */
    Payload &start()
    {
        return tag(replay::Tag::SessionStart).var(0).raw({0});
    }
    /** A chunk's first pc record, at absolute @p pc (the pc delta
     *  context starts at 0 in every chunk). */
    Payload &at(replay::Tag t, uint64_t pc)
    {
        return tag(t).svar(static_cast<int64_t>(pc / 4));
    }
};

TEST(ReplayReject, EachDecodeDefectNamesItsCheck)
{
    // One CRC-valid chunk per check in ShardCursor::feed: the chunk is
    // framed and parsed by parseChunk (so its CRC holds) and must fail
    // with that check's own FatalError, before the detector sees it.
    using replay::Tag;
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    const Module &mod = prog.mod;
    ASSERT_EQ(mod.functions.size(), 1u);
    const Function &fn = mod.functions[0];

    auto isMem = [](Op op) {
        return op == Op::Load || op == Op::LoadInd ||
            op == Op::Store || op == Op::StoreInd;
    };
    // The first instruction of each record kind, and a plain
    // instruction directly before a branch / a memory access (so an
    // InstRun of 1 steps onto it).
    uint64_t lo = ~0ull, hi = 0, plain = 0, branch = 0, mem = 0;
    uint64_t plainBeforeBranch = 0, plainBeforeMem = 0;
    const Inst *prev = nullptr;
    for (const BasicBlock &bb : fn.blocks)
        for (const Inst &in : bb.insts) {
            lo = std::min(lo, in.pc);
            hi = std::max(hi, in.pc);
            bool prevPlain = prev && prev->op != Op::Br &&
                !isMem(prev->op) && prev->pc + 4 == in.pc;
            if (in.op == Op::Br) {
                if (!branch)
                    branch = in.pc;
                if (prevPlain && !plainBeforeBranch)
                    plainBeforeBranch = prev->pc;
            } else if (isMem(in.op)) {
                if (!mem)
                    mem = in.pc;
                if (prevPlain && !plainBeforeMem)
                    plainBeforeMem = prev->pc;
            } else if (!plain) {
                plain = in.pc;
            }
            prev = &in;
        }
    ASSERT_TRUE(plain && branch && mem && plainBeforeBranch &&
                plainBeforeMem);
    ASSERT_GE(lo, 4u);

    struct Row
    {
        const char *what;
        Payload payload;
        uint32_t events;
        const char *message;
    };
    const uint64_t nFuncs = mod.functions.size();
    const Row rows[] = {
        {"unknown tag", Payload().start().raw({0x7f}), 2,
         "unknown record tag"},
        {"varint past the payload end",
         Payload().start().tag(Tag::FuncEnter).raw({0x80, 0x80}), 2,
         "record truncated"},
        {"10-byte varint overflow",
         Payload().start().tag(Tag::FuncEnter).raw(
             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
              0x7f}),
         2, "varint overflow"},
        {"pc below the module",
         Payload().start().at(Tag::Inst, lo - 4), 2,
         "outside the module"},
        {"pc past the module",
         Payload().start().at(Tag::Inst, hi + 4), 2,
         "outside the module"},
        {"branch record at a plain pc",
         Payload().start().tag(Tag::FuncEnter).var(0).at(
             Tag::BranchTaken, plain),
         3, "branch record at non-branch pc"},
        {"branch record at a memory pc",
         Payload().start().tag(Tag::FuncEnter).var(0).at(
             Tag::BranchNotTaken, mem),
         3, "branch record at non-branch pc"},
        {"Inst record at a branch pc",
         Payload().start().at(Tag::Inst, branch), 2,
         "plain record for a branch/memory instruction"},
        {"Inst record at a memory pc",
         Payload().start().at(Tag::Inst, mem), 2,
         "plain record for a branch/memory instruction"},
        {"InstRun onto a branch pc",
         Payload()
             .start()
             .at(Tag::Inst, plainBeforeBranch)
             .tag(Tag::InstRun)
             .var(1),
         3, "plain record for a branch/memory instruction"},
        {"InstRun onto a memory pc",
         Payload()
             .start()
             .at(Tag::Inst, plainBeforeMem)
             .tag(Tag::InstRun)
             .var(1),
         3, "plain record for a branch/memory instruction"},
        {"MemInst record at a plain pc",
         Payload().start().at(Tag::MemInst, plain).svar(0), 2,
         "data-access record at a non-memory instruction"},
        {"FuncEnter id out of range",
         Payload().start().tag(Tag::FuncEnter).var(nFuncs), 2,
         "out of range"},
        {"unbalanced FuncExit",
         Payload().start().tag(Tag::FuncExit).var(0), 2,
         "unbalanced function exit"},
        {"branch outside its function's activation",
         Payload().start().at(Tag::BranchTaken, branch), 2,
         "branch outside its function's activation"},
        {"event record outside a session",
         Payload().tag(Tag::FuncEnter).var(0), 1,
         "event record outside a session"},
        {"event count above the records",
         Payload().start().tag(Tag::FuncEnter).var(0), 3,
         "chunk event count mismatch"},
        {"event count below the records",
         Payload().start().tag(Tag::FuncEnter).var(0), 1,
         "chunk event count mismatch"},
    };

    replay::TraceMeta meta;
    meta.flags = replay::kFlagDetector;
    meta.moduleHash = replay::moduleContentHash(mod);
    meta.sessions = 1;
    meta.shards = 1;
    replay::ReplayEngine eng(meta, prog);
    for (const Row &row : rows) {
        const std::vector<uint8_t> &pl = row.payload.b;
        std::vector<uint8_t> chunk(replay::kChunkHeaderBytes);
        replay::putU32(chunk.data(), static_cast<uint32_t>(pl.size()));
        replay::putU32(chunk.data() + 4, row.events);
        replay::putU32(chunk.data() + 8, 0);
        replay::putU32(chunk.data() + 12,
                       replay::crc32(pl.data(), pl.size()));
        chunk.insert(chunk.end(), pl.begin(), pl.end());

        replay::ChunkRef c;
        size_t used = 0;
        std::string err;
        ASSERT_EQ(replay::parseChunk(chunk.data(), chunk.size(), c,
                                     used, &err),
                  replay::ParseStatus::Ok)
            << row.what << ": " << err;
        replay::ReplayEngine::ShardCursor cur(eng, 0);
        try {
            cur.feed(c, chunk.data() + c.payloadOff);
            ADD_FAILURE() << row.what << ": expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(row.message),
                      std::string::npos)
                << row.what << ": " << e.what();
        }
    }
}

// ------------------------------------------------- golden fixture

TEST(ReplayGolden, FixtureBytesArePinnedToFormatVersion)
{
    // The encoder's output for this pinned program and script is part
    // of the on-disk format. If this test fails you changed the trace
    // encoding: bump replay::kTraceVersion in src/replay/format.h and
    // regenerate the fixture with
    //   IPDS_REGEN_GOLDEN=1 ./build/tests/ipds_replay_tests
    //   (with --gtest_filter='ReplayGolden.*')
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "golden_loop");
    std::string path = tmpTracePath("golden");
    Session::builder()
        .program(prog)
        .inputs(kLoopInputs)
        .sessions(2)
        .shards(2)
        .plan(CapturePlan(path))
        .build()
        .run();
    std::vector<uint8_t> fresh = readBytes(path);
    std::remove(path.c_str());

    const std::string goldenPath =
        std::string(IPDS_TEST_DATA_DIR) + "/golden_v2.trc";
    if (std::getenv("IPDS_REGEN_GOLDEN")) {
        writeBytes(goldenPath, fresh);
        GTEST_SKIP() << "regenerated " << goldenPath;
    }

    std::vector<uint8_t> golden = readBytes(goldenPath);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << goldenPath
        << " — regenerate with IPDS_REGEN_GOLDEN=1";
    EXPECT_EQ(fresh, golden)
        << "trace encoding changed without bumping kTraceVersion "
           "(see the versioning policy in src/replay/format.h)";

    // And the pinned bytes still replay: the fixture guards decode
    // compatibility, not just encode stability.
    replay::TraceFile file =
        replay::TraceFile::fromBytes(std::move(golden));
    EXPECT_EQ(file.meta().version, replay::kTraceVersion);
    EXPECT_TRUE(file.hasIndexFooter());
    EXPECT_EQ(file.meta().sessions, 2u);
    EXPECT_EQ(file.meta().shards, 2u);
    replay::ReplayEngine eng(file, prog);
    replay::ReplayShardResult s0, s1;
    eng.replayShard(0, s0);
    eng.replayShard(1, s1);
    EXPECT_EQ(s0.runs + s1.runs, 2u);
    EXPECT_GT(s0.det.branchesSeen, 0u);
    EXPECT_TRUE(s0.alarms.empty());
    EXPECT_TRUE(s1.alarms.empty());
}

// ------------------------------------- v2: snapshots & chunk index

TEST(ReplaySnapshot, BlobRoundTripsHandBuiltVectors)
{
    replay::SnapshotData sd;
    sd.hasDetector = true;
    DetectorSnapshot::Activation a;
    a.func = 3;
    a.slots = {{0, 1}, {5, 2}, {130, 1}};
    sd.det.activations.push_back(a);
    DetectorSnapshot::Activation b;
    b.func = 0;
    sd.det.activations.push_back(b);
    sd.det.stats.branchesSeen = 12345;
    sd.det.stats.checksEnqueued = 1u << 20;
    sd.det.stats.updatesApplied = 7;
    sd.det.stats.actionsApplied = 1;
    sd.det.stats.framesPushed = 99;
    sd.det.stats.maxStackDepth = 4;
    sd.det.alarmsSoFar = 2;
    sd.hasTiming = true;
    sd.tim.instructions = 1000000;
    sd.tim.cycles = 1234567;
    sd.tim.mispredicts = 42;
    sd.tim.engine.requests = 500;
    sd.engine.inflight = {10, 20, 900};
    sd.engine.engineFree = 77;
    sd.engine.frames = {{64, false}, {128, true}};
    sd.engine.residentBits = 192;
    sd.engine.stats.requests = 500;
    sd.engine.stats.checkLatencySum = 5850;
    sd.engine.stats.checkLatencyCount = 500;

    std::vector<uint8_t> blob;
    replay::encodeSnapshot(sd, blob);
    ASSERT_FALSE(blob.empty());
    EXPECT_EQ(blob[0], replay::kSnapshotVersion);

    replay::SnapshotData back;
    replay::decodeSnapshot(blob.data(), blob.size(), back);
    EXPECT_TRUE(back.hasDetector);
    EXPECT_TRUE(back.hasTiming);
    ASSERT_EQ(back.det.activations.size(), 2u);
    EXPECT_EQ(back.det.activations[0].func, 3u);
    EXPECT_EQ(back.det.activations[0].slots, a.slots);
    EXPECT_TRUE(back.det.activations[1].slots.empty());
    EXPECT_EQ(back.det.stats.branchesSeen, 12345u);
    EXPECT_EQ(back.det.stats.maxStackDepth, 4u);
    EXPECT_EQ(back.det.alarmsSoFar, 2u);
    EXPECT_EQ(back.tim.cycles, 1234567u);
    EXPECT_EQ(back.engine.inflight, sd.engine.inflight);
    ASSERT_EQ(back.engine.frames.size(), 2u);
    EXPECT_EQ(back.engine.frames[0].bits, 64u);
    EXPECT_TRUE(back.engine.frames[1].spilled);
    EXPECT_EQ(back.engine.residentBits, 192u);
    EXPECT_EQ(back.engine.stats.checkLatencySum, 5850u);

    // Re-encoding the decoded form is byte-identical: the layout is
    // canonical, so the golden v2 fixture pins it transitively.
    std::vector<uint8_t> blob2;
    replay::encodeSnapshot(back, blob2);
    EXPECT_EQ(blob, blob2);
}

TEST(ReplaySnapshot, TruncatedOrSkewedBlobIsRecoverable)
{
    replay::SnapshotData sd;
    sd.hasDetector = true;
    sd.det.stats.branchesSeen = 77;
    sd.det.alarmsSoFar = 1;
    std::vector<uint8_t> blob;
    replay::encodeSnapshot(sd, blob);
    ASSERT_GT(blob.size(), 4u);

    replay::SnapshotData out;
    for (size_t cut : {blob.size() - 1, blob.size() / 2, size_t(1)})
        EXPECT_THROW(replay::decodeSnapshot(blob.data(), cut, out),
                     FatalError)
            << "cut at " << cut;

    std::vector<uint8_t> skew = blob;
    skew[0] = replay::kSnapshotVersion + 9;
    EXPECT_THROW(
        replay::decodeSnapshot(skew.data(), skew.size(), out),
        FatalError);
}

/** LEB128 varint, as the snapshot codec writes it. */
void
appendVar(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

TEST(ReplaySnapshot, ForgedCountsAreRecoverable)
{
    // Every element takes at least one byte, so a count past the
    // bytes left is forged: it must end in FatalError, not in a
    // reserve() that throws length_error or bad_alloc.
    auto detectorBlob = [](bool forgeSlots, uint64_t n) {
        std::vector<uint8_t> b{replay::kSnapshotVersion,
                               replay::kSnapSectionDetector};
        appendVar(b, forgeSlots ? 1 : n); // activations
        if (forgeSlots) {
            appendVar(b, 0); // func
            appendVar(b, n); // slots
        }
        b.resize(b.size() + 16, 0);
        return b;
    };
    auto timingBlob = [](bool forgeFrames, uint64_t n) {
        std::vector<uint8_t> b{replay::kSnapshotVersion,
                               replay::kSnapSectionTiming};
        for (int i = 0; i < 14 + 15; i++) // TimingStats, EngineStats
            appendVar(b, 0);
        appendVar(b, forgeFrames ? 0 : n); // inflight
        if (forgeFrames) {
            appendVar(b, 0); // engineFree
            appendVar(b, n); // frames
        }
        b.resize(b.size() + 16, 0);
        return b;
    };
    for (uint64_t n : {uint64_t(1) << 62, uint64_t(1) << 40}) {
        const std::pair<const char *, std::vector<uint8_t>> blobs[] = {
            {"activation", detectorBlob(false, n)},
            {"slot", detectorBlob(true, n)},
            {"inflight", timingBlob(false, n)},
            {"frame", timingBlob(true, n)},
        };
        for (const auto &[what, blob] : blobs) {
            replay::SnapshotData out;
            try {
                replay::decodeSnapshot(blob.data(), blob.size(), out);
                ADD_FAILURE() << what << " count " << n << " decoded";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(what),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(ReplayIndex, FooterAndScanIndexesAgreeFieldForField)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);

    replay::TraceFile scan = replay::TraceFile::fromBytes(bytes);
    ASSERT_TRUE(scan.hasIndexFooter());

    // The writer's footer entries, read back by hand: no loader reads
    // them, so they must agree with the index the scan builds.
    const size_t footerOff = static_cast<size_t>(
        replay::getU64(bytes.data() + bytes.size() - 8));
    EXPECT_EQ(scan.indexBytes(), bytes.size() - footerOff);
    const uint32_t entries = replay::getU32(bytes.data() + footerOff + 4);
    const uint8_t *payload =
        bytes.data() + footerOff + replay::kChunkHeaderBytes;
    ASSERT_EQ(entries, scan.chunks().size());
    for (size_t i = 0; i < entries; i++) {
        const replay::ChunkIndexEntry f = replay::decodeIndexEntry(
            payload + i * replay::kIndexEntryBytes);
        const replay::ChunkRef &s = scan.chunks()[i];
        EXPECT_EQ(f.fileOffset + replay::kChunkHeaderBytes,
                  s.payloadOff) << i;
        EXPECT_EQ(f.payloadLen, s.payloadLen) << i;
        EXPECT_EQ(f.events, s.events) << i;
        EXPECT_EQ(f.session, s.session) << i;
        EXPECT_EQ(f.flags, s.flags) << i;
        EXPECT_EQ(f.firstSeq, s.firstSeq) << i;
        EXPECT_EQ(f.endSeq, s.endSeq) << i;
    }
}

TEST(ReplayIndex, CorruptedFooterDegradesToSequentialScan)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "replay_loop");
    std::vector<uint8_t> bytes = captureSmallTrace(prog);
    const size_t nChunks =
        replay::TraceFile::fromBytes(bytes).chunks().size();
    const size_t footerOff = static_cast<size_t>(
        replay::getU64(bytes.data() + bytes.size() - 8));

    // Flip one byte inside the footer payload: its CRC no longer
    // matches, so the index is unusable — but the data chunks are
    // intact and the footer stays strictly advisory.
    bytes[footerOff + replay::kChunkHeaderBytes + 3] ^= 0xff;

    replay::ValidateResult vr =
        replay::TraceFile::validateBytes(bytes);
    EXPECT_TRUE(vr.ok) << vr.error;
    EXPECT_GE(vr.indexDefects, 1u);

    replay::TraceFile scan = replay::TraceFile::fromBytes(bytes);
    EXPECT_FALSE(scan.hasIndexFooter());
    EXPECT_EQ(scan.chunks().size(), nChunks);

    // End to end: a two-thread ReplayPlan over the damaged file flags
    // the miss and still gets the right answer.
    std::string path = tmpTracePath("bad_footer");
    writeBytes(path, bytes);
    Session rep = Session::builder()
                      .program(prog)
                      .threads(2)
                      .plan(ReplayPlan(path))
                      .build();
    rep.run();
    namespace n = obs::names;
    const obs::MetricsRegistry &m = rep.metrics();
    EXPECT_EQ(m.value(m.find(n::kReplayIndexMissing)), 1u);
    EXPECT_EQ(m.value(m.find(n::kSessRuns)), 2u);
    EXPECT_GT(rep.detectorStats().branchesSeen, 0u);
    std::remove(path.c_str());
}

// ------------------------------------------------- seek & snapshots
//
// A program whose sessions span several chunks (the loop crosses the
// 48 KiB payload cap) with function-call boundaries inside the loop —
// the points where the capture writer may emit a snapshot record.
const char *kSnapProgram = R"(
int step(int x) {
    if (x > 5) {
        return 1;
    }
    return 0;
}

void main() {
    int i;
    int t;
    int acc;
    acc = 0;
    i = input_int();
    while (i < 9000) {
        t = step(i);
        acc = acc + t;
        i = i + 1;
    }
    if (acc > 9000) {
        print_str("impossible\n");
    }
    print_str("done\n");
}
)";

TEST(ReplaySeek, SeekSessionSkipsEarlierChunks)
{
    CompiledProgram prog =
        compileAndAnalyze(kSnapProgram, "snap_prog");
    std::string path = tmpTracePath("seek_sess");
    Session::builder()
        .program(prog)
        .inputs({"3"})
        .sessions(2)
        .plan(CapturePlan(path))
        .build()
        .run();

    Session full = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path))
                       .build();
    full.run();
    namespace n = obs::names;
    const obs::MetricsRegistry &mf = full.metrics();
    const uint64_t fullChunks = mf.value(mf.find(n::kReplayChunks));
    ASSERT_GT(fullChunks, 2u);

    Session part = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path).seekSession(1))
                       .build();
    part.run();
    const obs::MetricsRegistry &mp = part.metrics();
    EXPECT_EQ(mp.value(mp.find(n::kReplaySeeks)), 1u);
    EXPECT_EQ(mp.value(mp.find(n::kReplaySnapshotsUsed)), 0u);
    // The chunk meter proves the earlier session was never read.
    EXPECT_LT(mp.value(mp.find(n::kReplayChunks)), fullChunks);
    EXPECT_GT(mp.value(mp.find(n::kReplayChunks)), 0u);
    // The two captured sessions are identical, so the sought tail is
    // exactly half the full replay's detector work.
    EXPECT_EQ(part.detectorStats().branchesSeen * 2,
              full.detectorStats().branchesSeen);
    EXPECT_EQ(mp.value(mp.find(n::kSessRuns)), 1u);
    std::remove(path.c_str());
}

TEST(ReplaySeek, SeekChunkResumesFromNearestSnapshot)
{
    CompiledProgram prog =
        compileAndAnalyze(kSnapProgram, "snap_prog");
    std::string path = tmpTracePath("seek_chunk");
    Session::builder()
        .program(prog)
        .inputs({"3"})
        .sessions(2)
        .plan(CapturePlan(path).snapshotEvery(1))
        .build()
        .run();

    replay::TraceFile tf = replay::TraceFile::load(path);
    const std::vector<replay::ChunkRef> &chunks = tf.chunks();
    size_t sessStart = SIZE_MAX, flagged = SIZE_MAX;
    for (size_t i = 0; i < chunks.size(); i++) {
        if (chunks[i].session != 1)
            continue;
        if (sessStart == SIZE_MAX)
            sessStart = i;
        if (chunks[i].flags & replay::kChunkHasSnapshot)
            flagged = i;
    }
    ASSERT_NE(sessStart, SIZE_MAX);
    ASSERT_NE(flagged, SIZE_MAX)
        << "capture produced no snapshot chunk";
    ASSERT_GT(flagged, sessStart);
    const size_t target = chunks.size() - 1;
    ASSERT_GE(target, flagged);

    Session full = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path))
                       .build();
    full.run();

    Session part = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path).seekChunk(
                           static_cast<uint64_t>(target)))
                       .build();
    part.run();
    namespace n = obs::names;
    const obs::MetricsRegistry &mp = part.metrics();
    EXPECT_EQ(mp.value(mp.find(n::kReplaySeeks)), 1u);
    EXPECT_EQ(mp.value(mp.find(n::kReplaySnapshotsUsed)), 1u);
    // Resumption starts at the snapshot chunk, not the session start.
    EXPECT_EQ(mp.value(mp.find(n::kReplayChunks)),
              chunks.size() - flagged);
    // The snapshot restores the session-so-far counters, so the
    // resumed session finishes with its exact full-replay stats.
    EXPECT_EQ(part.detectorStats().branchesSeen * 2,
              full.detectorStats().branchesSeen);
    EXPECT_TRUE(part.alarms().empty());
    std::remove(path.c_str());
}

TEST(ReplaySeek, DamagedSnapshotFallsBackToSessionStart)
{
    CompiledProgram prog =
        compileAndAnalyze(kSnapProgram, "snap_prog");
    std::string path = tmpTracePath("seek_damaged");
    Session::builder()
        .program(prog)
        .inputs({"3"})
        .sessions(2)
        .plan(CapturePlan(path).snapshotEvery(1))
        .build()
        .run();
    std::vector<uint8_t> bytes = readBytes(path);

    size_t sessStart = SIZE_MAX, flagged = SIZE_MAX, nChunks = 0;
    {
        replay::TraceFile tf = replay::TraceFile::fromBytes(bytes);
        const std::vector<replay::ChunkRef> &chunks = tf.chunks();
        nChunks = chunks.size();
        for (size_t i = 0; i < chunks.size(); i++) {
            if (chunks[i].session != 1)
                continue;
            if (sessStart == SIZE_MAX)
                sessStart = i;
            if (chunks[i].flags & replay::kChunkHasSnapshot)
                flagged = i;
        }
        ASSERT_NE(flagged, SIZE_MAX);
        ASSERT_GT(flagged, sessStart);

        // Damage the snapshot BLOB (bump its version byte) and
        // re-seal the chunk CRC: the record still frames — replay
        // skips over it — but a seek can no longer resume from it.
        const replay::ChunkRef &c = tf.chunks()[flagged];
        replay::TraceReader r(tf.payload(c), c.payloadLen);
        ASSERT_EQ(r.tag(), replay::Tag::Snapshot);
        r.var(); // blob length
        bytes[c.payloadOff + r.offset()] =
            replay::kSnapshotVersion + 9;
        replay::putU32(
            bytes.data() + c.payloadOff - 4,
            replay::crc32(bytes.data() + c.payloadOff,
                          c.payloadLen));
    }
    writeBytes(path, bytes);

    Session full = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path))
                       .build();
    full.run(); // feed() skips the blob: full replay is unaffected

    const size_t target = nChunks - 1;
    Session part = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path).seekChunk(
                           static_cast<uint64_t>(target)))
                       .build();
    part.run();
    namespace n = obs::names;
    const obs::MetricsRegistry &mp = part.metrics();
    EXPECT_EQ(mp.value(mp.find(n::kReplaySeeks)), 1u);
    EXPECT_EQ(mp.value(mp.find(n::kReplaySnapshotsUsed)), 0u);
    // Fallback replays the damaged session from its first chunk.
    EXPECT_EQ(mp.value(mp.find(n::kReplayChunks)),
              nChunks - sessStart);
    EXPECT_EQ(part.detectorStats().branchesSeen * 2,
              full.detectorStats().branchesSeen);
    std::remove(path.c_str());
}

TEST(ReplaySeek, ForgedSnapshotCountFallsBackToSessionStart)
{
    CompiledProgram prog =
        compileAndAnalyze(kSnapProgram, "snap_prog");
    std::string path = tmpTracePath("seek_forged");
    Session::builder()
        .program(prog)
        .inputs({"3"})
        .sessions(2)
        .plan(CapturePlan(path).snapshotEvery(1))
        .build()
        .run();
    std::vector<uint8_t> bytes = readBytes(path);

    size_t flagged = SIZE_MAX, nChunks = 0;
    {
        replay::TraceFile tf = replay::TraceFile::fromBytes(bytes);
        const std::vector<replay::ChunkRef> &chunks = tf.chunks();
        nChunks = chunks.size();
        for (size_t i = 0; i < chunks.size(); i++)
            if (chunks[i].session == 1 &&
                (chunks[i].flags & replay::kChunkHasSnapshot))
                flagged = i;
        ASSERT_NE(flagged, SIZE_MAX);

        // Forge the blob's activation count to 2^62 (a 9-byte varint
        // after the version and section bytes) and re-seal the chunk
        // CRC: the record still frames, but its count is a lie.
        const replay::ChunkRef &c = chunks[flagged];
        replay::TraceReader r(tf.payload(c), c.payloadLen);
        ASSERT_EQ(r.tag(), replay::Tag::Snapshot);
        const uint64_t len = r.var();
        std::vector<uint8_t> forged{replay::kSnapshotVersion,
                                    replay::kSnapSectionDetector};
        appendVar(forged, uint64_t(1) << 62);
        ASSERT_GE(len, forged.size());
        std::copy(forged.begin(), forged.end(),
                  bytes.begin() + c.payloadOff + r.offset());
        replay::putU32(
            bytes.data() + c.payloadOff - 4,
            replay::crc32(bytes.data() + c.payloadOff,
                          c.payloadLen));
    }
    writeBytes(path, bytes);

    Session part = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path).seekChunk(
                           static_cast<uint64_t>(nChunks - 1)))
                       .build();
    part.run();
    Session sess = Session::builder()
                       .program(prog)
                       .plan(ReplayPlan(path).seekSession(1))
                       .build();
    sess.run();

    namespace n = obs::names;
    const obs::MetricsRegistry &mp = part.metrics();
    const obs::MetricsRegistry &ms = sess.metrics();
    EXPECT_EQ(mp.value(mp.find(n::kReplaySnapshotsUsed)), 0u);
    EXPECT_EQ(mp.value(mp.find(n::kReplayChunks)),
              ms.value(ms.find(n::kReplayChunks)));
    EXPECT_TRUE(part.detectorStats() == sess.detectorStats());
    EXPECT_TRUE(sameAlarms(part.alarms(), sess.alarms()));
    std::remove(path.c_str());
}

TEST(ReplayGolden, V1FixtureStillReplays)
{
    // Traces recorded before the chunk-index footer existed (format
    // v1) must keep replaying through the sequential path.
    const std::string goldenPath =
        std::string(IPDS_TEST_DATA_DIR) + "/golden_v1.trc";
    std::vector<uint8_t> golden = readBytes(goldenPath);
    ASSERT_FALSE(golden.empty()) << "missing fixture " << goldenPath;

    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "golden_loop");
    replay::TraceFile file =
        replay::TraceFile::fromBytes(std::move(golden));
    EXPECT_EQ(file.meta().version, 1u);
    EXPECT_FALSE(file.hasIndexFooter());
    EXPECT_EQ(file.meta().sessions, 2u);
    EXPECT_EQ(file.meta().shards, 2u);
    replay::ReplayEngine eng(file, prog);
    replay::ReplayShardResult s0, s1;
    eng.replayShard(0, s0);
    eng.replayShard(1, s1);
    EXPECT_EQ(s0.runs + s1.runs, 2u);
    EXPECT_GT(s0.det.branchesSeen, 0u);
    EXPECT_TRUE(s0.alarms.empty());
    EXPECT_TRUE(s1.alarms.empty());
}

} // namespace
} // namespace ipds
