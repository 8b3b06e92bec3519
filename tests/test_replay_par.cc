/**
 * @file
 * Multi-threaded replay suite (ctest label `replay-par`).
 *
 * The standing contract: replay on threads() workers is a pure
 * optimization — alarms, DetectorStats, TimingStats, FaultStats and
 * the metrics export are BIT-IDENTICAL to the one-thread replay at
 * every worker count, on every workload, for detector-only and timing
 * traces alike, v1 traces included. The suite also pins the builder's
 * up-front seek guards: seekSession()/seekChunk() are mutually
 * exclusive, and seekChunk() is rejected for timing traces at build()
 * time.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/program.h"
#include "obs/names.h"
#include "obs/session.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "support/diag.h"
#include "timing/config.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

std::string
tmpTracePath(const std::string &name)
{
    return testing::TempDir() + "ipds_par_" + name + ".trc";
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

/** metricsText() minus the one line a worker count may legitimately
 *  change: the wall-clock rate gauge. Every other line — including
 *  the rest of ipds.replay.* — must be a pure function of the trace. */
std::string
stripVariantLines(const std::string &text)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("events_per_sec") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

struct ReplayOutcome
{
    std::string metrics;
    DetectorStats det;
    TimingStats tim;
    std::vector<Alarm> alarms;
};

ReplayOutcome
replaySeq(const CompiledProgram &prog, const std::string &path)
{
    Session s = Session::builder()
                    .program(prog)
                    .plan(ReplayPlan(path))
                    .build();
    s.run();
    return {stripVariantLines(s.metricsText()), s.detectorStats(),
            s.timingStats(), s.alarms()};
}

ReplayOutcome
replayPar(const CompiledProgram &prog, const std::string &path,
          unsigned workers)
{
    Session s = Session::builder()
                    .program(prog)
                    .threads(workers)
                    .plan(ReplayPlan(path))
                    .build();
    s.run();
    namespace n = obs::names;
    const obs::MetricsRegistry &m = s.metrics();
    EXPECT_EQ(m.value(m.find(n::kReplayIndexMissing)), 0u);
    return {stripVariantLines(s.metricsText()), s.detectorStats(),
            s.timingStats(), s.alarms()};
}

void
expectSame(const ReplayOutcome &seq, const ReplayOutcome &par,
           const std::string &tag)
{
    EXPECT_EQ(seq.metrics, par.metrics) << tag;
    EXPECT_TRUE(seq.det == par.det) << tag;
    EXPECT_TRUE(seq.tim == par.tim) << tag;
    EXPECT_TRUE(sameAlarms(seq.alarms, par.alarms)) << tag;
}

const unsigned kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------- bit-identity

TEST(ReplayPar, DetectorOnlyMatchesSequentialOnAllWorkloads)
{
    for (const Workload &wl : allWorkloads()) {
        CompiledProgram prog =
            compileAndAnalyze(wl.source, wl.name);
        std::string path = tmpTracePath("det_" + wl.name);
        Session::builder()
            .program(prog)
            .inputs(wl.benignInputs)
            .sessions(4)
            .shards(2)
            .plan(CapturePlan(path))
            .build()
            .run();

        ReplayOutcome seq = replaySeq(prog, path);
        for (unsigned w : kWorkerCounts)
            expectSame(seq, replayPar(prog, path, w),
                       wl.name + " @" + std::to_string(w));
        std::remove(path.c_str());
    }
}

TEST(ReplayPar, TimingMatchesSequentialOnAllWorkloads)
{
    // A timing trace splits per capture shard (the CpuModel carries
    // state across a shard's sessions), so workers past the capture's
    // two shards find no work; the results must not move.
    for (const Workload &wl : allWorkloads()) {
        CompiledProgram prog =
            compileAndAnalyze(wl.source, wl.name);
        std::string path = tmpTracePath("tim_" + wl.name);
        Session::builder()
            .program(prog)
            .inputs(wl.benignInputs)
            .timing(table1Config())
            .sessions(4)
            .shards(2)
            .plan(CapturePlan(path))
            .build()
            .run();

        ReplayOutcome seq = replaySeq(prog, path);
        for (unsigned w : kWorkerCounts)
            expectSame(seq, replayPar(prog, path, w),
                       wl.name + " @" + std::to_string(w));
        std::remove(path.c_str());
    }
}

TEST(ReplayPar, TamperedTraceAlarmsIdenticallyInParallel)
{
    // Alarms must merge back in session order, not completion order.
    const char *prog_src = R"(
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
    CompiledProgram prog = compileAndAnalyze(prog_src, "par_tamper");
    std::string path = tmpTracePath("tamper");

    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 2;
    spec.addr = Vm(prog.mod).entryLocalAddr("role");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};

    Session live =
        Session::builder()
            .program(prog)
            .inputs({"7", "1", "2", "3", "4"})
            .sessions(4)
            .shards(2)
            .plan(CapturePlan(path).exec(ExecPlan().addTamper(spec)))
            .build();
    live.run();
    ASSERT_TRUE(live.alarmed());

    ReplayOutcome seq = replaySeq(prog, path);
    ASSERT_FALSE(seq.alarms.empty());
    for (unsigned w : kWorkerCounts)
        expectSame(seq, replayPar(prog, path, w),
                   "tamper @" + std::to_string(w));
    std::remove(path.c_str());
}

// ------------------------------------------------- builder guards

TEST(ReplayPar, ParallelAndSeekModesAreMutuallyExclusive)
{
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("excl");
    Session::builder()
        .program(prog)
        .inputs(wl.benignInputs)
        .sessions(2)
        .plan(CapturePlan(path))
        .build()
        .run();

    auto expectFatal = [&](ReplayPlan plan, const char *what) {
        try {
            Session::builder().program(prog).plan(plan).build();
            FAIL() << "expected FatalError: " << what;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
    };
    expectFatal(ReplayPlan(path).seekSession(1).seekChunk(0),
                "mutually exclusive");
    std::remove(path.c_str());
}

TEST(ReplayPar, TimingTraceRejectsWorkersBeyondShardGeometry)
{
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("geom");
    Session::builder()
        .program(prog)
        .inputs(wl.benignInputs)
        .timing(table1Config())
        .sessions(4)
        .shards(2)
        .plan(CapturePlan(path))
        .build()
        .run();

    // seekChunk() cannot resume a CPU scoreboard: rejected up front
    // (build() reads the trace header) for timing traces.
    try {
        Session::builder()
            .program(prog)
            .plan(ReplayPlan(path).seekChunk(1))
            .build();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("timing traces"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(ReplayPar, V1TraceFallsBackToSequentialWithIndexMissing)
{
    // A v1 trace has no footer: it loads through the same scan,
    // replays on every worker and flags the missing index.
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    std::string path = tmpTracePath("v1fallback");
    Session::builder()
        .program(prog)
        .inputs(wl.benignInputs)
        .sessions(2)
        .plan(CapturePlan(path))
        .build()
        .run();

    // Strip the trace back to v1: drop the index footer + trailer and
    // reseal the header with version 1.
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        in.close();
        size_t footerOff = static_cast<size_t>(
            replay::getU64(bytes.data() + bytes.size() - 8));
        bytes.resize(footerOff);
        replay::putU32(bytes.data() + 8, 1); // version word
        replay::putU32(bytes.data() + 36,
                       replay::crc32(bytes.data(), 36));
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    Session rep = Session::builder()
                      .program(prog)
                      .threads(4)
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

} // namespace
} // namespace ipds
