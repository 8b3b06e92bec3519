/**
 * @file
 * Timing-substrate tests (`ctest -L timing`): cache geometry/LRU, the
 * two-level branch predictor, the IPDS engine's queue and spill
 * mechanics, the TimingConfig check, whole-model sanity (determinism,
 * IPC bounds, IPDS-off neutrality), and goldens that pin the model's absolute output: the
 * Table 1 configuration, stress configurations that reach the paths
 * Table 1 does not (full request queues, spills and fills, context
 * switches, deep recursion, ring faults, wrapping rings), and the
 * bytes of a timing capture that snapshots the engine at every chunk.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>

#include "core/program.h"
#include "gen/gen.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/session.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "support/diag.h"
#include "timing/branchpred.h"
#include "timing/cache.h"
#include "timing/cpu.h"
#include "timing/engine.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

// ----------------------------------------------------------------- cache

TEST(Cache, HitsAfterFill)
{
    Cache c({1024, 2, 32, 1});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x11f)); // same 32B block
    EXPECT_FALSE(c.access(0x120)); // next block
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 4u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 32B blocks, 2 sets => set stride 64.
    Cache c({128, 2, 32, 1});
    // Three blocks mapping to set 0: 0x0, 0x80, 0x100.
    c.access(0x0);
    c.access(0x80);
    c.access(0x0);    // refresh 0x0; LRU is now 0x80
    c.access(0x100);  // evicts 0x80
    EXPECT_TRUE(c.access(0x0));
    EXPECT_FALSE(c.access(0x80)); // was evicted
}

TEST(Cache, ResetClears)
{
    Cache c({1024, 2, 32, 1});
    c.access(0x40);
    c.reset();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_FALSE(c.access(0x40));
}

TEST(Cache, BadGeometryPanics)
{
    EXPECT_THROW(Cache({0, 2, 32, 1}), PanicError);
    EXPECT_THROW(Cache({1000, 3, 32, 1}), PanicError); // non-pow2 sets
}

// ------------------------------------------------------------- predictor

TEST(BranchPred, LearnsAStableDirection)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    uint64_t pc = 0x4000;
    for (int i = 0; i < 50; i++)
        bp.update(pc, true);
    uint64_t before = bp.mispredicts();
    for (int i = 0; i < 50; i++)
        bp.update(pc, true);
    EXPECT_EQ(bp.mispredicts(), before); // fully learned
}

TEST(BranchPred, LearnsAlternatingPatternViaHistory)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    uint64_t pc = 0x4000;
    for (int i = 0; i < 400; i++)
        bp.update(pc, i % 2 == 0);
    uint64_t before = bp.mispredicts();
    for (int i = 0; i < 100; i++)
        bp.update(pc, i % 2 == 0);
    // The 2-level history disambiguates T/NT alternation perfectly.
    EXPECT_EQ(bp.mispredicts(), before);
}

TEST(BranchPred, CountsLookups)
{
    TimingConfig cfg;
    BranchPredictor bp(cfg);
    bp.update(0x10, true);
    bp.update(0x20, false);
    EXPECT_EQ(bp.lookups(), 2u);
}

// ---------------------------------------------------------------- engine

TEST(Engine, RequestCosts)
{
    TimingConfig cfg;
    IpdsEngine eng(cfg);
    IpdsRequest check;
    check.kind = IpdsRequest::Kind::Check;
    EXPECT_EQ(eng.enqueue(check, 0), 0u);
    EXPECT_EQ(eng.stats().checkRequests, 1u);
    EXPECT_EQ(eng.stats().busyCycles, cfg.tableLatency);

    IpdsRequest upd;
    upd.kind = IpdsRequest::Kind::Update;
    upd.actionCount = 9; // ceil(9/4) = 3 row fetches
    eng.enqueue(upd, 10);
    EXPECT_EQ(eng.stats().busyCycles,
              cfg.tableLatency + cfg.tableLatency + 3);

    // An Update walks its list head plus ceil(n/k) rows of k entries,
    // for short and long lists alike.
    for (uint32_t k : {1u, 3u, 4u}) {
        TimingConfig c;
        c.batEntriesPerAccess = k;
        c.requestQueueSize = 1;
        IpdsEngine e(c);
        uint64_t now = 0;
        for (uint32_t n = 0; n <= 300; n++) {
            upd.actionCount = n;
            uint64_t before = e.stats().busyCycles;
            e.enqueue(upd, now);
            uint64_t rows = n / k + (n % k != 0 ? 1 : 0);
            EXPECT_EQ(e.stats().busyCycles - before,
                      c.tableLatency + rows)
                << "actionCount " << n << ", " << k << " per access";
            now += 1000; // past the previous finish: never stalls
        }
        EXPECT_EQ(e.stats().queueFullStalls, 0u);
        EXPECT_EQ(e.stats().updateRequests, 301u);
    }
}

TEST(Engine, QueueBackpressureStallsCaller)
{
    TimingConfig cfg;
    cfg.requestQueueSize = 2;
    IpdsEngine eng(cfg);
    IpdsRequest slow;
    slow.kind = IpdsRequest::Kind::Update;
    slow.actionCount = 40; // 10 row fetches + 1
    // Fill the queue at time 0; the third enqueue must stall.
    EXPECT_EQ(eng.enqueue(slow, 0), 0u);
    EXPECT_EQ(eng.enqueue(slow, 0), 0u);
    uint64_t stall = eng.enqueue(slow, 0);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(eng.stats().queueFullStalls, 1u);
    EXPECT_EQ(eng.stats().stallCycles, stall);
}

TEST(Engine, CheckLatencyIncludesQueueing)
{
    TimingConfig cfg;
    IpdsEngine eng(cfg);
    IpdsRequest upd;
    upd.kind = IpdsRequest::Kind::Update;
    upd.actionCount = 40;
    eng.enqueue(upd, 0); // keeps the engine busy ~11 cycles
    IpdsRequest check;
    check.kind = IpdsRequest::Kind::Check;
    eng.enqueue(check, 0);
    // The check finished well after its enqueue time.
    EXPECT_GT(eng.stats().avgCheckLatency(), cfg.tableLatency);
}

TEST(Engine, SpillAndFillAccounting)
{
    TimingConfig cfg;
    cfg.bsvStackBits = 64;
    cfg.bcvStackBits = 32;
    cfg.batStackBits = 256; // total on-chip capacity: 352 bits
    IpdsEngine eng(cfg);

    auto push = [&](uint64_t bits) {
        IpdsRequest rq;
        rq.kind = IpdsRequest::Kind::PushFrame;
        rq.tableBits = bits;
        eng.enqueue(rq, 0);
    };
    auto pop = [&](uint64_t bits) {
        IpdsRequest rq;
        rq.kind = IpdsRequest::Kind::PopFrame;
        rq.tableBits = bits;
        eng.enqueue(rq, 0);
    };

    push(200);
    push(200); // 400 > 352: the deeper frame spills
    EXPECT_EQ(eng.stats().spillEvents, 1u);
    EXPECT_EQ(eng.stats().spillBits, 200u);
    pop(200);  // pop the top; the spilled frame must fill back
    EXPECT_EQ(eng.stats().fillEvents, 1u);
    EXPECT_EQ(eng.stats().fillBits, 200u);
}

// ---------------------------------------------------------- config check

TEST(TimingConfigCheck, AcceptsEveryConfigInUse)
{
    EXPECT_FALSE(checkTimingConfig(table1Config()));
    for (uint32_t q = 1; q <= 64; q++) { // bench/abl_queue's sweep
        TimingConfig cfg;
        cfg.requestQueueSize = q;
        EXPECT_FALSE(checkTimingConfig(cfg)) << q;
    }
    FaultPlan spill;
    spill.seed = 1;
    spill.spillPressure = true;
    TimingConfig cfg;
    spill.applyTo(cfg);
    ASSERT_EQ(cfg.requestRingCapacity, 64u);
    EXPECT_FALSE(checkTimingConfig(cfg));
}

TEST(TimingConfigCheck, NamesTheOffendingField)
{
    struct Case
    {
        const char *field;
        void (*apply)(TimingConfig &);
    };
    const Case cases[] = {
        {"fetchQueue", [](TimingConfig &c) { c.fetchQueue = 0; }},
        {"decodeWidth", [](TimingConfig &c) { c.decodeWidth = 0; }},
        {"issueWidth", [](TimingConfig &c) { c.issueWidth = 0; }},
        {"commitWidth", [](TimingConfig &c) { c.commitWidth = 6; }},
        {"ruuSize",
         [](TimingConfig &c) { c.ruuSize = kMaxTimingQueue + 1; }},
        {"lsqSize", [](TimingConfig &c) { c.lsqSize = 0; }},
        {"requestQueueSize",
         [](TimingConfig &c) { c.requestQueueSize = 0; }},
        {"requestRingCapacity",
         [](TimingConfig &c) { c.requestRingCapacity = 1u << 30; }},
        {"batEntriesPerAccess",
         [](TimingConfig &c) { c.batEntriesPerAccess = 0; }},
        {"pageBytes", [](TimingConfig &c) { c.pageBytes = 3000; }},
        {"tlbEntries", [](TimingConfig &c) { c.tlbEntries = 1u << 31; }},
        {"bhtEntries", [](TimingConfig &c) { c.bhtEntries = 1000; }},
        {"btbEntries", [](TimingConfig &c) { c.btbEntries = 0; }},
        {"l1i.blockBytes", [](TimingConfig &c) { c.l1i.blockBytes = 0; }},
        {"l1d.ways", [](TimingConfig &c) { c.l1d.ways = 0; }},
        {"l2 set count", [](TimingConfig &c) { c.l2.sizeBytes = 1000; }},
        {"l2 holds",
         [](TimingConfig &c) { c.l2.sizeBytes = 1u << 31; }},
        {"historyBits", [](TimingConfig &c) { c.historyBits = 17; }},
        {"maxFrameDepth",
         [](TimingConfig &c) { c.maxFrameDepth = kMaxTimingTable + 1; }},
    };
    for (const Case &k : cases) {
        TimingConfig cfg;
        k.apply(cfg);
        std::optional<std::string> bad = checkTimingConfig(cfg);
        ASSERT_TRUE(bad) << k.field;
        EXPECT_NE(bad->find(k.field), std::string::npos) << *bad;
        EXPECT_THROW(CpuModel{cfg}, FatalError) << k.field;
    }
}

// ------------------------------------------------------------- CpuModel

/** Run a workload session through the model. */
TimingStats
runTimed(const CompiledProgram &prog,
         const std::vector<std::string> &inputs, bool ipds_on,
         int sessions = 3)
{
    TimingConfig cfg;
    cfg.ipdsEnabled = ipds_on;
    CpuModel cpu(cfg);
    for (int s = 0; s < sessions; s++) {
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        vm.setRecordTrace(false);
        Detector det(prog);
        if (ipds_on) {
            det.setRequestRing(&cpu.requestRing());
            vm.addObserver(&det);
        }
        vm.addObserver(&cpu);
        vm.run();
    }
    return cpu.stats();
}

TEST(CpuModel, DeterministicCycleCounts)
{
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    TimingStats a = runTimed(prog, wl.benignInputs, true);
    TimingStats b = runTimed(prog, wl.benignInputs, true);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(CpuModel, IpcWithinPhysicalBounds)
{
    const Workload &wl = workloadByName("httpd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    TimingStats st = runTimed(prog, wl.benignInputs, false);
    EXPECT_GT(st.ipc(), 0.1);
    EXPECT_LE(st.ipc(), 8.0); // commit width is the hard ceiling
    EXPECT_GT(st.branches, 0u);
}

TEST(CpuModel, IpdsNeverSpeedsUpAndBarelySlowsDown)
{
    for (const char *name : {"telnetd", "sendmail"}) {
        const Workload &wl = workloadByName(name);
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        TimingStats off = runTimed(prog, wl.benignInputs, false);
        TimingStats on = runTimed(prog, wl.benignInputs, true);
        EXPECT_GE(on.cycles, off.cycles) << name;
        // Paper claim: well under a few percent.
        EXPECT_LT(double(on.cycles - off.cycles),
                  0.05 * double(off.cycles))
            << name;
        EXPECT_GT(on.engine.requests, 0u);
    }
}

TEST(CpuModel, CachesAndPredictorAreExercised)
{
    const Workload &wl = workloadByName("portmap");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    TimingStats st = runTimed(prog, wl.benignInputs, true);
    EXPECT_GT(st.l1iMisses, 0u);  // cold code blocks
    EXPECT_GT(st.tlbMisses, 0u);  // cold pages
    EXPECT_GT(st.mispredicts, 0u); // cold counters at least
}

TEST(CpuModel, CheckLatencyIsSmallAndPositive)
{
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    TimingStats st = runTimed(prog, wl.benignInputs, true, 10);
    ASSERT_GT(st.engine.checkLatencyCount, 0u);
    double lat = st.engine.avgCheckLatency();
    EXPECT_GE(lat, 1.0);
    // Paper: 11.7 cycles, comfortably inside a 20-stage pipeline.
    EXPECT_LT(lat, 20.0);
}

// ---------------------------------------------------------------- golden

/** Every TimingStats field, EngineStats included, in pinning order. */
constexpr const char *kTimingFields[] = {
    "instructions", "cycles", "branches", "mispredicts", "l1iMisses",
    "l1dMisses", "l2Misses", "tlbMisses", "ipdsStallCycles",
    "ringMaxOccupancy", "ringDrains", "ringOverflowFlushes",
    "ringFaultDrops", "ringFaultDups", "engine.requests",
    "engine.checkRequests", "engine.updateRequests",
    "engine.busyCycles", "engine.queueFullStalls",
    "engine.stallCycles", "engine.spillEvents", "engine.spillBits",
    "engine.fillEvents", "engine.fillBits", "engine.checkLatencySum",
    "engine.checkLatencyCount", "engine.framesDepth",
    "engine.depthClamps", "engine.accountingClamps",
};
constexpr size_t kNumTimingFields = std::size(kTimingFields);
using TimingFields = std::array<uint64_t, kNumTimingFields>;

TimingFields
timingFields(const TimingStats &t)
{
    const EngineStats &e = t.engine;
    return {t.instructions, t.cycles, t.branches, t.mispredicts,
            t.l1iMisses, t.l1dMisses, t.l2Misses, t.tlbMisses,
            t.ipdsStallCycles, t.ringMaxOccupancy, t.ringDrains,
            t.ringOverflowFlushes, t.ringFaultDrops, t.ringFaultDups,
            e.requests, e.checkRequests, e.updateRequests,
            e.busyCycles, e.queueFullStalls, e.stallCycles,
            e.spillEvents, e.spillBits, e.fillEvents, e.fillBits,
            e.checkLatencySum, e.checkLatencyCount, e.framesDepth,
            e.depthClamps, e.accountingClamps};
}

/** One pinned program: a paper workload by name, or a gen seed. */
struct TimingGolden
{
    const char *workload; ///< nullptr: the generated program of seed
    uint64_t seed;
    TimingFields fields;
};

/**
 * Two benign sessions of each program through one Table 1 CpuModel
 * (Session, one shard), so state carried across sessions is pinned
 * too. Any drift is a change to the timing model's output.
 */
const TimingGolden kTimingGolden[] = {
    {"atftpd", 0,
     {43096, 7788, 62, 29, 15, 2, 17, 2, 0, 2, 66, 0, 0, 0, 128, 62, 62, 202,
      0, 0, 0, 0, 0, 0, 113, 62, 1, 0, 0}},
    {"crond", 0,
     {48432, 9077, 100, 48, 19, 3, 22, 3, 7, 2, 104, 0, 0, 0, 190, 86, 100,
      286, 7, 7, 0, 0, 0, 0, 324, 86, 1, 0, 0}},
    {"httpd", 0,
     {66086, 11189, 90, 26, 18, 2, 20, 3, 0, 2, 94, 0, 0, 0, 184, 90, 90, 284,
      0, 0, 0, 0, 0, 0, 157, 90, 1, 0, 0}},
    {"portmap", 0,
     {69154, 12237, 124, 58, 24, 5, 29, 3, 3, 2, 128, 0, 0, 0, 236, 108, 124,
      370, 3, 3, 0, 0, 0, 0, 331, 108, 1, 0, 0}},
    {"sendmail", 0,
     {45738, 10773, 214, 54, 26, 2, 28, 3, 0, 2, 218, 0, 0, 0, 432, 214, 214,
      698, 0, 0, 0, 0, 0, 0, 263, 214, 1, 0, 0}},
    {"sshd", 0,
     {33338, 6636, 40, 25, 17, 3, 20, 3, 0, 2, 44, 0, 0, 0, 84, 40, 40, 130, 0,
      0, 0, 0, 0, 0, 42, 40, 1, 0, 0}},
    {"sysklogd", 0,
     {57882, 9880, 96, 42, 13, 3, 16, 3, 4, 2, 100, 0, 0, 0, 196, 96, 96, 308,
      4, 4, 0, 0, 0, 0, 319, 96, 1, 0, 0}},
    {"telnetd", 0,
     {44768, 9867, 132, 32, 27, 3, 30, 3, 0, 2, 140, 0, 0, 0, 272, 132, 132,
      420, 0, 0, 0, 0, 0, 0, 229, 132, 2, 0, 0}},
    {"wu-ftpd", 0,
     {41238, 9751, 124, 56, 26, 2, 28, 3, 0, 2, 128, 0, 0, 0, 248, 120, 124,
      402, 0, 0, 0, 0, 0, 0, 127, 120, 1, 0, 0}},
    {"xinetd", 0,
     {54718, 10153, 122, 40, 21, 4, 25, 3, 0, 2, 150, 0, 0, 0, 272, 122, 122,
      406, 0, 0, 0, 0, 0, 0, 280, 122, 2, 0, 0}},
    {nullptr, 1,
     {45898, 11244, 156, 43, 45, 8, 53, 3, 32, 2, 180, 0, 0, 0, 330, 150, 156,
      500, 25, 32, 0, 0, 0, 0, 733, 150, 2, 0, 0}},
    {nullptr, 2,
     {62390, 12356, 186, 59, 32, 5, 37, 3, 27, 2, 218, 0, 0, 0, 404, 186, 186,
      622, 21, 27, 0, 0, 0, 0, 824, 186, 2, 0, 0}},
    {nullptr, 3,
     {45142, 10524, 154, 48, 39, 8, 47, 3, 23, 2, 178, 0, 0, 0, 332, 154, 154,
      510, 21, 23, 0, 0, 0, 0, 716, 154, 2, 0, 0}},
};

TEST(TimingGolden, Table1StatsPinned)
{
    for (const TimingGolden &g : kTimingGolden) {
        std::string name;
        CompiledProgram prog;
        std::vector<std::string> inputs;
        if (g.workload) {
            const Workload &wl = workloadByName(g.workload);
            name = wl.name;
            prog = compileAndAnalyze(wl.source, wl.name);
            inputs = wl.benignInputs;
        } else {
            gen::GeneratedProgram gp = gen::generate(g.seed);
            name = "gen seed " + std::to_string(g.seed);
            prog = gen::compileGenerated(gp);
            inputs = gp.workload.benignInputs;
        }
        Session s = Session::builder()
                        .program(prog)
                        .inputs(inputs)
                        .timing(table1Config())
                        .sessions(2)
                        .shards(1)
                        .build();
        TimingFields got = timingFields(s.run().timingStats());
        for (size_t i = 0; i < kNumTimingFields; i++)
            EXPECT_EQ(got[i], g.fields[i])
                << name << ": " << kTimingFields[i];
        if (got != g.fields) {
            std::ostringstream row;
            for (size_t i = 0; i < kNumTimingFields; i++)
                row << (i ? ", " : "") << got[i];
            ADD_FAILURE() << name << ": the timing model's output "
                          << "drifted — if intentional, repin to {"
                          << row.str() << "}";
        }
    }
}

/** Fail with the row to repin when @p got drifts from @p want. */
void
expectPinned(const std::string &name, const TimingFields &got,
             const TimingFields &want)
{
    for (size_t i = 0; i < kNumTimingFields; i++)
        EXPECT_EQ(got[i], want[i]) << name << ": " << kTimingFields[i];
    if (got != want) {
        std::ostringstream row;
        for (size_t i = 0; i < kNumTimingFields; i++)
            row << (i ? ", " : "") << got[i];
        ADD_FAILURE() << name << ": the timing model's output "
                      << "drifted — if intentional, repin to {"
                      << row.str() << "}";
    }
}

/**
 * Recurses input-many levels deep, then calls a different function
 * through the same depths: the second chain reads the ready ticks the
 * first one left at each depth (a returning call does not clear
 * them). Loops for a second input's worth of rounds.
 */
const char *kDeepProgram = R"(
int leaf(int x) {
    if (x > 3) {
        return x - 1;
    }
    return x + 1;
}

int down(int n) {
    int r;
    if (n <= 0) {
        return 0;
    }
    r = down(n - 1);
    return r + leaf(n);
}

int again(int n) {
    int s;
    if (n <= 0) {
        return 1;
    }
    s = again(n - 1);
    if (s > n) {
        s = s - n;
    }
    return s;
}

void main() {
    int n;
    int rounds;
    int k;
    int a;
    n = input_int();
    rounds = input_int();
    k = 0;
    a = 0;
    while (k < rounds) {
        a = a + down(n);
        a = a + again(n);
        k = k + 1;
    }
    print_int(a);
}
)";

const std::vector<std::string> kDeepInputs{"72", "3"};

/** Exits 40 calls deep: no call returns, so the engine's table frames
 *  (and the model's call depth) carry over into the next session. */
const char *kExitDeepProgram = R"(
int dive(int n) {
    int r;
    if (n <= 0) {
        exit(0);
    }
    r = dive(n - 1);
    return r + 1;
}

void main() {
    print_int(dive(input_int()));
}
)";

/** Two sessions of @p prog through one CpuModel (Session, 1 shard). */
TimingStats
sessionStats(const CompiledProgram &prog,
             const std::vector<std::string> &inputs,
             const TimingConfig &cfg, const ExecPlan &plan = ExecPlan())
{
    return Session::builder()
        .program(prog)
        .inputs(inputs)
        .timing(cfg)
        .sessions(2)
        .shards(1)
        .plan(plan)
        .build()
        .run()
        .timingStats();
}

/** Three sessions through one CpuModel with @p switches context
 *  switches after each. */
TimingStats
switchedStats(const CompiledProgram &prog,
              const std::vector<std::string> &inputs, bool lazy,
              int switches)
{
    CpuModel cpu(table1Config());
    for (int s = 0; s < 3; s++) {
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        vm.setRecordTrace(false);
        Detector det(prog);
        det.setRequestRing(&cpu.requestRing());
        vm.addObserver(&det);
        vm.addObserver(&cpu);
        vm.run();
        for (int k = 0; k < switches; k++)
            cpu.contextSwitch(lazy);
    }
    return cpu.stats();
}

TEST(CpuModel, ContextSwitchChargesCycles)
{
    // Each session exits 40 calls deep, so the switches after it find
    // 40 table frames resident: eager saves and restores all of them,
    // lazy only the top one (the deeper ones migrate off the critical
    // path once), so the costs are strictly ordered.
    CompiledProgram prog =
        compileAndAnalyze(kExitDeepProgram, "exit_deep");
    uint64_t none = switchedStats(prog, {"40"}, true, 0).cycles;
    uint64_t lazy = switchedStats(prog, {"40"}, true, 50).cycles;
    uint64_t eager = switchedStats(prog, {"40"}, false, 50).cycles;
    EXPECT_LT(none, lazy);
    EXPECT_LT(lazy, eager);
}

/** A plan that only forces a context switch every @p every branches. */
FaultPlan
ctxStorm(uint32_t every, bool lazy)
{
    FaultPlan p;
    p.seed = 5;
    p.ctxEveryBranches = every;
    p.lazyCtx = lazy;
    return p;
}

/** One stress row: what it drives and its pinned output. */
struct StressGolden
{
    const char *name;
    TimingFields fields;
};

/**
 * The paths Table 1 never reaches, pinned: a request queue of 1 and 2
 * entries (the queue fills and stalls commit), on-chip stacks small
 * enough to spill and fill, lazy and eager context switches between
 * sessions (with 40 frames left by an exit() in each) and in
 * mid-recursion storms, 72-deep recursion followed by
 * a second call chain through the same depths, ring drop/dup faults
 * under spill pressure (ring capacity 64, depth clamp at 64), rings
 * small enough that every FIFO wraps, queues and a BAT row width that
 * are not powers of two (so a wrap by mask alone would fail; the fetch
 * queue is shorter than the issue width, so its refill floor binds),
 * small power-of-two tables whose indices alias, and IPDS off. Rows run in the order of
 * stressRunners().
 */
const StressGolden kStressGolden[] = {
    {"queue1/sendmail",
     {45738, 11404, 214, 54, 26, 2, 28, 3, 215, 2, 218, 0, 0, 0, 432,
      214, 214, 698, 215, 215, 0, 0, 0, 0, 214, 214, 1, 0, 0}},
    {"queue2/gen1",
     {45898, 11372, 156, 43, 45, 8, 53, 3, 107, 2, 180, 0, 0, 0, 330,
      150, 156, 500, 66, 107, 0, 0, 0, 0, 233, 150, 2, 0, 0}},
    {"spill/deep",
     {27218, 23261, 1748, 36, 13, 38, 51, 2, 12680, 2, 4368, 0, 0, 0,
      5676, 1308, 1748, 21024, 1633, 12680, 702, 16152, 702, 16152,
      38065, 1308, 74, 0, 0}},
    {"deep/table1",
     {27218, 9518, 1748, 36, 13, 38, 51, 2, 1255, 2, 4368, 0, 0, 0,
      5676, 1308, 1748, 6984, 1213, 1255, 0, 0, 0, 0, 10858, 1308, 74,
      0, 0}},
    {"ctx-between-lazy/exit-deep",
     {7227, 1821, 123, 3, 3, 21, 24, 2, 102, 2, 249, 0, 0, 0, 372,
      123, 123, 495, 101, 102, 125, 2214, 0, 0, 1057, 123, 126, 0, 0}},
    {"ctx-between-eager/exit-deep",
     {7227, 2381, 123, 3, 3, 21, 24, 2, 102, 2, 249, 0, 0, 0, 372,
      123, 123, 495, 101, 102, 0, 0, 0, 0, 1057, 123, 126, 0, 0}},
    {"ctx-storm-lazy/deep",
     {27218, 20273, 1748, 36, 13, 38, 51, 2, 6669, 2, 4368, 0, 0, 0,
      5676, 1308, 1748, 16124, 1090, 6669, 914, 20508, 914, 20508,
      17556, 1308, 74, 0, 0}},
    {"ctx-storm-eager/deep",
     {27218, 18981, 1748, 36, 13, 38, 51, 2, 722, 2, 4368, 0, 0, 0,
      5676, 1308, 1748, 6984, 617, 722, 0, 0, 0, 0, 8448, 1308, 74, 0,
      0}},
    {"ring-faults/deep",
     {27218, 10754, 1748, 36, 13, 38, 51, 2, 2363, 2, 4368, 0, 224,
      228, 5680, 1311, 1751, 8362, 1184, 2363, 126, 2824, 12, 2824,
      14068, 1311, 64, 114, 0}},
    {"fault-seed/sendmail",
     {45738, 10773, 214, 54, 26, 2, 28, 3, 0, 2, 218, 0, 2, 12, 442,
      220, 219, 713, 0, 0, 0, 0, 0, 0, 280, 220, 1, 0, 0}},
    {"small-rings/httpd",
     {66086, 19427, 90, 26, 18, 2, 20, 3, 0, 2, 94, 0, 0, 0, 184, 90,
      90, 284, 0, 0, 0, 0, 0, 0, 145, 90, 1, 0, 0}},
    {"odd-rings/gen1",
     {45898, 17059, 156, 43, 45, 8, 53, 3, 39, 2, 180, 0, 0, 0, 330,
      150, 156, 514, 39, 39, 0, 0, 0, 0, 294, 150, 2, 0, 0}},
    {"small-tables/portmap",
     {69154, 11111, 124, 55, 12, 7, 16, 3, 0, 2, 128, 0, 0, 0, 236,
      108, 124, 370, 0, 0, 0, 0, 0, 0, 280, 108, 1, 0, 0}},
    {"ipds-off/xinetd",
     {54718, 10153, 122, 40, 21, 4, 25, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
};

std::vector<std::function<TimingStats()>>
stressRunners()
{
    auto workload = [](const char *name) {
        const Workload &wl = workloadByName(name);
        return std::make_pair(compileAndAnalyze(wl.source, wl.name),
                              wl.benignInputs);
    };
    auto deep = [] {
        return std::make_pair(compileAndAnalyze(kDeepProgram, "deep"),
                              kDeepInputs);
    };
    std::vector<std::function<TimingStats()>> r;
    r.push_back([=] {
        auto [prog, in] = workload("sendmail");
        TimingConfig cfg;
        cfg.requestQueueSize = 1;
        return sessionStats(prog, in, cfg);
    });
    r.push_back([] {
        gen::GeneratedProgram gp = gen::generate(1);
        TimingConfig cfg;
        cfg.requestQueueSize = 2;
        return sessionStats(gen::compileGenerated(gp),
                            gp.workload.benignInputs, cfg);
    });
    r.push_back([=] {
        auto [prog, in] = deep();
        TimingConfig cfg;
        cfg.bsvStackBits = 64;
        cfg.bcvStackBits = 32;
        cfg.batStackBits = 256;
        return sessionStats(prog, in, cfg);
    });
    r.push_back([=] {
        auto [prog, in] = deep();
        return sessionStats(prog, in, table1Config());
    });
    for (bool lazy : {true, false})
        r.push_back([=] {
            return switchedStats(
                compileAndAnalyze(kExitDeepProgram, "exit_deep"), {"40"},
                lazy, 4);
        });
    for (bool lazy : {true, false})
        r.push_back([=] {
            auto [prog, in] = deep();
            return sessionStats(prog, in, table1Config(),
                                ExecPlan().faults(ctxStorm(7, lazy)));
        });
    r.push_back([=] {
        auto [prog, in] = deep();
        FaultPlan p;
        p.seed = 7;
        p.ringDropPermille = 40;
        p.ringDupPermille = 40;
        p.spillPressure = true;
        return sessionStats(prog, in, table1Config(),
                            ExecPlan().faults(p));
    });
    r.push_back([=] {
        auto [prog, in] = workload("sendmail");
        return sessionStats(prog, in, table1Config(),
                            ExecPlan().faults(FaultPlan::fromSeed(11)));
    });
    r.push_back([=] {
        auto [prog, in] = workload("httpd");
        TimingConfig cfg;
        cfg.issueWidth = 4;
        cfg.commitWidth = 4;
        cfg.ruuSize = 16;
        cfg.lsqSize = 8;
        cfg.fetchQueue = 4;
        return sessionStats(prog, in, cfg);
    });
    r.push_back([] {
        gen::GeneratedProgram gp = gen::generate(1);
        TimingConfig cfg;
        cfg.issueWidth = 4;
        cfg.commitWidth = 4;
        cfg.ruuSize = 12;
        cfg.lsqSize = 5;
        cfg.fetchQueue = 3;
        cfg.requestQueueSize = 3;
        cfg.batEntriesPerAccess = 3;
        return sessionStats(gen::compileGenerated(gp),
                            gp.workload.benignInputs, cfg);
    });
    r.push_back([=] {
        auto [prog, in] = workload("portmap");
        TimingConfig cfg;
        cfg.l1i = {4096, 1, 64, 2};
        cfg.l1d = {2048, 2, 16, 2};
        cfg.l2 = {32768, 4, 64, 10};
        cfg.pageBytes = 1024;
        cfg.tlbEntries = 8;
        cfg.bhtEntries = 64;
        cfg.historyBits = 4;
        cfg.btbEntries = 128;
        return sessionStats(prog, in, cfg);
    });
    r.push_back([=] {
        auto [prog, in] = workload("xinetd");
        TimingConfig cfg;
        cfg.ipdsEnabled = false;
        return sessionStats(prog, in, cfg);
    });
    return r;
}

TEST(TimingGolden, StressStatsPinned)
{
    std::vector<std::function<TimingStats()>> runners = stressRunners();
    ASSERT_EQ(runners.size(), std::size(kStressGolden));
    for (size_t i = 0; i < runners.size(); i++)
        expectPinned(kStressGolden[i].name, timingFields(runners[i]()),
                     kStressGolden[i].fields);
}

/** 64-bit FNV-1a. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(TimingGolden, SnapshottingCaptureBytesPinned)
{
    // Every snapshot in a timing capture carries the running
    // TimingStats and the engine's queued completion times and table
    // frames, so these bytes pin the engine state mid-recursion.
    CompiledProgram prog = compileAndAnalyze(kDeepProgram, "deep");
    const std::string path =
        testing::TempDir() + "ipds_timing_golden_capture.trc";
    Session::builder()
        .program(prog)
        .inputs({"72", "12"})
        .timing(table1Config())
        .sessions(2)
        .plan(CapturePlan(path).snapshotEvery(1))
        .build()
        .run();
    std::vector<uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::remove(path.c_str());

    replay::TraceFile tf = replay::TraceFile::fromBytes(bytes);
    size_t snapshots = 0;
    for (const replay::ChunkRef &c : tf.chunks())
        snapshots += (c.flags & replay::kChunkHasSnapshot) ? 1 : 0;
    EXPECT_GE(snapshots, 2u);
    EXPECT_EQ(bytes.size(), 183010u);
    EXPECT_EQ(fnv1a(bytes), 0x23532fb70f2480deULL)
        << "timing capture drifted: " << bytes.size() << " bytes, "
        << snapshots << " snapshot chunks, FNV-1a 0x" << std::hex
        << fnv1a(bytes);
}

} // namespace
} // namespace ipds
