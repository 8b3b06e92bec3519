/**
 * @file
 * Tests for the observability subsystem: MetricsRegistry (handles,
 * merge, golden JSON export), the ring-buffered Tracer (wraparound,
 * category gating), and the ipds::Session facade (thread-count
 * invariance of aggregated metrics, equivalence with hand-wired
 * Vm + Detector runs).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>

#include "core/program.h"
#include "ipds/detector.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

using obs::MetricsRegistry;
using obs::Tracer;
namespace names = obs::names;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterBasics)
{
    MetricsRegistry reg;
    auto h = reg.counter("ipds.test.count");
    EXPECT_EQ(reg.value(h), 0u);
    reg.add(h, 3);
    reg.add(h);
    EXPECT_EQ(reg.value(h), 4u);
    // Re-registration returns the same handle.
    EXPECT_EQ(reg.counter("ipds.test.count"), h);
    EXPECT_EQ(reg.metricCount(), 1u);
}

TEST(Metrics, GaugeSetMax)
{
    MetricsRegistry reg;
    auto h = reg.gauge("ipds.test.depth");
    reg.setMax(h, 5);
    reg.setMax(h, 3); // lower: ignored
    EXPECT_EQ(reg.value(h), 5u);
    reg.set(h, 2); // explicit set overwrites
    EXPECT_EQ(reg.value(h), 2u);
}

TEST(Metrics, HistogramBucketsByBitWidthWithClamp)
{
    MetricsRegistry reg;
    auto h = reg.histogram("ipds.test.hist");
    reg.observe(h, 0);  // bit_width 0 -> bucket 0
    reg.observe(h, 1);  // bucket 1
    reg.observe(h, 2);  // bucket 2
    reg.observe(h, 3);  // bucket 2
    reg.observe(h, ~0ull); // bit_width 64 -> clamped to last bucket
    EXPECT_EQ(reg.value(h), 5u);
    EXPECT_EQ(reg.histSum(h), 6u + ~0ull);
    EXPECT_EQ(reg.histBucket(h, 0), 1u);
    EXPECT_EQ(reg.histBucket(h, 1), 1u);
    EXPECT_EQ(reg.histBucket(h, 2), 2u);
    EXPECT_EQ(reg.histBucket(h, MetricsRegistry::kHistBuckets - 1),
              1u);
}

TEST(Metrics, MergeAddsCountersMaxesGaugesAndRegistersMissing)
{
    MetricsRegistry a, b;
    {
        auto c = a.counter("c");
        a.add(c, 10);
        auto g = a.gauge("g");
        a.setMax(g, 4);
    }
    {
        auto c = b.counter("c");
        b.add(c, 5);
        auto g = b.gauge("g");
        b.setMax(g, 9);
        auto h = b.histogram("h"); // absent in a
        b.observe(h, 2);
        b.observe(h, 2);
    }
    a.merge(b);
    EXPECT_EQ(a.value(a.find("c")), 15u);
    EXPECT_EQ(a.value(a.find("g")), 9u);
    ASSERT_NE(a.find("h"), obs::kNoMetric);
    EXPECT_EQ(a.value(a.find("h")), 2u);
    EXPECT_EQ(a.histSum(a.find("h")), 4u);

    // Merging two halves of a histogram gives the whole.
    MetricsRegistry whole, lo, hi;
    auto hw = whole.histogram("ipds.test.hist");
    auto hl = lo.histogram("ipds.test.hist");
    auto hh = hi.histogram("ipds.test.hist");
    for (uint64_t v : {0ull, 1ull, 3ull, 5ull})
        lo.observe(hl, v);
    for (uint64_t v : {7ull, 100ull, 1000ull, 1ull << 40})
        hi.observe(hh, v);
    for (uint64_t v : {0ull, 1ull, 3ull, 5ull, 7ull, 100ull, 1000ull,
                       1ull << 40})
        whole.observe(hw, v);
    lo.merge(hi);
    EXPECT_EQ(lo.value(hl), whole.value(hw));
    EXPECT_EQ(lo.histSum(hl), whole.histSum(hw));
    for (uint32_t i = 0; i < MetricsRegistry::kHistBuckets; i++)
        EXPECT_EQ(lo.histBucket(hl, i), whole.histBucket(hw, i)) << i;
}

TEST(Metrics, MergeIsAssociativeOverShardOrder)
{
    // (r0 + r1) + r2 must equal r0 + (r1 + r2): the shard-order join
    // in Session relies on it.
    auto mk = [](uint64_t v) {
        MetricsRegistry r;
        r.add(r.counter("c"), v);
        r.setMax(r.gauge("g"), v);
        return r;
    };
    MetricsRegistry l = mk(1);
    l.merge(mk(2));
    l.merge(mk(3));
    MetricsRegistry rtail = mk(2);
    rtail.merge(mk(3));
    MetricsRegistry r = mk(1);
    r.merge(rtail);
    EXPECT_EQ(l.toJson(), r.toJson());
}

TEST(Metrics, GoldenJsonShape)
{
    MetricsRegistry reg;
    reg.add(reg.counter("a.count"), 3);
    reg.set(reg.gauge("a.gauge"), 7);
    auto h = reg.histogram("a.hist");
    reg.observe(h, 1);
    reg.observe(h, 2);

    const char *expected = R"({
  "counters": {
    "a.count": 3
  },
  "gauges": {
    "a.gauge": 7
  },
  "histograms": {
    "a.hist": {
      "count": 2,
      "sum": 3,
      "avg": 1.500,
      "buckets": [0, 1, 1]
    }
  }
})";
    EXPECT_EQ(reg.toJson(), expected);
}

TEST(Metrics, EmptyRegistryExportsEmptyObjects)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.toJson(),
              "{\n  \"counters\": {},\n  \"gauges\": {},\n"
              "  \"histograms\": {}\n}");
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    MetricsRegistry reg;
    auto h = reg.counter("c");
    reg.add(h, 9);
    reg.reset();
    EXPECT_EQ(reg.metricCount(), 1u);
    EXPECT_EQ(reg.value(h), 0u);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, CapacityRoundsUpToPowerOfTwo)
{
    Tracer t(obs::kCatAll, 5);
    EXPECT_EQ(t.capacity(), 8u);
}

TEST(Tracer, RingWraparoundKeepsNewestEvents)
{
    Tracer t(obs::kCatAll, 4);
    for (uint64_t i = 0; i < 10; i++)
        t.record(obs::kCatBranch, obs::TraceKind::BranchCommit, 0,
                 /*pc=*/i);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 6u);
    // Oldest retained is seq 6, newest is seq 9, in order.
    for (size_t i = 0; i < t.size(); i++) {
        EXPECT_EQ(t.at(i).seq, 6u + i);
        EXPECT_EQ(t.at(i).pc, 6u + i);
    }
    auto ev = t.events();
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev.front().seq, 6u);
    EXPECT_EQ(ev.back().seq, 9u);
}

TEST(Tracer, DisabledCategoryRecordsNoEventAtAll)
{
    Tracer t(obs::kCatBranch, 16);
    EXPECT_TRUE(t.wants(obs::kCatBranch));
    EXPECT_FALSE(t.wants(obs::kCatCheck));
    t.record(obs::kCatCheck, obs::TraceKind::CheckEnqueue);
    t.record(obs::kCatAlarm, obs::TraceKind::Alarm);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.size(), 0u);
    t.record(obs::kCatBranch, obs::TraceKind::BranchCommit);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.countCat(obs::kCatBranch), 1u);
    EXPECT_EQ(t.countCat(obs::kCatCheck), 0u);
}

TEST(Tracer, RuntimeMaskIntersectsCompiledMask)
{
    Tracer t(obs::kCatAll);
    EXPECT_EQ(t.mask(), obs::kCatAll & obs::kCompiledCategories);
}

TEST(Tracer, ChromeJsonExportShape)
{
    Tracer t(obs::kCatAll, 8);
    t.record(obs::kCatBranch, obs::TraceKind::BranchCommit, 2,
             /*pc=*/0x40, /*a=*/1, /*b=*/0);
    // The JSON-array flavour of the chrome://tracing format: one
    // instant event per record, tid = shard, ts = seq.
    std::string j = t.toChromeJson();
    EXPECT_EQ(j.front(), '[');
    EXPECT_NE(j.find("\"name\": \"branch_commit\""),
              std::string::npos);
    EXPECT_NE(j.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(j.find("\"ts\": 0"), std::string::npos);
}

// ---------------------------------------------------------------- session

/** Small server-ish program: input-driven loop with a privilege test. */
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

TEST(Session, AggregatesAreIdenticalForAnyThreadCount)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    auto runWith = [&](unsigned threads) {
        return Session::builder()
            .program(prog)
            .inputs({"7", "1", "2", "3", "4"})
            .timing(table1Config())
            .sessions(12)
            .shards(4)
            .threads(threads)
            .build()
            .run()
            .metricsJson();
    };
    std::string t1 = runWith(1);
    std::string t2 = runWith(2);
    std::string t8 = runWith(8);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
    // And the export is non-trivial: detector and timing metrics are
    // both present under the shared naming scheme.
    EXPECT_NE(t1.find(obs::names::kDetChecksEnqueued),
              std::string::npos);
    EXPECT_NE(t1.find(obs::names::kCpuCycles), std::string::npos);
}

TEST(Session, MatchesHandWiredDetectorRun)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    const std::vector<std::string> inputs{"7", "1", "2", "3", "4"};

    // Hand-wired, the pre-facade way.
    Vm vm(prog.mod);
    vm.setInputs(inputs);
    Detector det(prog);
    vm.addObserver(&det);
    RunResult r = vm.run();

    Session s = Session::builder()
                    .program(prog)
                    .inputs(inputs)
                    .build();
    s.run();

    EXPECT_TRUE(s.detectorStats() == det.stats());
    EXPECT_EQ(s.alarms().size(), det.alarms().size());
    EXPECT_EQ(s.result().output, r.output);
    EXPECT_EQ(s.result().steps, r.steps);
}

TEST(Session, SoloObserverFastPathMatchesMultiObserver)
{
    // The VM devirtualizes dispatch when exactly one observer is
    // attached; adding a second (no-op) observer forces the generic
    // fan-out. Both paths must produce identical results and metrics.
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    const std::vector<std::string> inputs{"7", "1", "2", "3", "4"};

    // Declines inst events like the Detector, so attaching it leaves
    // the VM in the same (branch-only) delivery mode as the solo run
    // and flush counts stay comparable.
    struct NoopObserver final : ExecObserver
    {
        bool wantsInstEvents() const override { return false; }
    };

    auto runWith = [&](bool extra_noop) {
        struct Out
        {
            RunResult res;
            DetectorStats det;
            size_t alarms;
            VmStats vm;
        } out;
        NoopObserver noop;
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        Detector det(prog);
        vm.addObserver(&det);
        if (extra_noop)
            vm.addObserver(&noop);
        out.res = vm.run();
        out.det = det.stats();
        out.alarms = det.alarms().size();
        out.vm = vm.vmStats();
        return out;
    };

    auto solo = runWith(false);
    auto multi = runWith(true);
    EXPECT_TRUE(solo.det == multi.det);
    EXPECT_EQ(solo.alarms, multi.alarms);
    EXPECT_EQ(solo.res.output, multi.res.output);
    EXPECT_EQ(solo.res.steps, multi.res.steps);
    EXPECT_EQ(solo.res.exit, multi.res.exit);
    EXPECT_EQ(solo.res.branchTrace, multi.res.branchTrace);
    EXPECT_EQ(solo.vm.instructions, multi.vm.instructions);
    EXPECT_EQ(solo.vm.blocks, multi.vm.blocks);
    EXPECT_EQ(solo.vm.eventBatchFlushes, multi.vm.eventBatchFlushes);
}

TEST(Session, VmThroughputCountersExported)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"7", "1", "2", "3", "4"})
                    .build();
    s.run();
    const MetricsRegistry &m = s.metrics();
    namespace n = obs::names;
    EXPECT_EQ(m.value(m.find(n::kVmInstructions)),
              s.result().steps);
    EXPECT_GT(m.value(m.find(n::kVmBlocks)), 0u);
    EXPECT_GT(m.value(m.find(n::kVmEventBatchFlushes)), 0u);
}

TEST(Session, MetricsMatchDetectorStatsUnderSharedNames)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"7", "1", "2", "3", "4"})
                    .sessions(3)
                    .build();
    s.run();
    const MetricsRegistry &m = s.metrics();
    namespace n = obs::names;
    EXPECT_EQ(m.value(m.find(n::kDetBranchesSeen)),
              s.detectorStats().branchesSeen);
    EXPECT_EQ(m.value(m.find(n::kDetChecksEnqueued)),
              s.detectorStats().checksEnqueued);
    EXPECT_EQ(m.value(m.find(n::kDetMaxStackDepth)),
              s.detectorStats().maxStackDepth);
    EXPECT_EQ(m.value(m.find(n::kSessRuns)), 3u);
    EXPECT_EQ(m.value(m.find(n::kDetAlarms)), s.alarms().size());
}

TEST(Session, TamperedRunAlarmsAndTraceRecordsTheCause)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");

    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 2;
    spec.addr = Vm(prog.mod).entryLocalAddr("role");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};

    Session s = Session::builder()
                    .program(prog)
                    .inputs({"7", "1", "2", "3", "4"})
                    .plan(ExecPlan().addTamper(spec))
                    .trace(obs::kCatAll)
                    .build();
    s.run();
    ASSERT_TRUE(s.alarmed());

    // The trace carries the full story: session begin, branch
    // commits, and an alarm event whose payload names the cause.
    bool sawBegin = false, sawAlarm = false, sawBranch = false;
    for (const auto &ev : s.traceEvents()) {
        sawBegin |= ev.kind == obs::TraceKind::SessionBegin;
        sawBranch |= ev.kind == obs::TraceKind::BranchCommit;
        if (ev.kind == obs::TraceKind::Alarm) {
            sawAlarm = true;
            EXPECT_EQ(ev.pc, s.alarms().front().pc);
        }
    }
    EXPECT_TRUE(sawBegin);
    EXPECT_TRUE(sawBranch);
    EXPECT_TRUE(sawAlarm);
    EXPECT_NE(s.traceChromeJson().find("alarm"), std::string::npos);
}

TEST(Session, DisabledTraceCategoriesYieldZeroEvents)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    // Only alarm events requested; the benign run raises none, so the
    // trace must stay completely empty — the zero-event guarantee for
    // categories that never fire. With no category (the default) no
    // tracer is built at all, and the trace is just as empty.
    for (uint32_t cats : {uint32_t(obs::kCatAlarm), 0u}) {
        Session s = Session::builder()
                        .program(prog)
                        .inputs({"7", "1", "2", "3", "4"})
                        .trace(cats)
                        .build();
        s.run();
        EXPECT_FALSE(s.alarmed());
        EXPECT_EQ(s.traceEvents().size(), 0u) << cats;
        EXPECT_EQ(s.traceDropped(), 0u) << cats;
        const obs::MetricsRegistry &m = s.metrics();
        EXPECT_EQ(m.value(m.find(names::kSessTraceDropped)), 0u) << cats;
    }
}

TEST(Session, TraceIsDeterministicAcrossThreadCounts)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    auto runWith = [&](unsigned threads) {
        Session s = Session::builder()
                        .program(prog)
                        .inputs({"7", "1", "2", "3", "4"})
                        .sessions(8)
                        .shards(4)
                        .threads(threads)
                        .trace(obs::kCatSession, 64)
                        .build();
        s.run();
        return obs::toText(s.traceEvents());
    };
    EXPECT_EQ(runWith(1), runWith(4));
}

TEST(Session, ExportedNamesFollowTheSchemeAndAreRegistered)
{
    // Every metric a full-featured run exports must (a) follow the
    // shared naming scheme ipds.<component>.<snake_case_field> and
    // (b) be one of the obs/names.h constants — no producer may
    // invent a private name. A capture+replay pair covers every
    // exporter at once: detector, timing, engine, ring, vm, session,
    // fault and replay.
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    std::string trc = testing::TempDir() + "obs_names.trc";
    FaultPlan plan = FaultPlan::fromSeed(7);
    Session::builder()
        .program(prog)
        .inputs({"7", "1", "2", "3", "4"})
        .timing(table1Config())
        .sessions(2)
        .plan(CapturePlan(trc).exec(ExecPlan().faults(plan)))
        .build()
        .run();
    Session rep =
        Session::builder().program(prog).plan(ReplayPlan(trc)).build();
    rep.run();
    std::remove(trc.c_str());

    const std::set<std::string> known = {
        names::kDetBranchesSeen, names::kDetChecksEnqueued,
        names::kDetUpdatesApplied, names::kDetActionsApplied,
        names::kDetFramesPushed, names::kDetMaxStackDepth,
        names::kDetAlarms, names::kRingMaxOccupancy,
        names::kRingDrains, names::kRingOverflowFlushes,
        names::kRingFaultDrops, names::kRingFaultDups,
        names::kCpuInstructions, names::kCpuCycles,
        names::kCpuBranches, names::kCpuMispredicts,
        names::kCpuL1iMisses, names::kCpuL1dMisses,
        names::kCpuL2Misses, names::kCpuTlbMisses,
        names::kCpuIpdsStallCycles, names::kEngRequests,
        names::kEngCheckRequests, names::kEngUpdateRequests,
        names::kEngBusyCycles, names::kEngQueueFullStalls,
        names::kEngStallCycles, names::kEngSpillEvents,
        names::kEngSpillBits, names::kEngFillEvents,
        names::kEngFillBits, names::kEngCheckLatencySum,
        names::kEngCheckLatencyCount, names::kEngFramesDepth,
        names::kEngDepthClamps, names::kEngAccountingClamps,
        names::kVmInstructions, names::kVmBlocks,
        names::kVmEventBatchFlushes, names::kSessRuns,
        names::kSessSteps, names::kSessInputEvents,
        names::kSessTraceDropped, names::kFaultMemTampers,
        names::kFaultBsvFlips, names::kFaultCtxSwitches,
        names::kFaultRingDrops, names::kFaultRingDups,
        names::kReplayChunks, names::kReplayBytes,
        names::kReplayEvents, names::kReplaySessions,
        names::kReplayEventsPerSec, names::kReplayCrcFailures,
        names::kReplayTruncatedChunks,
        names::kReplayVersionMismatches, names::kReplayIndexMissing,
        names::kReplaySeeks, names::kReplaySnapshotsWritten,
        names::kReplaySnapshotsUsed,
        names::kCampAttacks,
        names::kCampFired, names::kCampCfChanged,
        names::kCampDetected, names::kCampFalsePositives,
        names::kCampDetectionBranchHist,
    };

    auto followsScheme = [](const std::string &name) {
        size_t d1 = name.find('.');
        size_t d2 = name.rfind('.');
        if (d1 == std::string::npos || d2 == d1)
            return false;
        if (name.substr(0, d1) != "ipds")
            return false;
        for (char c : name.substr(d1 + 1, d2 - d1 - 1))
            if (c < 'a' || c > 'z')
                return false;
        std::string field = name.substr(d2 + 1);
        if (field.empty())
            return false;
        for (char c : field)
            if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_'))
                return false;
        return true;
    };

    size_t checked = 0;
    std::istringstream in(rep.metricsText());
    std::string line;
    while (std::getline(in, line)) {
        std::string name = line.substr(0, line.find(' '));
        EXPECT_TRUE(followsScheme(name)) << name;
        EXPECT_TRUE(known.count(name))
            << name << " is not declared in obs/names.h";
        checked++;
    }
    // Every exporter must actually have contributed.
    EXPECT_GE(checked, 40u);
}

TEST(Session, RerunReplacesResults)
{
    CompiledProgram prog =
        compileAndAnalyze(kLoopProgram, "obs_loop");
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"7", "1", "2", "3", "4"})
                    .build();
    s.run();
    std::string first = s.metricsJson();
    s.run();
    EXPECT_EQ(s.metricsJson(), first);
}

} // namespace
} // namespace ipds
