/**
 * @file
 * Fault-injection suite (ctest label `fault`): the differential
 * oracle harness for src/inject plus regressions for every hardened
 * failure path.
 *
 * The standing contract under test: for ANY fault class the plan can
 * express — memory tampers, BSV flips, ring drop/duplicate, spill
 * pressure, context-switch storms — the fast Detector and the frozen
 * ReferenceDetector must report identical alarms and statistics, the
 * switch and threaded VM engines must stay bit-identical,
 * clean runs must stay alarm-free, and no fault may reach a panic().
 */

#include <gtest/gtest.h>

#include <set>

#include "core/correlation.h"
#include "core/hashfn.h"
#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "ipds/reference.h"
#include "obs/names.h"
#include "obs/session.h"
#include "support/diag.h"
#include "support/rng.h"
#include "timing/cpu.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

// ------------------------------------------------- hashfn failure paths

TEST(FaultHashFn, ExhaustionIsRecoverable)
{
    // 8 distinct branches cannot fit a collision-free hash into a
    // 2^2-slot space: the search must exhaust and throw the
    // *recoverable* error class, never abort the process.
    std::vector<uint64_t> pcs;
    for (uint64_t i = 0; i < 8; i++)
        pcs.push_back(0x1000 + 4 * i);
    try {
        findPerfectHash(pcs, 24, 2);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no collision-free"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultHashFn, DuplicatePcsNameTheCounts)
{
    try {
        findPerfectHash({0x1000, 0x2000, 0x1000});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultCompile, HashExhaustionFailsOneProgramNotTheProcess)
{
    const char *src = R"(
void main() {
    int a;
    a = input_int();
    if (a > 1) { print_str("x"); }
    if (a > 2) { print_str("y"); }
    if (a > 3) { print_str("z"); }
}
)";
    // A 1-slot cap cannot host three branches: the pipeline must
    // surface a recoverable error naming the failing function...
    CorrOptions tight;
    tight.maxHashLog2 = 0;
    try {
        compileAndAnalyze(src, "cramped", tight);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("main"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cramped"), std::string::npos) << msg;
    }
    // ...and the process must be fully usable afterwards.
    CompiledProgram ok = compileAndAnalyze(src, "cramped");
    EXPECT_GT(ok.stats.numBranches, 0u);
}

// ---------------------------------------------- request-ring hardening

std::vector<IpdsRequest>
numberedRequests(uint32_t n)
{
    std::vector<IpdsRequest> out;
    for (uint32_t i = 0; i < n; i++) {
        IpdsRequest rq;
        rq.kind = IpdsRequest::Kind::Update;
        rq.pc = i;
        out.push_back(rq);
    }
    return out;
}

TEST(FaultRing, OverflowGrowsInsteadOfAborting)
{
    RequestRing ring(64);
    EXPECT_EQ(ring.capacity(), 64u);
    auto reqs = numberedRequests(5000);
    for (const IpdsRequest &rq : reqs)
        ring.push(rq);
    EXPECT_GT(ring.growCount(), 0u);
    EXPECT_GE(ring.capacity(), 5000u);

    std::vector<IpdsRequest> got;
    ring.drain([&](const IpdsRequest &rq) { got.push_back(rq); });
    ASSERT_EQ(got.size(), reqs.size());
    EXPECT_TRUE(got == reqs) << "order lost across growth";
}

TEST(FaultRing, OverflowSinkChunkFlushesOldestHalf)
{
    RequestRing ring(64);
    std::vector<IpdsRequest> flushed;
    ring.setOverflowSink(
        [&](const IpdsRequest &rq) { flushed.push_back(rq); });
    auto reqs = numberedRequests(300);
    for (const IpdsRequest &rq : reqs)
        ring.push(rq);
    EXPECT_GT(ring.overflowFlushCount(), 0u);
    EXPECT_EQ(ring.growCount(), 0u);
    EXPECT_EQ(ring.capacity(), 64u) << "sink must prevent growth";

    // Flushed prefix + drained suffix must be the pushed sequence.
    std::vector<IpdsRequest> got = flushed;
    ring.drain([&](const IpdsRequest &rq) { got.push_back(rq); });
    ASSERT_EQ(got.size(), reqs.size());
    EXPECT_TRUE(got == reqs) << "order lost across chunk flushes";
}

TEST(FaultRing, DropDupFilterIsDeterministic)
{
    auto runFiltered = [](uint64_t seed) {
        RequestRing ring(256);
        ring.setFault(100, 50, seed); // 10% drop, 5% dup
        auto reqs = numberedRequests(200);
        std::vector<uint64_t> delivered;
        for (const IpdsRequest &rq : reqs)
            ring.push(rq);
        ring.drain(
            [&](const IpdsRequest &rq) { delivered.push_back(rq.pc); });
        return std::make_tuple(delivered, ring.faultDropCount(),
                               ring.faultDupCount());
    };
    auto [d1, drop1, dup1] = runFiltered(42);
    auto [d2, drop2, dup2] = runFiltered(42);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(drop1, drop2);
    EXPECT_EQ(dup1, dup2);
    EXPECT_GT(drop1, 0u);
    EXPECT_EQ(d1.size(), 200 - drop1 + dup1);

    auto [d3, drop3, dup3] = runFiltered(43);
    EXPECT_NE(d1, d3) << "different seeds, same perturbation";

    // Zero rates: the filter disarms completely.
    RequestRing clean(256);
    clean.setFault(0, 0, 42);
    auto reqs = numberedRequests(50);
    for (const IpdsRequest &rq : reqs)
        clean.push(rq);
    std::vector<IpdsRequest> got;
    clean.drain([&](const IpdsRequest &rq) { got.push_back(rq); });
    EXPECT_TRUE(got == reqs);
    EXPECT_EQ(clean.faultDropCount(), 0u);
    EXPECT_EQ(clean.faultDupCount(), 0u);
}

TEST(FaultRing, DetectorSurvivesThousandsPendingBetweenDrains)
{
    // Regression for the old panic at 1024 pending: a consumer that
    // never drains mid-run must see growth, not an abort.
    const char *src = R"(
void main() {
    int i;
    i = 0;
    while (i < 700) {
        if (i > 1000) { print_str("x"); }
        i = i + 1;
    }
}
)";
    CompiledProgram prog = compileAndAnalyze(src, "spin");
    Vm vm(prog.mod);
    Detector det(prog);
    RequestRing ring; // default 1024, never drained during the run
    det.setRequestRing(&ring);
    vm.addObserver(&det);
    RunResult r;
    ASSERT_NO_THROW(r = vm.run());
    EXPECT_EQ(r.exit, ExitKind::Returned);
    EXPECT_GT(ring.size(), 1024u);
    EXPECT_GT(ring.growCount(), 0u);

    // Every emitted request is intact: frame push/pop + one update
    // per branch + one check per checked branch.
    uint64_t drained = 0;
    ring.drain([&](const IpdsRequest &) { drained++; });
    const DetectorStats &s = det.stats();
    EXPECT_EQ(drained, 2 * s.framesPushed + s.updatesApplied +
                  s.checksEnqueued);
}

// ------------------------------------------- engine accounting guards

TEST(FaultEngine, ResidentBitsNeverUnderflows)
{
    // Randomized push/pop/ctx-switch streams, including the dropped
    // pushes and duplicated pops a faulted transport can produce. The
    // resident-bits accounting must clamp (counted), never wrap.
    for (uint64_t seed = 1; seed <= 10; seed++) {
        TimingConfig cfg;
        cfg.bsvStackBits = 256;
        cfg.bcvStackBits = 128;
        cfg.batStackBits = 2048;
        cfg.maxFrameDepth = 8;
        IpdsEngine eng(cfg);
        Rng rng(seed);
        uint64_t now = 0;
        uint32_t depth = 0;
        for (int op = 0; op < 4000; op++) {
            now += 1 + rng.below(5);
            uint32_t pick = static_cast<uint32_t>(rng.below(100));
            IpdsRequest rq;
            if (pick < 45) {
                rq.kind = IpdsRequest::Kind::PushFrame;
                rq.tableBits = 64 + rng.below(2048);
                if (rng.below(10) == 0)
                    continue; // dropped push
                eng.enqueue(rq, now);
                depth++;
            } else if (pick < 90) {
                rq.kind = IpdsRequest::Kind::PopFrame;
                rq.tableBits = 64 + rng.below(2048);
                eng.enqueue(rq, now);
                if (rng.below(10) == 0)
                    eng.enqueue(rq, now); // duplicated pop
            } else {
                eng.contextSwitch(rng.below(2) == 0);
            }
            // No wrap: bits bounded by what was ever pushed.
            EXPECT_LT(eng.residentTableBits(),
                      uint64_t(4000) * 4096)
                << "seed " << seed << " op " << op;
            EXPECT_LE(eng.frameDepth(), cfg.maxFrameDepth)
                << "seed " << seed << " op " << op;
        }
        EXPECT_GT(eng.stats().depthClamps, 0u) << "seed " << seed;
    }
}

TEST(FaultEngine, DepthGuardKeepsFillCostsAccounted)
{
    TimingConfig cfg;
    cfg.maxFrameDepth = 4;
    IpdsEngine eng(cfg);
    IpdsRequest push;
    push.kind = IpdsRequest::Kind::PushFrame;
    push.tableBits = 512;
    for (int i = 0; i < 20; i++)
        eng.enqueue(push, i);
    EXPECT_EQ(eng.frameDepth(), 4u);
    EXPECT_EQ(eng.stats().depthClamps, 16u);
    EXPECT_EQ(eng.stats().framesDepth, 4u);

    // Popping back out fills the merged deep frame: its bits were not
    // forgotten by the clamp.
    IpdsRequest pop;
    pop.kind = IpdsRequest::Kind::PopFrame;
    uint64_t fillsBefore = eng.stats().fillEvents;
    for (int i = 0; i < 4; i++)
        eng.enqueue(pop, 100 + i);
    EXPECT_EQ(eng.frameDepth(), 0u);
    EXPECT_GT(eng.stats().fillEvents, fillsBefore);
    EXPECT_EQ(eng.residentTableBits(), 0u);
    EXPECT_EQ(eng.stats().accountingClamps, 0u)
        << "clean stream must never need the clamp";
}

// --------------------------------------- differential fault oracles

/** Everything a faulted run produces that must match across models. */
struct Capture
{
    RunResult res;
    std::vector<Alarm> alarms;
    DetectorStats det;
    TimingStats tim;
    FaultStats fault;
};

void
expectSameAlarms(const std::vector<Alarm> &a,
                 const std::vector<Alarm> &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].func, b[i].func) << what << " #" << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << what << " #" << i;
        EXPECT_EQ(a[i].actualTaken, b[i].actualTaken)
            << what << " #" << i;
        EXPECT_EQ(a[i].expected, b[i].expected) << what << " #" << i;
        EXPECT_EQ(a[i].branchIndex, b[i].branchIndex)
            << what << " #" << i;
    }
}

/**
 * One fully faulted run: injector interposed over detector + timing
 * model, ring filter armed, memory tampers armed. @p reference swaps
 * the fast Detector for the frozen ReferenceDetector (request sink
 * transport), @p eng selects the VM engine.
 */
Capture
runFaulted(const CompiledProgram &prog,
           const std::vector<std::string> &inputs,
           const FaultPlan &plan, VmEngine eng, bool reference)
{
    TimingConfig cfg;
    plan.applyTo(cfg);
    CpuModel cpu(cfg);
    Vm vm(prog.mod);
    vm.setInputs(inputs);
    vm.setFuel(5'000'000);
    vm.setEngine(eng);

    Detector det(prog);
    ReferenceDetector ref(prog);
    FaultInjector inj(plan, 0);
    if (reference) {
        ref.setRequestSink(cpu.requestSink());
        inj.addTarget(&ref);
        inj.addReference(&ref);
    } else {
        det.setRequestRing(&cpu.requestRing());
        inj.addTarget(&det);
        inj.addDetector(&det);
    }
    inj.addTarget(&cpu);
    inj.setCpu(&cpu);
    if (plan.enabled()) {
        cpu.requestRing().setFault(plan.ringDropPermille,
                                   plan.ringDupPermille, plan.seed);
        for (const TamperSpec &spec : plan.memTamperSpecs(0))
            vm.addTamper(spec);
    }
    vm.addObserver(&inj);

    Capture c;
    c.res = vm.run();
    c.alarms = reference ? ref.alarms() : det.alarms();
    c.det = reference ? ref.stats() : det.stats();
    c.tim = cpu.stats();
    c.fault = inj.stats();
    c.fault.ringDrops = cpu.requestRing().faultDropCount();
    c.fault.ringDups = cpu.requestRing().faultDupCount();
    return c;
}

/** The named fault classes every oracle sweeps. */
struct PlanCase
{
    const char *name;
    FaultPlan plan;
};

std::vector<PlanCase>
faultClasses()
{
    std::vector<PlanCase> cases;
    cases.push_back({"clean", FaultPlan{}});

    FaultPlan bsv;
    bsv.seed = 7;
    bsv.bsvEveryBranches = 37;
    cases.push_back({"bsv-flips", bsv});

    FaultPlan ringF;
    ringF.seed = 11;
    ringF.ringDropPermille = 80;
    ringF.ringDupPermille = 40;
    cases.push_back({"ring-drop-dup", ringF});

    FaultPlan ctx;
    ctx.seed = 13;
    ctx.ctxEveryBranches = 53;
    ctx.lazyCtx = true;
    cases.push_back({"ctx-storm-lazy", ctx});

    FaultPlan spill;
    spill.seed = 17;
    spill.spillPressure = true;
    cases.push_back({"spill-pressure", spill});

    FaultPlan mem;
    mem.seed = 19;
    mem.memEveryInsts = 900;
    mem.maxMemFaults = 3;
    cases.push_back({"mem-tampers", mem});

    FaultPlan storm;
    storm.seed = 23;
    storm.memEveryInsts = 1500;
    storm.maxMemFaults = 2;
    storm.bsvEveryBranches = 41;
    storm.ringDropPermille = 60;
    storm.ringDupPermille = 60;
    storm.ctxEveryBranches = 61;
    storm.lazyCtx = false;
    storm.spillPressure = true;
    cases.push_back({"everything-storm", storm});
    return cases;
}

TEST(FaultOracle, FastAndReferenceDetectorsAgreeUnderEveryFault)
{
    // The ReferenceDetector's request sink stamps no seq, so timing it
    // cycle-exactly needs per-event delivery: the switch engine.
    for (const char *wlName : {"telnetd", "wu-ftpd"}) {
        const Workload &wl = workloadByName(wlName);
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        for (const PlanCase &pc : faultClasses()) {
            std::string what =
                std::string(wlName) + "/" + pc.name;
            Capture fast =
                runFaulted(prog, wl.benignInputs, pc.plan,
                           VmEngine::Switch, false);
            Capture ref =
                runFaulted(prog, wl.benignInputs, pc.plan,
                           VmEngine::Switch, true);
            expectSameAlarms(ref.alarms, fast.alarms, what);
            EXPECT_TRUE(ref.det == fast.det) << what;
            EXPECT_TRUE(ref.tim == fast.tim) << what;
            EXPECT_TRUE(ref.fault == fast.fault) << what;
            EXPECT_EQ(ref.res.output, fast.res.output) << what;
            EXPECT_EQ(ref.res.steps, fast.res.steps) << what;
            if (pc.plan.seed == 0) {
                EXPECT_TRUE(fast.alarms.empty())
                    << what << ": false alarm on clean run";
            }
        }
    }
}

TEST(FaultOracle, EnginesStayBitIdenticalUnderEveryFault)
{
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    for (const PlanCase &pc : faultClasses()) {
        Capture sw = runFaulted(prog, wl.benignInputs, pc.plan,
                                VmEngine::Switch, false);
        Capture th = runFaulted(prog, wl.benignInputs, pc.plan,
                                VmEngine::Threaded, false);
        std::string what = std::string(pc.name) + "/threaded";
        expectSameAlarms(sw.alarms, th.alarms, what);
        EXPECT_TRUE(sw.det == th.det) << what;
        EXPECT_TRUE(sw.tim == th.tim) << what;
        EXPECT_TRUE(sw.fault == th.fault) << what;
        EXPECT_EQ(sw.res.output, th.res.output) << what;
        EXPECT_EQ(sw.res.steps, th.res.steps) << what;
        EXPECT_TRUE(sw.res.branchTrace == th.res.branchTrace) << what;
        ASSERT_EQ(sw.res.faultTampers.size(), th.res.faultTampers.size())
            << what;
        for (size_t i = 0; i < sw.res.faultTampers.size(); i++) {
            EXPECT_EQ(sw.res.faultTampers[i].addr,
                      th.res.faultTampers[i].addr)
                << what;
            EXPECT_TRUE(sw.res.faultTampers[i].newBytes ==
                        th.res.faultTampers[i].newBytes)
                << what;
        }
    }
}

TEST(FaultOracle, ZeroRatePlanIsFullyTransparent)
{
    // An injector with nothing to inject must be invisible, whether
    // its plan is armed with every rate zero or disabled outright:
    // same alarms, stats and cycles as the direct wiring.
    FaultPlan inert;
    inert.seed = 99; // enabled, but every rate zero
    inert.maxMemFaults = 0;
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        TimingConfig cfg;
        CpuModel cpu(cfg);
        Vm vm(prog.mod);
        vm.setInputs(wl.benignInputs);
        Detector det(prog);
        det.setRequestRing(&cpu.requestRing());
        vm.addObserver(&det);
        vm.addObserver(&cpu);
        RunResult direct = vm.run();
        EXPECT_TRUE(det.alarms().empty()) << wl.name;

        for (const FaultPlan &plan : {inert, FaultPlan{}}) {
            std::string what = wl.name +
                (plan.enabled() ? "/inert" : "/disabled");
            Capture viaInjector = runFaulted(
                prog, wl.benignInputs, plan, VmEngine::Threaded, false);
            EXPECT_TRUE(det.stats() == viaInjector.det) << what;
            EXPECT_TRUE(cpu.stats() == viaInjector.tim) << what;
            EXPECT_TRUE(viaInjector.alarms.empty()) << what;
            EXPECT_EQ(direct.output, viaInjector.res.output) << what;
            EXPECT_EQ(direct.steps, viaInjector.res.steps) << what;
            FaultStats zero;
            EXPECT_TRUE(viaInjector.fault == zero) << what;
        }
    }
}

TEST(FaultOracle, NoPanicReachableFromFaultStorms)
{
    // Aggressive derived plans across seeds: whatever fires, the run
    // must end in a clean ExitKind, never a PanicError.
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    for (uint64_t seed = 1; seed <= 6; seed++) {
        FaultPlan plan = FaultPlan::fromSeed(seed);
        plan.memEveryInsts = 500; // much hotter than fromSeed's
        plan.bsvEveryBranches = 11;
        plan.ringDropPermille = 200;
        plan.ringDupPermille = 200;
        plan.ctxEveryBranches = 17;
        plan.spillPressure = true;
        for (VmEngine eng : {VmEngine::Switch, VmEngine::Threaded}) {
            Capture c;
            ASSERT_NO_THROW(
                c = runFaulted(prog, wl.benignInputs, plan, eng, false))
                << "seed " << seed;
            EXPECT_TRUE(c.res.exit == ExitKind::Returned ||
                        c.res.exit == ExitKind::Exited ||
                        c.res.exit == ExitKind::Trapped ||
                        c.res.exit == ExitKind::OutOfFuel);
        }
    }
}

// ------------------------------------------------ session facade wiring

TEST(FaultSession, PlanRunsShardedAndExportsMetrics)
{
    const Workload &wl = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    FaultPlan plan;
    plan.seed = 31;
    plan.bsvEveryBranches = 43;
    plan.ringDropPermille = 50;
    plan.ringDupPermille = 30;
    plan.ctxEveryBranches = 71;
    plan.spillPressure = true;
    plan.memEveryInsts = 2000;
    plan.maxMemFaults = 2;

    auto make = [&](unsigned threads) {
        return Session::builder()
            .program(prog)
            .inputs(wl.benignInputs)
            .timing(TimingConfig{})
            .plan(ExecPlan().faults(plan))
            .sessions(6)
            .shards(3)
            .threads(threads)
            .build();
    };
    Session a = make(1);
    a.run();
    const FaultStats &fs = a.faultStats();
    EXPECT_GT(fs.bsvFlips + fs.ctxSwitches + fs.ringDrops +
                  fs.ringDups + fs.memTampers,
              0u);
    std::string json = a.metricsJson();
    EXPECT_NE(json.find(obs::names::kFaultBsvFlips),
              std::string::npos);
    EXPECT_NE(json.find(obs::names::kEngFramesDepth),
              std::string::npos);

    // Thread-count invariance survives fault injection: per-session
    // salts make the aggregate a pure function of (sessions, shards).
    Session b = make(3);
    b.run();
    EXPECT_EQ(json, b.metricsJson());
    EXPECT_TRUE(a.faultStats() == b.faultStats());
    EXPECT_TRUE(a.timingStats() == b.timingStats());
    expectSameAlarms(a.alarms(), b.alarms(), "threads 1 vs 3");
}

TEST(FaultSession, CleanRunsStayAlarmFreeUnderBenignFaults)
{
    // Ring perturbation, spill pressure and ctx storms do not corrupt
    // detector state: zero false alarms on benign inputs.
    for (const char *wlName : {"telnetd", "wu-ftpd", "xinetd"}) {
        const Workload &wl = workloadByName(wlName);
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        FaultPlan plan;
        plan.seed = 5;
        plan.ringDropPermille = 100;
        plan.ringDupPermille = 100;
        plan.ctxEveryBranches = 29;
        plan.spillPressure = true;
        Session s = Session::builder()
                        .program(prog)
                        .inputs(wl.benignInputs)
                        .timing(TimingConfig{})
                        .plan(ExecPlan().faults(plan))
                        .sessions(3)
                        .build();
        s.run();
        EXPECT_FALSE(s.alarmed()) << wlName
            << ": transport/timing faults must not fake an attack";
        EXPECT_GT(s.faultStats().ringDrops, 0u) << wlName;
        EXPECT_GT(s.faultStats().ctxSwitches, 0u) << wlName;
    }
}

// --------------------------------------- spilled-frame tamper e2e

/**
 * The victim's decision variable is corrupted while the table stack
 * is under heavy spill pressure and the victim frame's tables are
 * off-chip (deep recursion, shrunken stacks). Detection must survive
 * the spill/fill round trip in both delivery modes.
 */
TEST(FaultE2E, TamperWhileFrameSpilledIsStillDetected)
{
    const char *src = R"(
int secret;
int spin(int n) {
    if (n <= 0) { return 0; }
    return spin(n - 1) + 1;
}
void main() {
    int i;
    secret = 7;
    i = 0;
    while (i < 6) {
        if (secret > 5) { print_str("hi\n"); } else { print_str("lo\n"); }
        print_int(spin(40));
        i = i + 1;
    }
}
)";
    CompiledProgram prog = compileAndAnalyze(src, "spilltamper");

    uint64_t secretAddr = 0;
    for (const auto &obj : prog.mod.objects)
        if (obj.name == "secret")
            secretAddr = Vm(prog.mod).globalBase(obj.id);
    ASSERT_NE(secretAddr, 0u);

    // Shrunken on-chip stacks: spin's 40 frames evict main's tables.
    TimingConfig cfg;
    cfg.bsvStackBits = 64;
    cfg.bcvStackBits = 32;
    cfg.batStackBits = 512;

    for (VmEngine eng : {VmEngine::Switch, VmEngine::Threaded}) {
        std::string what = eng == VmEngine::Threaded
            ? "batched delivery" : "per-event delivery";
        auto runOnce = [&](bool tampered) {
            CpuModel cpu(cfg);
            Vm vm(prog.mod);
            Detector det(prog);
            det.setRequestRing(&cpu.requestRing());
            vm.addObserver(&det);
            vm.addObserver(&cpu);
            vm.setEngine(eng);
            if (tampered) {
                TamperSpec spec;
                spec.randomStackTarget = false;
                spec.atStep = 400; // deep inside a spin() recursion
                spec.addr = secretAddr;
                spec.bytes = {0, 0, 0, 0, 0, 0, 0, 0};
                vm.addTamper(spec);
            }
            RunResult r = vm.run();
            if (tampered) {
                EXPECT_EQ(r.faultTampers.size(), 1u) << what;
            }
            EXPECT_GT(cpu.stats().engine.spillEvents, 0u) << what;
            EXPECT_GT(cpu.stats().engine.fillEvents, 0u) << what;
            return det.alarmed();
        };
        EXPECT_FALSE(runOnce(false))
            << what << ": clean deep-recursion run false-alarmed";
        EXPECT_TRUE(runOnce(true))
            << what
            << ": tamper under spill pressure went undetected";
    }
}

} // namespace
} // namespace ipds
