/**
 * @file
 * Engine differential suite (ctest label `vm-diff`): the threaded
 * dispatch engine, which delivers events in batches, must be
 * observationally identical to the golden-reference switch
 * interpreter, which delivers them one by one. Every workload of the
 * paper's suite plus the fuzz seed corpus runs through both engines
 * and we compare:
 *
 *  - the complete RunResult (exit kind/code, output, step count,
 *    input events, branch trace, trap message, tamper records);
 *  - the full observer event stream (enter/exit/branch/inst with
 *    effective addresses), captured by a recording observer;
 *  - detector statistics and alarm lists (benign and tampered runs);
 *  - cycle-accurate timing statistics, which pins down the
 *    seq-stamped request-ring drain that keeps batched delivery
 *    bit-identical to per-event delivery.
 */

#include <gtest/gtest.h>

#include "core/program.h"
#include "ipds/detector.h"
#include "timing/cpu.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

#include "program_gen.h"

namespace ipds {
namespace {

using testutil::ProgramGen;

/** One observer callback, flattened for equality comparison. */
struct RecEvent
{
    enum Kind : uint8_t { Enter, Exit, Branch, Inst } kind;
    FuncId func = kNoFunc;  ///< Enter/Exit/Branch
    uint64_t pc = 0;        ///< Branch/Inst
    uint64_t memAddr = 0;   ///< Inst
    uint32_t memSize = 0;   ///< Inst
    bool flag = false;      ///< Branch: taken; Inst: isLoad

    bool
    operator==(const RecEvent &o) const
    {
        return kind == o.kind && func == o.func && pc == o.pc &&
            memAddr == o.memAddr && memSize == o.memSize &&
            flag == o.flag;
    }
};

/** Records every per-event callback (batches arrive via the default
 *  onBatch replay, so batched delivery is compared post-expansion). */
class Recorder final : public ExecObserver
{
  public:
    std::vector<RecEvent> events;

    void
    onFunctionEnter(FuncId f) override
    {
        events.push_back({RecEvent::Enter, f, 0, 0, 0, false});
    }

    void
    onFunctionExit(FuncId f) override
    {
        events.push_back({RecEvent::Exit, f, 0, 0, 0, false});
    }

    void
    onBranch(FuncId f, uint64_t pc, bool taken) override
    {
        events.push_back({RecEvent::Branch, f, pc, 0, 0, taken});
    }

    void
    onInst(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
           bool is_load) override
    {
        events.push_back({RecEvent::Inst, kNoFunc, in.pc, mem_addr,
                          mem_size, is_load});
    }
};

/** One engine configuration under test. */
struct EngineCfg
{
    const char *name;
    VmEngine engine;
};

constexpr EngineCfg kConfigs[] = {
    {"switch", VmEngine::Switch},
    {"threaded", VmEngine::Threaded},
};

/** Everything one run produces that must match across engines. */
struct RunCapture
{
    RunResult res;
    std::vector<RecEvent> events;
    DetectorStats det;
    std::vector<Alarm> alarms;
    VmStats vm;
};

RunCapture
runOne(const CompiledProgram &prog,
       const std::vector<std::string> &inputs, const EngineCfg &cfg,
       uint64_t fuel = 50'000'000,
       const TamperSpec *tamper = nullptr)
{
    RunCapture cap;
    Vm vm(prog.mod);
    vm.setInputs(inputs);
    vm.setFuel(fuel);
    vm.setEngine(cfg.engine);
    if (tamper)
        vm.addTamper(*tamper);
    Detector det(prog);
    Recorder rec;
    vm.addObserver(&det);
    vm.addObserver(&rec);
    cap.res = vm.run();
    cap.events = std::move(rec.events);
    cap.det = det.stats();
    cap.alarms = det.alarms();
    cap.vm = vm.vmStats();
    return cap;
}

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const char *what)
{
    EXPECT_EQ(a.exit, b.exit) << what;
    EXPECT_EQ(a.exitCode, b.exitCode) << what;
    EXPECT_EQ(a.output, b.output) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.inputEventCount, b.inputEventCount) << what;
    EXPECT_EQ(a.inputEventPcs, b.inputEventPcs) << what;
    EXPECT_EQ(a.branchTrace, b.branchTrace) << what;
    EXPECT_EQ(a.trapMessage, b.trapMessage) << what;
    ASSERT_EQ(a.faultTampers.size(), b.faultTampers.size()) << what;
    for (size_t i = 0; i < a.faultTampers.size(); i++) {
        const TamperRecord &x = a.faultTampers[i];
        const TamperRecord &y = b.faultTampers[i];
        EXPECT_EQ(x.addr, y.addr) << what;
        EXPECT_EQ(x.oldBytes, y.oldBytes) << what;
        EXPECT_EQ(x.newBytes, y.newBytes) << what;
    }
}

void
expectSameDetector(const RunCapture &a, const RunCapture &b,
                   const char *what)
{
    EXPECT_EQ(a.det.branchesSeen, b.det.branchesSeen) << what;
    EXPECT_EQ(a.det.checksEnqueued, b.det.checksEnqueued) << what;
    EXPECT_EQ(a.det.updatesApplied, b.det.updatesApplied) << what;
    EXPECT_EQ(a.det.actionsApplied, b.det.actionsApplied) << what;
    EXPECT_EQ(a.det.framesPushed, b.det.framesPushed) << what;
    EXPECT_EQ(a.det.maxStackDepth, b.det.maxStackDepth) << what;
    ASSERT_EQ(a.alarms.size(), b.alarms.size()) << what;
    for (size_t i = 0; i < a.alarms.size(); i++) {
        EXPECT_EQ(a.alarms[i].func, b.alarms[i].func) << what;
        EXPECT_EQ(a.alarms[i].pc, b.alarms[i].pc) << what;
        EXPECT_EQ(a.alarms[i].actualTaken, b.alarms[i].actualTaken)
            << what;
        EXPECT_EQ(a.alarms[i].branchIndex, b.alarms[i].branchIndex)
            << what;
    }
}

void
expectAllEqual(const CompiledProgram &prog,
               const std::vector<std::string> &inputs,
               uint64_t fuel = 50'000'000,
               const TamperSpec *tamper = nullptr)
{
    RunCapture golden = runOne(prog, inputs, kConfigs[0], fuel,
                               tamper);
    for (size_t c = 1; c < std::size(kConfigs); c++) {
        RunCapture got = runOne(prog, inputs, kConfigs[c], fuel,
                                tamper);
        const char *what = kConfigs[c].name;
        expectSameResult(golden.res, got.res, what);
        expectSameDetector(golden, got, what);
        ASSERT_EQ(golden.events.size(), got.events.size()) << what;
        for (size_t i = 0; i < golden.events.size(); i++)
            ASSERT_TRUE(golden.events[i] == got.events[i])
                << what << ": event stream diverges at index " << i;
        // Instruction counts agree regardless of engine; batching is
        // a delivery detail, never an execution one.
        EXPECT_EQ(golden.vm.instructions, got.vm.instructions)
            << what;
    }
}

// ---------------------------------------------------------------------
// Workload corpus: the paper's ten servers, benign and tampered.
// ---------------------------------------------------------------------

class WorkloadDiff : public ::testing::TestWithParam<std::string>
{
  protected:
    const Workload &wl() const { return workloadByName(GetParam()); }
};

TEST_P(WorkloadDiff, BenignRunIdentical)
{
    CompiledProgram prog = compileAndAnalyze(wl().source, wl().name);
    expectAllEqual(prog, wl().benignInputs);
}

TEST_P(WorkloadDiff, TamperedRunIdentical)
{
    CompiledProgram prog = compileAndAnalyze(wl().source, wl().name);
    // Several distinct tamper points: detector verdicts (alarm or
    // not) must agree exactly across engines either way.
    for (uint32_t atk = 0; atk < 4; atk++) {
        TamperSpec spec;
        spec.afterInputEvent = 1 + atk;
        spec.randomStackTarget = true;
        spec.seed = 1000 + atk * 77;
        expectAllEqual(prog, wl().benignInputs, 500'000, &spec);
    }
}

TEST_P(WorkloadDiff, FuelCapIdentical)
{
    CompiledProgram prog = compileAndAnalyze(wl().source, wl().name);
    // Cap fuel mid-run: both engines must stop at exactly the cap
    // with identical partial traces.
    RunCapture full = runOne(prog, wl().benignInputs, kConfigs[0]);
    uint64_t cap = full.res.steps / 2 + 1;
    RunCapture golden =
        runOne(prog, wl().benignInputs, kConfigs[0], cap);
    EXPECT_EQ(golden.res.exit, ExitKind::OutOfFuel);
    EXPECT_EQ(golden.res.steps, cap);
    for (size_t c = 1; c < std::size(kConfigs); c++) {
        RunCapture got =
            runOne(prog, wl().benignInputs, kConfigs[c], cap);
        expectSameResult(golden.res, got.res, kConfigs[c].name);
        expectSameDetector(golden, got, kConfigs[c].name);
    }
}

TEST_P(WorkloadDiff, TimingIdentical)
{
    // The cycle-accurate model must produce bit-identical statistics
    // whatever the engine or delivery mode: the seq-stamped request
    // ring drains detector requests at exactly the same commit points
    // either way. Every TimingStats field is compared (ring drains and
    // occupancy, check latency, spill/fill included), under Table 1
    // and under a one-entry request queue whose queue-full stalls
    // fire at the drain points.
    CompiledProgram prog = compileAndAnalyze(wl().source, wl().name);
    for (uint32_t queue : {8u, 1u}) {
        TimingStats golden;
        for (size_t c = 0; c < std::size(kConfigs); c++) {
            TimingConfig cfg;
            cfg.requestQueueSize = queue;
            CpuModel cpu(cfg);
            Vm vm(prog.mod);
            vm.setInputs(wl().benignInputs);
            vm.setEngine(kConfigs[c].engine);
            Detector det(prog);
            det.setRequestRing(&cpu.requestRing());
            vm.addObserver(&det);
            vm.addObserver(&cpu);
            RunResult r = vm.run();
            ASSERT_NE(r.exit, ExitKind::Trapped) << r.trapMessage;
            TimingStats s = cpu.stats();
            if (c == 0) {
                golden = s;
                if (queue == 1) {
                    EXPECT_GT(s.engine.queueFullStalls, 0u);
                }
                continue;
            }
            EXPECT_TRUE(s == golden)
                << kConfigs[c].name << ", requestQueueSize " << queue
                << ": cycles " << s.cycles << " vs " << golden.cycles
                << ", stalls " << s.ipdsStallCycles << " vs "
                << golden.ipdsStallCycles << ", drains "
                << s.ringDrains << " vs " << golden.ringDrains;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadDiff,
    ::testing::Values("telnetd", "wu-ftpd", "xinetd", "crond",
                      "sysklogd", "atftpd", "httpd", "sendmail",
                      "sshd", "portmap"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Fuzz corpus: the same seed range the zero-FP suite uses.
// ---------------------------------------------------------------------

class FuzzDiff : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzDiff, RandomProgramIdentical)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();
    CompiledProgram prog;
    ASSERT_NO_THROW(prog = compileAndAnalyze(src, "fuzz"))
        << "generator produced invalid MiniC:\n" << src;
    expectAllEqual(prog, gen.inputs(), 500'000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiff,
                         ::testing::Range<uint64_t>(1, 41));

// ---------------------------------------------------------------------
// Edge cases the corpora cannot pin down precisely.
// ---------------------------------------------------------------------

TEST(VmDiffEdge, StepTamperAtExactFuelBoundary)
{
    // A step-count tamper armed exactly at the fuel cap must fire in
    // every engine before the out-of-fuel exit is reported.
    const Workload &w = workloadByName("telnetd");
    CompiledProgram prog = compileAndAnalyze(w.source, w.name);
    RunCapture full = runOne(prog, w.benignInputs, kConfigs[0]);
    uint64_t cap = full.res.steps / 2 + 1;
    for (const EngineCfg &cfg : kConfigs) {
        TamperSpec spec;
        spec.atStep = cap;
        spec.randomStackTarget = true;
        spec.seed = 7;
        RunCapture got = runOne(prog, w.benignInputs, cfg, cap,
                                &spec);
        EXPECT_EQ(got.res.exit, ExitKind::OutOfFuel) << cfg.name;
        EXPECT_EQ(got.res.steps, cap) << cfg.name;
        EXPECT_EQ(got.res.faultTampers.size(), 1u) << cfg.name;
    }
}

TEST(VmDiffEdge, SwitchEngineStillSelectable)
{
    // setEngine(Switch) genuinely changes the core; the two engines
    // otherwise agree, so check the knob via an engine-visible
    // counter: only the threaded engine ever flushes event batches.
    const Workload &w = workloadByName("portmap");
    CompiledProgram prog = compileAndAnalyze(w.source, w.name);
    RunCapture sw = runOne(prog, w.benignInputs, kConfigs[0]);
    RunCapture th = runOne(prog, w.benignInputs, kConfigs[1]);
    EXPECT_EQ(sw.vm.eventBatchFlushes, 0u);
    EXPECT_GT(th.vm.eventBatchFlushes, 0u);
    EXPECT_EQ(sw.vm.instructions, th.vm.instructions);
}

} // namespace
} // namespace ipds
