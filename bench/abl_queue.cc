/**
 * @file
 * §5.4 design-claim ablation: the request queue keeps up with the
 * commit rate and the 2K/1K/32K-bit on-chip table buffers suffice.
 * Sweeps the queue capacity and the BAT stack buffer size and reports
 * the resulting program slowdown and spill traffic.
 */

#include <cstdio>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "timing/cpu.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

TimingStats
simulate(const CompiledProgram &prog,
         const std::vector<std::string> &inputs,
         const TimingConfig &cfg, int sessions)
{
    CpuModel cpu(cfg);
    for (int s = 0; s < sessions; s++) {
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        vm.setRecordTrace(false);
        Detector det(prog);
        if (cfg.ipdsEnabled) {
            det.setRequestRing(&cpu.requestRing());
            vm.addObserver(&det);
        }
        vm.addObserver(&cpu);
        vm.run();
    }
    return cpu.stats();
}

} // namespace

int
main()
{
    setQuiet(true);
    const int kSessions = 100;
    // sendmail has the densest BAT lists; telnetd the deepest calls.
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

    TimingConfig base = table1Config();
    base.ipdsEnabled = false;
    uint64_t baseCycles =
        simulate(prog, wl.benignInputs, base, kSessions).cycles;

    std::printf("=== Ablation: request queue depth (§5.4), workload "
                "sendmail ===\n\n");
    std::printf("%8s %12s %10s %14s %14s\n", "queue", "cycles",
                "degr(%)", "full-events", "stall-cycles");
    for (uint32_t q : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        TimingConfig cfg = table1Config();
        cfg.requestQueueSize = q;
        TimingStats st =
            simulate(prog, wl.benignInputs, cfg, kSessions);
        std::printf("%8u %12llu %10.3f %14llu %14llu\n", q,
                    static_cast<unsigned long long>(st.cycles),
                    100.0 * (double(st.cycles) - double(baseCycles)) /
                        double(baseCycles),
                    static_cast<unsigned long long>(
                        st.engine.queueFullStalls),
                    static_cast<unsigned long long>(
                        st.engine.stallCycles));
    }

    // The server workloads have shallow call chains, so the spill
    // sweep uses a synthetic program with a 24-deep active call chain
    // of branchy functions — the stress case for the table stacks.
    std::string deep;
    deep += "void leaf(int x) { int j; j = 0;"
            " while (j < 3) { if (j < x) { print_int(j); } j = j + 1; } }\n";
    for (int d = 23; d >= 0; d--) {
        std::string callee =
            d == 23 ? "leaf" : strprintf("f%d", d + 1);
        deep += strprintf(
            "void f%d(int x) { int k; k = 0; if (x > 0) { k = 1; }\n"
            "  if (k == 1) { %s(x - 1); } else { %s(x); }\n"
            "  if (k > 1) { print_str(\"corrupt\\n\"); } }\n",
            d, callee.c_str(), callee.c_str());
    }
    deep += "void main() { int r; r = 0; while (r < 20) "
            "{ f0(input_int()); r = r + 1; } }\n";
    std::vector<std::string> deepInputs(20, "7");
    CompiledProgram deepProg = compileAndAnalyze(deep, "deepcalls");

    TimingConfig deepBase = table1Config();
    deepBase.ipdsEnabled = false;
    uint64_t deepBaseCycles =
        simulate(deepProg, deepInputs, deepBase, kSessions).cycles;

    std::printf("\n=== Ablation: on-chip table stack buffers "
                "(24-deep call chain; BSV/BCV/BAT\n    scaled "
                "together at the Table 1 2:1:32 ratio; queue widened "
                "to isolate spills) ===\n\n");
    std::printf("%10s %12s %10s %14s %14s\n", "BAT-bits", "cycles",
                "degr(%)", "spill-events", "spill-bits");
    for (uint32_t bits : {256u, 512u, 1024u, 2048u, 4096u, 8192u,
                          32768u}) {
        TimingConfig cfg = table1Config();
        cfg.batStackBits = bits;
        cfg.bsvStackBits = std::max(64u, bits / 16);
        cfg.bcvStackBits = std::max(32u, bits / 32);
        cfg.requestQueueSize = 64;
        TimingStats st = simulate(deepProg, deepInputs, cfg, kSessions);
        std::printf("%10u %12llu %10.3f %14llu %14llu\n", bits,
                    static_cast<unsigned long long>(st.cycles),
                    100.0 * (double(st.cycles) -
                             double(deepBaseCycles)) /
                        double(deepBaseCycles),
                    static_cast<unsigned long long>(
                        st.engine.spillEvents),
                    static_cast<unsigned long long>(
                        st.engine.spillBits));
    }
    std::printf("\n(claim: at the Table 1 configuration — BAT 32K "
                "bits — the active call chain\n fits on chip and "
                "spill traffic is zero; only pathologically small "
                "buffers pay a\n visible cost. The residual plateau "
                "is engine-throughput-bound: this stress\n case is "
                "100%% protected branchy code with no library time "
                "to hide behind,\n unlike the server workloads of "
                "Figure 9.)\n");
    return 0;
}
