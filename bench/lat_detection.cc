/**
 * @file
 * §6 detection-latency experiment: mean cycles from a branch being
 * sent to the IPDS engine until its verification completes (the paper
 * reports 11.7 cycles on average, comfortably inside a 20-stage
 * pipeline's decode-to-retire window).
 */

#include <cstdio>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "timing/cpu.h"
#include "workloads/workloads.h"

using namespace ipds;

int
main()
{
    setQuiet(true);
    std::printf("=== Detection latency: branch dispatch -> verdict "
                "===\n\n");
    std::printf("%-10s %10s %14s %14s\n", "benchmark", "checks",
                "avg-lat(cyc)", "queue-stalls");

    double sum = 0;
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        CpuModel cpu(table1Config());
        for (int s = 0; s < 100; s++) {
            Vm vm(prog.mod);
            vm.setInputs(wl.benignInputs);
            vm.setRecordTrace(false);
            Detector det(prog);
            det.setRequestRing(&cpu.requestRing());
            vm.addObserver(&det);
            vm.addObserver(&cpu);
            vm.run();
        }
        EngineStats es = cpu.stats().engine;
        double lat = es.avgCheckLatency();
        sum += lat;
        std::printf("%-10s %10llu %14.2f %14llu\n", wl.name.c_str(),
                    static_cast<unsigned long long>(
                        es.checkLatencyCount),
                    lat,
                    static_cast<unsigned long long>(
                        es.queueFullStalls));
    }
    std::printf("%-10s %10s %14.2f\n", "average", "-",
                sum / allWorkloads().size());
    std::printf("\npaper average: 11.7 cycles (checks complete before "
                "retirement in a >20-stage pipeline)\n");
    return 0;
}
