/**
 * @file
 * VM engine ablation: instructions/second through the full protected
 * pipeline (VM + detector attached), comparing the two engines:
 *
 *   switch    golden-reference big-switch interpreter, per-event
 *             observer delivery
 *   threaded  predecoded blocks + threaded dispatch, per-block
 *             EventBatch delivery
 *
 * Each configuration runs every workload's benign session repeatedly
 * (a fresh Vm per run, sharing one predecode handle per workload —
 * the session-per-run deployment shape; the detector is reused via
 * reset()). Configurations are interleaved within each trial and the
 * fastest trial per configuration wins, suppressing scheduler noise
 * and frequency drift.
 *
 * Before timing, each workload runs once per configuration with full
 * trace recording and the results are compared — exit state, output,
 * step count, branch stream, detector statistics and alarms — so the
 * speedup number is only reported over demonstrably equivalent
 * engines ("equivalent" in the JSON).
 *
 * Emits machine-readable JSON (instructions/sec per workload per
 * engine + speedups), default BENCH_vm.json.
 *
 * Usage: abl_vm [--repeat N] [--quick] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

struct EngineCfg
{
    const char *name;
    VmEngine engine;
};

constexpr EngineCfg kConfigs[] = {
    {"switch", VmEngine::Switch},
    {"threaded", VmEngine::Threaded},
};
constexpr size_t kNumCfg = std::size(kConfigs);

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

RunResult
runOnce(const CompiledProgram &prog,
        const std::shared_ptr<const DecodedProgram> &dec,
        const std::vector<std::string> &inputs, const EngineCfg &cfg,
        Detector &det, bool record_trace)
{
    Vm vm(prog.mod, dec);
    vm.setInputs(inputs);
    vm.setRecordTrace(record_trace);
    vm.setEngine(cfg.engine);
    det.reset();
    vm.addObserver(&det);
    return vm.run();
}

struct Row
{
    std::string name;
    uint64_t insts = 0;          ///< instructions per session
    double ips[kNumCfg] = {};    ///< instructions/sec per config
    double speedup(size_t c) const
    {
        return ips[0] > 0 ? ips[c] / ips[0] : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    uint32_t repeat = 400;
    std::string jsonPath = "BENCH_vm.json";
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--repeat") && i + 1 < argc)
            repeat = static_cast<uint32_t>(std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--quick"))
            repeat = 3;
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            jsonPath = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--repeat N] [--quick] "
                         "[--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (repeat == 0)
        repeat = 1;
    constexpr uint32_t kTrials = 5;

    setQuiet(true);
    std::printf("=== VM engine ablation: instructions/second, "
                "switch vs threaded ===\n");
    std::printf("(benign session per workload, %u runs per trial, "
                "best of %u trials, detector attached)\n\n",
                repeat, kTrials);
    std::printf("%-10s %10s %14s %14s %9s\n", "benchmark", "insts",
                "switch-i/s", "threaded-i/s", "speedup");

    std::vector<Row> rows;
    bool mismatch = false;
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        // One shared predecode per workload (the session-per-run
        // deployment shape): no per-run cache validation in the
        // timed loop, for any engine.
        auto dec = decodeModule(prog.mod);
        Detector det(prog);

        // Differential check first: all configurations must agree
        // before their relative speed means anything.
        RunResult golden;
        DetectorStats goldenStats;
        size_t goldenAlarms = 0;
        for (size_t c = 0; c < kNumCfg; c++) {
            RunResult r = runOnce(prog, dec, wl.benignInputs,
                                  kConfigs[c], det,
                                  /*record_trace=*/true);
            if (c == 0) {
                golden = std::move(r);
                goldenStats = det.stats();
                goldenAlarms = det.alarms().size();
                continue;
            }
            if (r.exit != golden.exit || r.output != golden.output ||
                r.steps != golden.steps ||
                !(r.branchTrace == golden.branchTrace) ||
                !(det.stats() == goldenStats) ||
                det.alarms().size() != goldenAlarms) {
                std::fprintf(stderr,
                             "MISMATCH: %s diverges on %s\n",
                             wl.name.c_str(), kConfigs[c].name);
                mismatch = true;
            }
        }

        // Timed runs: trace recording off (deployment configuration);
        // fuel stays at the default so no run is clipped. Configs are
        // interleaved WITHIN each trial so frequency drift and
        // scheduler noise land on both equally; best-of-trials
        // then approaches each config's true floor.
        Row row;
        row.name = wl.name;
        row.insts = golden.steps;
        double best[kNumCfg];
        std::fill(best, best + kNumCfg, 1e100);
        for (uint32_t trial = 0; trial < kTrials; trial++) {
            for (size_t c = 0; c < kNumCfg; c++) {
                auto t0 = std::chrono::steady_clock::now();
                for (uint32_t r = 0; r < repeat; r++)
                    runOnce(prog, dec, wl.benignInputs, kConfigs[c],
                            det, /*record_trace=*/false);
                best[c] = std::min(best[c], seconds(t0));
            }
        }
        for (size_t c = 0; c < kNumCfg; c++) {
            double total = double(repeat) * double(golden.steps);
            row.ips[c] = best[c] > 0 ? total / best[c] : 0;
        }
        std::printf("%-10s %10llu %14.0f %14.0f %8.2fx\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.insts),
                    row.ips[0], row.ips[1], row.speedup(1));
        rows.push_back(std::move(row));
    }

    // Geomean speedup of the threaded engine over the switch engine.
    double g = 1.0;
    for (const Row &r : rows)
        g *= r.speedup(1);
    const double geo = rows.empty() ? 0.0 : std::pow(g, 1.0 / rows.size());
    std::printf("%-10s %10s %14s %14s %8.2fx\n", "geomean", "-", "-",
                "-", geo);

    FILE *js = std::fopen(jsonPath.c_str(), "w");
    if (!js) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(js, "{\n  \"bench\": \"abl_vm\",\n"
                     "  \"repeat\": %u,\n  \"workloads\": [\n",
                 repeat);
    for (size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::fprintf(js,
                     "    {\"name\": \"%s\", \"insts\": %llu, "
                     "\"switch_ips\": %.0f, \"threaded_ips\": %.0f, "
                     "\"speedup\": %.3f}%s\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.insts),
                     r.ips[0], r.ips[1], r.speedup(1),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(js,
                 "  ],\n  \"geomean_speedup\": %.3f,\n"
                 "  \"equivalent\": %s\n}\n",
                 geo, mismatch ? "false" : "true");
    bool writeFailed = std::ferror(js) != 0;
    writeFailed |= std::fclose(js) != 0;
    if (writeFailed) {
        std::fprintf(stderr, "write to %s failed\n", jsonPath.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", jsonPath.c_str());

    return mismatch ? 1 : 0;
}
