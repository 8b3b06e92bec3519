/**
 * @file
 * Trace replay ablation: detection events/second (committed branches
 * through the detector) for three ways of driving the same stream:
 *
 *   live_switch    golden-reference interpreter + detector
 *   live_threaded  threaded+batched engine + detector (deployment)
 *   replay         ReplayEngine over a recorded trace — no VM at all
 *
 * This is the tentpole's wire-speed claim in one number: once a
 * stream is recorded, re-detecting it costs varint decode plus the
 * detector hot path, not interpretation. Each workload records a
 * multi-session trace (repeat benign sessions) once through a
 * CapturePlan; the live drivers then execute the same session stream
 * VM-by-VM while the replay driver decodes the whole trace in one
 * pass — the deployment shape on both sides. Configurations
 * interleave within each trial, and each driver's rate is its events
 * over its time summed across every trial (a whole-window rate).
 *
 * Before timing, the capture is replayed through a ReplayPlan and
 * through every live engine, and alarms + DetectorStats are
 * compared — the speedup is only reported over demonstrably
 * equivalent drivers ("equivalent" in the JSON).
 *
 * The parallel sweep (--par-threads, default 1,2,4,8; the 1-worker
 * point is always run, as the baseline) replays the same trace
 * through ReplayPlan::parallel(N) — the v2 chunk-index fan-out — and
 * reports, for each worker count, events/s as the mean over trials,
 * per-worker events/s, and the scaling events/s(N) ÷ events/s(1).
 * The geomean of that scaling over workloads is reported per worker
 * count, so a fan-out that costs more than it gains reads below
 * 1.00x. An embedded sequential-vs-parallel equivalence check
 * (alarms + DetectorStats bit-identical) gates the numbers.
 *
 * Emits machine-readable JSON (events/sec per workload per driver +
 * replay speedups + the parallel sweep), default BENCH_replay.json.
 *
 * Usage: abl_replay [--repeat N] [--quick] [--par-threads CSV]
 *                   [--json PATH]
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
#include "obs/names.h"
#include "obs/session.h"
#include "replay/reader.h"
#include "replay/replay.h"
#include "support/diag.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
sameAlarms(const std::vector<Alarm> &a, const std::vector<Alarm> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++)
        if (a[i].pc != b[i].pc || a[i].func != b[i].func ||
            a[i].branchIndex != b[i].branchIndex)
            return false;
    return true;
}

void
runLive(const CompiledProgram &prog,
        const std::shared_ptr<const DecodedProgram> &dec,
        const std::vector<std::string> &inputs, VmEngine engine,
        Detector &det)
{
    Vm vm(prog.mod, dec);
    vm.setInputs(inputs);
    vm.setRecordTrace(false);
    vm.setEngine(engine);
    det.reset();
    vm.addObserver(&det);
    vm.run();
}

struct ParPoint
{
    unsigned workers = 1;
    double eps = 0;     ///< mean replay events/s over the trials
    double scaling = 0; ///< eps ÷ the 1-worker point's eps
};

struct Row
{
    std::string name;
    uint64_t events = 0; ///< committed branches per session
    double epsSwitch = 0, epsThreaded = 0, epsReplay = 0;
    std::vector<ParPoint> par;
};

} // namespace

int
main(int argc, char **argv)
{
    uint32_t repeat = 200;
    uint32_t trials = 5;
    std::string jsonPath = "BENCH_replay.json";
    std::vector<unsigned> parSweep = {1, 2, 4, 8};
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--repeat") && i + 1 < argc)
            repeat = static_cast<uint32_t>(std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--quick")) {
            repeat = 3;
            trials = 2;
        } else if (!std::strcmp(argv[i], "--par-threads") &&
                   i + 1 < argc) {
            parSweep.clear();
            for (const char *p = argv[++i]; *p;) {
                unsigned w = static_cast<unsigned>(std::strtoul(
                    p, const_cast<char **>(&p), 10));
                if (w)
                    parSweep.push_back(w);
                if (*p == ',')
                    p++;
                else
                    break;
            }
            if (parSweep.empty()) {
                std::fprintf(stderr,
                             "--par-threads wants e.g. 1,2,4,8\n");
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            jsonPath = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: %s [--repeat N] [--quick] "
                         "[--par-threads CSV] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (repeat == 0)
        repeat = 1;
    // Scaling is relative to one worker, so that point always runs.
    if (std::find(parSweep.begin(), parSweep.end(), 1u) ==
        parSweep.end())
        parSweep.insert(parSweep.begin(), 1u);

    setQuiet(true);
    std::printf("=== Trace replay ablation: detection events/second, "
                "live VM vs recorded-trace replay ===\n");
    std::printf("(benign session per workload, %u runs per trial, "
                "total over %u trials)\n\n",
                repeat, trials);
    std::printf("%-10s %9s %14s %15s %14s %9s\n", "benchmark",
                "events", "switch-e/s", "threaded-e/s", "replay-e/s",
                "speedup");

    std::vector<Row> rows;
    bool mismatch = false;
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        auto dec = decodeModule(prog.mod);
        Detector det(prog);

        // Record the whole repeat-session stream once through the
        // public facade; the trace is the replay driver's input and
        // the equivalence oracle's pivot.
        std::string tracePath = "abl_replay_" + wl.name + ".trc";
        Session live = Session::builder()
                           .program(prog)
                           .inputs(wl.benignInputs)
                           .sessions(repeat)
                           .plan(CapturePlan(tracePath))
                           .build();
        live.run();

        Session rep = Session::builder()
                          .program(prog)
                          .plan(ReplayPlan(tracePath))
                          .build();
        rep.run();
        if (!(rep.detectorStats() == live.detectorStats()) ||
            !sameAlarms(rep.alarms(), live.alarms())) {
            std::fprintf(stderr, "MISMATCH: %s replay diverges\n",
                         wl.name.c_str());
            mismatch = true;
        }

        // The live engines must agree with each other too (the
        // capture itself ran on the default threaded engine).
        DetectorStats switchStats;
        size_t switchAlarms = 0;
        for (VmEngine e : {VmEngine::Switch, VmEngine::Threaded}) {
            runLive(prog, dec, wl.benignInputs, e, det);
            if (e == VmEngine::Switch) {
                switchStats = det.stats();
                switchAlarms = det.alarms().size();
            } else if (!(det.stats() == switchStats) ||
                       det.alarms().size() != switchAlarms) {
                std::fprintf(stderr,
                             "MISMATCH: %s diverges across live "
                             "engines\n",
                             wl.name.c_str());
                mismatch = true;
            }
        }

        replay::TraceFile file = replay::TraceFile::load(tracePath);
        replay::ReplayEngine eng(file, prog);

        // Timed loops, interleaved within each trial: the live
        // drivers execute the repeat sessions VM-by-VM, the replay
        // driver decodes the whole recorded stream in one pass.
        double secs[3] = {0, 0, 0};
        for (uint32_t trial = 0; trial < trials; trial++) {
            auto t0 = std::chrono::steady_clock::now();
            for (uint32_t r = 0; r < repeat; r++)
                runLive(prog, dec, wl.benignInputs, VmEngine::Switch,
                        det);
            secs[0] += seconds(t0);

            t0 = std::chrono::steady_clock::now();
            for (uint32_t r = 0; r < repeat; r++)
                runLive(prog, dec, wl.benignInputs,
                        VmEngine::Threaded, det);
            secs[1] += seconds(t0);

            t0 = std::chrono::steady_clock::now();
            replay::ReplayShardResult out;
            eng.replayShard(0, out);
            secs[2] += seconds(t0);
        }

        Row row;
        row.name = wl.name;
        row.events = live.detectorStats().branchesSeen / repeat;
        double total =
            double(live.detectorStats().branchesSeen) * trials;
        row.epsSwitch = secs[0] > 0 ? total / secs[0] : 0;
        row.epsThreaded = secs[1] > 0 ? total / secs[1] : 0;
        row.epsReplay = secs[2] > 0 ? total / secs[2] : 0;
        std::printf("%-10s %9llu %14.0f %15.0f %14.0f %8.2fx\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.events),
                    row.epsSwitch, row.epsThreaded, row.epsReplay,
                    row.epsThreaded > 0
                        ? row.epsReplay / row.epsThreaded
                        : 0.0);

        // Parallel sweep over the v2 chunk index. The session's own
        // events_per_sec gauge times just the replay section (load
        // excluded), the same window as the sequential loop above;
        // every trial counts toward the point's mean, and every
        // parallel run is equivalence-checked against the sequential
        // replay before its number counts.
        for (unsigned w : parSweep) {
            ParPoint pt;
            pt.workers = w;
            for (uint32_t trial = 0; trial < trials; trial++) {
                Session par =
                    Session::builder()
                        .program(prog)
                        .plan(ReplayPlan(tracePath).parallel(w))
                        .build();
                par.run();
                if (!(par.detectorStats() == rep.detectorStats()) ||
                    !sameAlarms(par.alarms(), rep.alarms())) {
                    std::fprintf(stderr,
                                 "MISMATCH: %s parallel(%u) diverges "
                                 "from sequential replay\n",
                                 wl.name.c_str(), w);
                    mismatch = true;
                }
                const obs::MetricsRegistry &m = par.metrics();
                pt.eps += double(m.value(m.find(
                              obs::names::kReplayEventsPerSec))) /
                    trials;
            }
            row.par.push_back(pt);
        }
        double base = 0;
        for (const ParPoint &p : row.par)
            if (p.workers == 1)
                base = p.eps;
        for (ParPoint &p : row.par) {
            p.scaling = base > 0 ? p.eps / base : 0;
            std::printf("  par %2uw %36.0f e/s %13.0f e/s/w %6.2fx\n",
                        p.workers, p.eps, p.eps / p.workers,
                        p.scaling);
        }
        std::remove(tracePath.c_str());
        rows.push_back(std::move(row));
    }

    // Geomean replay speedup against each live driver; the headline
    // number is vs the deployment engine (threaded+batched).
    double geoVsSwitch = 1.0, geoVsThreaded = 1.0;
    for (const Row &r : rows) {
        geoVsSwitch *=
            r.epsSwitch > 0 ? r.epsReplay / r.epsSwitch : 1.0;
        geoVsThreaded *=
            r.epsThreaded > 0 ? r.epsReplay / r.epsThreaded : 1.0;
    }
    if (!rows.empty()) {
        geoVsSwitch = std::pow(geoVsSwitch, 1.0 / rows.size());
        geoVsThreaded = std::pow(geoVsThreaded, 1.0 / rows.size());
    }
    std::printf("%-10s %9s %14s %15s %14s %8.2fx\n", "geomean", "-",
                "-", "-", "-", geoVsThreaded);

    // Parallel scaling per worker count: the geomean over workloads
    // of events/s(N) ÷ events/s(1), each the mean over trials.
    std::vector<double> geoPar(parSweep.size(), 1.0);
    for (size_t j = 0; j < parSweep.size(); j++) {
        size_t n = 0;
        for (const Row &r : rows)
            if (r.par[j].scaling > 0) {
                geoPar[j] *= r.par[j].scaling;
                n++;
            }
        geoPar[j] = n ? std::pow(geoPar[j], 1.0 / n) : 0;
        std::printf("%-10s parallel scaling geomean %2uw %8.2fx\n",
                    "geomean", parSweep[j], geoPar[j]);
    }

    FILE *js = std::fopen(jsonPath.c_str(), "w");
    if (!js) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(js, "{\n  \"bench\": \"abl_replay\",\n"
                     "  \"repeat\": %u,\n  \"workloads\": [\n",
                 repeat);
    for (size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::fprintf(
            js,
            "    {\"name\": \"%s\", \"events\": %llu, "
            "\"live_switch_eps\": %.0f, \"live_threaded_eps\": %.0f, "
            "\"replay_eps\": %.0f, \"speedup\": %.3f,\n"
            "     \"parallel\": [",
            r.name.c_str(),
            static_cast<unsigned long long>(r.events), r.epsSwitch,
            r.epsThreaded, r.epsReplay,
            r.epsThreaded > 0 ? r.epsReplay / r.epsThreaded : 0.0);
        for (size_t j = 0; j < r.par.size(); j++)
            std::fprintf(js,
                         "{\"workers\": %u, \"eps\": %.0f, "
                         "\"eps_per_worker\": %.0f, "
                         "\"scaling\": %.3f}%s",
                         r.par[j].workers, r.par[j].eps,
                         r.par[j].eps / r.par[j].workers,
                         r.par[j].scaling,
                         j + 1 < r.par.size() ? ", " : "");
        std::fprintf(js, "]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(js,
                 "  ],\n  \"geomean_speedup_vs_switch\": %.3f,\n"
                 "  \"geomean_speedup\": %.3f,\n"
                 "  \"geomean_parallel_scaling\": [",
                 geoVsSwitch, geoVsThreaded);
    for (size_t j = 0; j < parSweep.size(); j++)
        std::fprintf(js, "{\"workers\": %u, \"scaling\": %.3f}%s",
                     parSweep[j], geoPar[j],
                     j + 1 < parSweep.size() ? ", " : "");
    std::fprintf(js, "],\n  \"equivalent\": %s\n}\n",
                 mismatch ? "false" : "true");
    bool writeFailed = std::ferror(js) != 0;
    writeFailed |= std::fclose(js) != 0;
    if (writeFailed) {
        std::fprintf(stderr, "write to %s failed\n",
                     jsonPath.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", jsonPath.c_str());

    return mismatch ? 1 : 0;
}
