/**
 * @file
 * protect_timed: the paper's Fig. 9 path. One thread runs benign
 * sessions through Session with the Table 1 timing model (VM,
 * Detector, CpuModel with its IpdsEngine), no capture. A unit is one
 * Session::run() of one program, sized to about kUnitInstructions VM
 * instructions; a round runs every unit once, and the window runs
 * whole rounds. A round is the piece of fixed work the rates and the
 * verdict latency are taken over: its verdict is the last unit's.
 */

#include <cstdio>

#include "checks.h"
#include "obs/session.h"
#include "probe.h"
#include "spans.h"
#include "timing/config.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kGenPrograms = 4;     ///< beside the ten paper workloads
/** VM instructions per unit: the timing model, ~80% of the run, costs
 *  per instruction, so units of equal instructions take about equal
 *  time whatever their program. */
constexpr uint64_t kUnitInstructions = 100'000;
/** Generated programs run smaller units, so the seed's choice of them
 *  moves a run's figures little. */
constexpr uint64_t kGenUnitInstructions = kUnitInstructions / 4;
constexpr int kSetupRepeats = 9;
constexpr size_t kMinRounds = 110;     ///< >= 10 rounds beyond p90
constexpr size_t kReferenceSamples = 3;

struct Unit
{
    const BenchProgram *prog = nullptr;
    uint32_t sessions = 0;
    std::unique_ptr<Session> session;
    RunVerdict first; ///< the warm-up run
};

struct Setup
{
    ProgramList progs;
    std::vector<Unit> units; ///< in the run's seeded order
};

std::unique_ptr<Setup>
buildSetup(uint64_t seed)
{
    Rng rng(seed ^ kProtectSalt);
    auto s = std::make_unique<Setup>();
    for (const Workload &wl : allWorkloads())
        s->progs.push_back(buildPaperProgram(wl));
    for (uint64_t g : drawGenSeeds(rng, kGenPrograms))
        s->progs.push_back(buildGenProgram(g));
    for (const auto &p : s->progs) {
        const uint64_t perSession = std::max<uint64_t>(
            1, costOfOneSession({p.get(), {}, 1}).instructions);
        const uint64_t target =
            p->generated ? kGenUnitInstructions : kUnitInstructions;
        Unit u;
        u.prog = p.get();
        u.sessions =
            static_cast<uint32_t>((target + perSession - 1) / perSession);
        u.session = std::make_unique<Session>(Session::builder()
                                                  .program(p->prog)
                                                  .inputs(p->inputs())
                                                  .timing(table1Config())
                                                  .sessions(u.sessions)
                                                  .build());
        s->units.push_back(std::move(u));
    }
    rng.shuffle(s->units);
    return s;
}

RunVerdict
verdictOf(const Session &s)
{
    return RunVerdict{s.alarms(), s.detectorStats(), s.timingStats()};
}

/** One round before any window (allocator, caches); its verdicts are
 *  what every later run of a unit must repeat. */
void
warmUp(Setup &s)
{
    for (Unit &u : s.units) {
        u.session->run();
        u.first = verdictOf(*u.session);
    }
}

struct Window
{
    double seconds = 0;
    uint64_t events = 0;
    uint64_t sessions = 0;
    uint64_t rounds = 0;
    std::vector<double> roundMs;
    std::vector<Slice> roundEvents;   ///< per round: detector events
    std::vector<Slice> roundSessions; ///< per round: sessions
};

/** Whole rounds until @p seconds have passed and kMinRounds ran. The
 *  verdicts are checked after the window. */
Window
runWindow(Setup &s, double seconds, Outcome &out)
{
    Window w;
    std::vector<std::pair<const Unit *, RunVerdict>> verdicts;
    const Clock::time_point t0 = Clock::now();
    do {
        const double roundStart = secondsSince(t0);
        for (size_t i = 0; i < s.units.size(); i++) {
            Unit &u = s.units[i];
            {
                Span sp("session.run", i);
                u.session->run();
            }
            verdicts.emplace_back(&u, verdictOf(*u.session));
        }
        const double roundEnd = secondsSince(t0);
        w.roundMs.push_back((roundEnd - roundStart) * 1e3);
        w.roundEvents.push_back({roundStart, roundEnd, 0});
        w.roundSessions.push_back({roundStart, roundEnd, 0});
        w.rounds++;
    } while (secondsSince(t0) < seconds || w.rounds < kMinRounds);
    w.seconds = secondsSince(t0);
    for (size_t k = 0; k < verdicts.size(); k++) {
        const auto &[u, v] = verdicts[k];
        const std::string err = checkBenignUnit(u->prog->name, v, u->first);
        out.check(err);
        if (err.empty()) {
            const size_t round = k / s.units.size();
            w.events += v.det.branchesSeen;
            w.sessions += u->sessions;
            w.roundEvents[round].work += double(v.det.branchesSeen);
            w.roundSessions[round].work += double(u->sessions);
        }
    }
    return w;
}

/** The sampled oracle check: switch VM + ReferenceDetector + CpuModel
 *  against the Session on one session of a few programs. */
void
checkReference(const Setup &s, uint64_t seed, Outcome &out)
{
    Rng rng(seed ^ kProtectSalt ^ 0x5a5a);
    std::vector<size_t> idx(s.progs.size());
    for (size_t i = 0; i < idx.size(); i++)
        idx[i] = i;
    rng.shuffle(idx);
    for (size_t k = 0; k < kReferenceSamples && k < idx.size(); k++) {
        const BenchProgram &p = *s.progs[idx[k]];
        const RunVerdict fast =
            sessionVerdict(p.prog, p.inputs(), table1Config());
        const RunVerdict ref =
            referenceVerdict(p.prog, p.inputs(), table1Config());
        out.check(fast.alarms.empty()
                      ? checkSameVerdict(p.name + " reference oracle", fast,
                                         ref)
                      : p.name + ": benign session alarmed");
    }
}

void
traced(const Options &opt, Setup &s, size_t setupBegin, size_t setupEnd,
       Outcome &out)
{
    // Untraced, then traced, each for half the run; trace_overhead_pct
    // compares the two.
    spans::enable(false);
    const Window plain = runWindow(s, opt.seconds / 2, out);
    spans::enable(true);
    const size_t winBegin = spans::count();
    const Window tw = runWindow(s, opt.seconds / 2, out);
    const size_t winEnd = spans::count();
    spans::enable(false);
    const std::vector<SpanRecord> all = spans::snapshot();

    LayerBudget b;
    addPipelineSpans(all, setupBegin, setupEnd, b,
                     "set-up spans around each call");
    std::vector<const BenchProgram *> progs;
    for (const auto &p : s.progs)
        progs.push_back(p.get());
    b.set("analysis.hash_tries_per_func", hashTriesPerFunc(progs),
          "StaticStats of the programs");

    // Re-run each unit's layers alone; the window ran each unit once
    // per round, so on-path layers weigh `rounds`.
    std::vector<SetProbe> probes;
    const double rounds = double(tw.rounds);
    uint64_t checks = 0, actions = 0, vmInst = 0, vmFlush = 0;
    for (size_t i = 0; i < s.units.size(); i++) {
        const Unit &u = s.units[i];
        probes.push_back(probeSet({u.prog, {}, u.sessions},
                                  opt.workdir + "/probe.ipds"));
        const SetProbe &p = probes.back();
        out.check(p.error);
        b.addProbe(p, {rounds, rounds, rounds, 1, 1},
                   "re-run alone x units run (timing: difference of "
                   "runs); replay/serve: probe once");
        checks += p.det.checksEnqueued;
        actions += p.det.actionsApplied;
        vmInst += p.vmInstructions;
        vmFlush += p.vmFlushes;
    }
    std::vector<const SetProbe *> traces;
    for (const SetProbe &p : probes)
        traces.push_back(&p);
    probeServe(progs, traces, opt.workdir + "/probe.sock", b, out);
    b.set("serve.bytes_per_event", [&] {
        double bytes = 0, events = 0;
        for (const SetProbe &p : probes) {
            bytes += double(p.trace.size());
            events += double(p.det.branchesSeen);
        }
        return events > 0 ? bytes / events : 0;
    }(), "serve probe");

    b.set("ipds.branches", double(tw.events), "window DetectorStats");
    b.set("ipds.checks_per_branch", double(checks) * rounds / double(tw.events),
          "DetectorStats ratio");
    b.set("ipds.actions_per_branch",
          double(actions) * rounds / double(tw.events), "DetectorStats ratio");
    b.set("vm.instructions", double(vmInst) * rounds, "ipds.vm.* x rounds");
    b.set("vm.event_batch_flushes", double(vmFlush) * rounds,
          "ipds.vm.* x rounds");

    uint64_t fired = 0, tried = 0;
    for (const BenchProgram *p : progs)
        if (p->generated)
            countFiredRecipes(*p, fired, tried);
    b.set("gen.recipes_fired_ratio",
          tried ? double(fired) / double(tried) : 0,
          "each recipe of the generated programs run once");

    const double rateA = sustainedRate(plain.roundEvents);
    const double rateB = sustainedRate(tw.roundEvents);
    b.set("trace_overhead_pct", 100.0 * (1.0 - rateB / rateA),
          "events_per_s traced vs untraced window");

    const auto layers = spans::byLayer(all, winBegin, winEnd);
    std::printf("traced window: %.3f s, %llu units in %llu rounds; "
                "session.run self time %.3f s\n",
                tw.seconds, static_cast<unsigned long long>(tw.rounds * s.units.size()),
                static_cast<unsigned long long>(tw.rounds),
                layers.count("session") ? layers.at("session").selfSeconds
                                        : 0.0);
    std::printf("budget of session.run: vm %.3f s + detector %.3f s + "
                "timing model %.3f s (re-runs)\n",
                b.get("vm.run_s"), b.get("ipds.detect_s"),
                b.get("timing.model_s"));
    b.report(out);
}

} // namespace

void
runProtectTimed(const Options &opt, Outcome &out)
{
    std::unique_ptr<Setup> s;
    if (opt.trace) {
        spans::enable(true);
        const size_t begin = spans::count();
        s = buildSetup(opt.seed);
        const size_t end = spans::count();
        spans::enable(false);
        warmUp(*s);
        checkReference(*s, opt.seed, out);
        traced(opt, *s, begin, end, out);
        return;
    }

    std::vector<double> setupS;
    for (int i = 0; i < kSetupRepeats; i++) {
        s.reset();
        const Clock::time_point t0 = Clock::now();
        s = buildSetup(opt.seed);
        setupS.push_back(secondsSince(t0));
    }
    warmUp(*s);
    const Window w = runWindow(*s, opt.seconds, out);
    checkReference(*s, opt.seed, out);

    std::vector<double> roundRates;
    for (const Slice &r : w.roundEvents)
        roundRates.push_back(r.work / (r.end - r.start));
    std::printf("protect_timed: %zu programs, %llu units in %llu rounds, "
                "%.3f s window; round events/s p10 %.4g p50 %.4g p90 "
                "%.4g; round ms p50 %.4g\n",
                s->progs.size(),
                static_cast<unsigned long long>(w.rounds * s->units.size()),
                static_cast<unsigned long long>(w.rounds), w.seconds,
                percentile(roundRates, 0.1), percentile(roundRates, 0.5),
                percentile(roundRates, 0.9), percentile(w.roundMs, 0.5));
    out.add("setup_s", median(setupS), "s");
    out.add("events_per_s", sustainedRate(w.roundEvents), "1/s");
    out.add("programs_per_s", sustainedRate(w.roundSessions), "1/s");
    out.add("verdict_ms_p75", percentile(w.roundMs, 0.75), "ms");
    out.add("verdict_ms_p90", percentile(w.roundMs, 0.90), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
