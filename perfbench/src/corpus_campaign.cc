/**
 * @file
 * corpus_campaign: one thread of gen::runCorpusCampaign over a seed
 * range derived from --seed. Each seed goes generate -> compile ->
 * analyse -> predecode -> golden + 9 recipe runs under the detector,
 * so generation and compilation dominate, and the VM runs as many
 * short, freshly predecoded runs. serve, replay and timing do no work.
 */

#include <cstdio>

#include "checks.h"
#include "gen/corpus.h"
#include "probe.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kWarmSeeds = 64;   ///< the set-up campaign
constexpr int kSetupRepeats = 3;
constexpr size_t kMinSeeds = 110;     ///< >= 10 seeds beyond p90
constexpr size_t kDiffSamples = 4;    ///< gen::diffOne after the window
constexpr size_t kProbeSeeds = 8;     ///< layer re-runs in the traced run
constexpr size_t kBlockSeeds = 128;   ///< seeds per rate slice (~0.1 s)

/** First seed of the window; the kWarmSeeds before it warm up. */
uint64_t
firstSeed(uint64_t seed)
{
    Rng rng(seed ^ kCorpusSalt);
    return kWarmSeeds + 1 + rng.below(1ull << 31);
}

gen::CorpusCampaignConfig
campaignOf(uint64_t first, uint64_t last)
{
    gen::CorpusCampaignConfig cfg;
    cfg.firstSeed = first;
    cfg.lastSeed = last;
    cfg.numThreads = 1;
    return cfg;
}

struct Window
{
    double seconds = 0;
    std::vector<gen::CorpusProgramResult> programs;
    std::vector<double> seedMs;

    /** The sustained rate over consecutive blocks of kBlockSeeds
     *  seeds; @p work(i) is seed i's share of the work. */
    template <typename F>
    double
    rate(F work) const
    {
        std::vector<Slice> blocks;
        double at = 0;
        for (size_t i = 0; i + kBlockSeeds <= seedMs.size();
             i += kBlockSeeds) {
            Slice b{at, at, 0};
            for (size_t k = i; k < i + kBlockSeeds; k++) {
                b.end += seedMs[k] * 1e-3;
                b.work += work(k);
            }
            at = b.end;
            blocks.push_back(b);
        }
        return sustainedRate(blocks);
    }
};

/** One campaign call per seed, from @p first upward, until
 *  @p seconds have passed and kMinSeeds seeds ran. */
Window
runWindow(uint64_t first, double seconds)
{
    Window w;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t seed = first;; seed++) {
        const Clock::time_point a = Clock::now();
        gen::CorpusCampaignResult r =
            gen::runCorpusCampaign(campaignOf(seed, seed));
        w.seedMs.push_back(secondsSince(a) * 1e3);
        w.programs.push_back(std::move(r.programs.front()));
        if (w.programs.size() >= kMinSeeds && secondsSince(t0) >= seconds)
            break;
    }
    w.seconds = secondsSince(t0);
    return w;
}

/** Output checks: every seed compiled with zero false positives, and
 *  gen::diffOne agrees on a seeded sample of the window's seeds. */
void
checkWindow(const Window &w, uint64_t seed, const Options &opt,
            Outcome &out)
{
    for (const gen::CorpusProgramResult &p : w.programs)
        out.check(checkCorpusProgram(p));
    Rng rng(seed ^ kCorpusSalt ^ 0xd1ff);
    for (size_t i = 0; i < kDiffSamples; i++) {
        const uint64_t s = w.programs[rng.below(w.programs.size())].seed;
        out.check(checkDiff(gen::diffOne(s, opt.workdir)));
    }
}

/** One seed of the campaign, step by step with a span per call:
 *  the traced window's stand-in for gen::runCorpusCampaign. */
struct TracedSeed
{
    gen::CorpusProgramResult result;
    std::unique_ptr<BenchProgram> prog;
    DetectorStats det;
    uint64_t vmInstructions = 0;
    uint64_t vmFlushes = 0;
};

TracedSeed
tracedSeed(uint64_t seed)
{
    TracedSeed t;
    t.result.seed = seed;
    Span root("corpus.seed", seed);
    try {
        t.prog = buildGenProgram(seed);
    } catch (const FatalError &e) {
        t.result.error = e.what();
        return t;
    }
    t.result.compiled = true;
    const gen::CorpusCampaignConfig cfg = campaignOf(seed, seed);
    Span runs("corpus.runs", seed);
    std::vector<BranchEvent> golden;
    auto run = [&](const gen::AttackRecipe *recipe) {
        Vm vm(t.prog->prog.mod);
        vm.setInputs(t.prog->inputs());
        vm.setFuel(cfg.fuel);
        Detector det(t.prog->prog);
        vm.addObserver(&det);
        if (recipe)
            gen::armRecipe(vm, *recipe);
        RunResult r = vm.run();
        t.result.branchesSeen += det.stats().branchesSeen;
        t.result.totalSteps += r.steps;
        t.det.merge(det.stats());
        t.vmInstructions += vm.vmStats().instructions;
        t.vmFlushes += vm.vmStats().eventBatchFlushes;
        if (!recipe) {
            t.result.falsePositive = det.alarmed();
            t.result.goldenSteps = r.steps;
            t.result.goldenInputEvents = r.inputEventCount;
            golden = std::move(r.branchTrace);
            return;
        }
        gen::RecipeOutcome o;
        o.kind = recipe->kind;
        o.fired = r.faultTampers.size() == recipe->writes.size();
        o.cfChanged = !(r.branchTrace == golden);
        o.detected = det.alarmed();
        t.result.outcomes.push_back(o);
    };
    run(nullptr);
    for (const gen::AttackRecipe &r : t.prog->gp.recipes)
        run(&r);
    return t;
}

/** The stand-in must reach runCorpusCampaign's results. */
std::string
sameAsCampaign(const gen::CorpusProgramResult &a,
               const gen::CorpusProgramResult &b)
{
    bool same = a.compiled == b.compiled &&
        a.falsePositive == b.falsePositive &&
        a.branchesSeen == b.branchesSeen && a.totalSteps == b.totalSteps &&
        a.outcomes.size() == b.outcomes.size();
    for (size_t i = 0; same && i < a.outcomes.size(); i++)
        same = a.outcomes[i].fired == b.outcomes[i].fired &&
            a.outcomes[i].cfChanged == b.outcomes[i].cfChanged &&
            a.outcomes[i].detected == b.outcomes[i].detected;
    return same ? ""
                : strprintf("seed %llu: traced campaign differs from "
                            "gen::runCorpusCampaign",
                            static_cast<unsigned long long>(a.seed));
}

void
traced(const Options &opt, uint64_t first, Outcome &out)
{
    // Untraced, then traced, each for half the run; trace_overhead_pct
    // compares the two.
    const Window plain = runWindow(first, opt.seconds / 2);
    checkWindow(plain, opt.seed, opt, out);

    spans::enable(true);
    const size_t winBegin = spans::count();
    std::vector<TracedSeed> seeds;
    Window tw; // per-seed times of the traced window
    uint64_t hashTries = 0, funcs = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t seed = first;; seed++) {
        const Clock::time_point a = Clock::now();
        seeds.push_back(tracedSeed(seed));
        tw.seedMs.push_back(secondsSince(a) * 1e3);
        // Keep only the programs the layer re-runs need.
        if (std::unique_ptr<BenchProgram> &p = seeds.back().prog) {
            hashTries += p->prog.stats.totalHashTries;
            funcs += p->prog.stats.numFunctions;
            if (seeds.size() > kProbeSeeds)
                p.reset();
        }
        if (seeds.size() >= kMinSeeds && secondsSince(t0) >= opt.seconds / 2)
            break;
    }
    const double tracedSeconds = secondsSince(t0);
    const size_t winEnd = spans::count();
    spans::enable(false);
    const std::vector<SpanRecord> all = spans::snapshot();

    LayerBudget b;
    addPipelineSpans(all, winBegin, winEnd, b,
                     "window spans around each call");
    DetectorStats det;
    uint64_t vmInst = 0, vmFlush = 0, fired = 0, tried = 0;
    std::vector<const BenchProgram *> progs;
    for (size_t i = 0; i < seeds.size(); i++) {
        const TracedSeed &t = seeds[i];
        out.check(checkCorpusProgram(t.result));
        if (i < plain.programs.size())
            out.check(sameAsCampaign(t.result, plain.programs[i]));
        det.merge(t.det);
        vmInst += t.vmInstructions;
        vmFlush += t.vmFlushes;
        for (const gen::RecipeOutcome &o : t.result.outcomes) {
            tried++;
            fired += o.fired ? 1 : 0;
        }
        if (t.prog)
            progs.push_back(t.prog.get());
    }
    b.set("analysis.hash_tries_per_func",
          funcs ? double(hashTries) / double(funcs) : 0,
          "StaticStats of the window's programs");
    b.set("ipds.branches", double(det.branchesSeen), "window DetectorStats");
    b.set("ipds.checks_per_branch",
          double(det.checksEnqueued) / double(det.branchesSeen),
          "DetectorStats ratio");
    b.set("ipds.actions_per_branch",
          double(det.actionsApplied) / double(det.branchesSeen),
          "DetectorStats ratio");
    b.set("vm.instructions", double(vmInst), "VmStats of the window");
    b.set("vm.event_batch_flushes", double(vmFlush), "VmStats of the window");
    b.set("gen.recipes_fired_ratio",
          tried ? double(fired) / double(tried) : 0,
          "window RecipeOutcome.fired");

    // Layer re-runs on the first kProbeSeeds programs: golden and
    // every recipe, one session each. VM and detector scale to the
    // window's seed count; the off-path layers are reported as probed.
    const double scale = double(seeds.size()) / double(kProbeSeeds);
    std::vector<SetProbe> probes;
    std::vector<const SetProbe *> goldens;
    std::vector<const BenchProgram *> probed;
    probes.reserve(kProbeSeeds * 10);
    for (size_t i = 0; i < kProbeSeeds && i < progs.size(); i++) {
        const BenchProgram &p = *progs[i];
        probed.push_back(&p);
        std::vector<SessionSet> sets{{&p, {}, 1}};
        for (const gen::AttackRecipe &r : p.gp.recipes)
            sets.push_back({&p, recipeTampers(p, r), 1, kRecipeFuel});
        for (size_t k = 0; k < sets.size(); k++) {
            probes.push_back(
                probeSet(sets[k], opt.workdir + "/probe.ipds"));
            const SetProbe &sp = probes.back();
            out.check(sp.error);
            b.addProbe(sp, {scale, scale, 1, 1, 1},
                       "re-run alone on 8 seeds (vm, detect: x seeds/8)");
            if (k == 0)
                goldens.push_back(&sp);
        }
    }
    probeServe(probed, goldens, opt.workdir + "/probe.sock", b, out);
    double bytes = 0, events = 0;
    for (const SetProbe *p : goldens) {
        bytes += double(p->trace.size());
        events += double(p->det.branchesSeen);
    }
    b.set("serve.bytes_per_event", events > 0 ? bytes / events : 0,
          "serve probe");

    uint64_t eventsB = 0;
    for (const TracedSeed &t : seeds)
        eventsB += t.result.branchesSeen;
    const double rateA = plain.rate([](size_t) { return 1.0; });
    const double rateB = tw.rate([](size_t) { return 1.0; });
    b.set("trace_overhead_pct", 100.0 * (1.0 - rateB / rateA),
          "programs_per_s traced vs untraced window");

    const auto layers = spans::byLayer(all, winBegin, winEnd);
    std::printf("traced window: %.3f s, %zu seeds, %llu events; self "
                "time per layer:",
                tracedSeconds, seeds.size(),
                static_cast<unsigned long long>(eventsB));
    for (const auto &[layer, t] : layers)
        std::printf(" %s %.3f s", layer.c_str(), t.selfSeconds);
    std::printf("\n");
    b.report(out);
}

} // namespace

void
runCorpusCampaign(const Options &opt, Outcome &out)
{
    const uint64_t first = firstSeed(opt.seed);
    // Set-up: the campaign over the kWarmSeeds seeds before the
    // window's range (first calls into every layer of the pipeline).
    std::vector<double> setupS;
    for (int i = 0; i < kSetupRepeats; i++) {
        const Clock::time_point t0 = Clock::now();
        gen::CorpusCampaignResult warm =
            gen::runCorpusCampaign(campaignOf(first - kWarmSeeds, first - 1));
        setupS.push_back(secondsSince(t0));
        for (const gen::CorpusProgramResult &p : warm.programs)
            out.check(checkCorpusProgram(p));
    }
    if (opt.trace) {
        traced(opt, first, out);
        return;
    }

    const Window w = runWindow(first, opt.seconds);
    checkWindow(w, opt.seed, opt, out);
    std::printf("corpus_campaign: seeds %llu..%llu (%zu) in %.3f s; seed "
                "ms p50 %.4g\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(first + w.programs.size() -
                                                1),
                w.programs.size(), w.seconds, percentile(w.seedMs, 0.5));
    out.add("setup_s", median(setupS), "s");
    out.add("events_per_s", w.rate([&](size_t i) {
        return double(w.programs[i].branchesSeen);
    }), "1/s");
    out.add("programs_per_s", w.rate([](size_t) { return 1.0; }), "1/s");
    out.add("verdict_ms_p75", percentile(w.seedMs, 0.75), "ms");
    out.add("verdict_ms_p90", percentile(w.seedMs, 0.90), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
