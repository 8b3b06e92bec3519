/**
 * @file
 * Corpus differential-fuzzing suite (`ctest -L corpus`).
 *
 * The tentpole guarantee under test: for every generated seed, every
 * independent implementation of "run this program and detect" agrees
 * bit-for-bit — switch vs threaded VM, optimized vs reference
 * detector, live capture vs trace replay, streamed ingest vs offline
 * replay. One hundred seeds run through the oracle stack per CI
 * invocation (`diffOne`, gen/corpus.h), so a divergence anywhere in
 * the engine/detector/replay/serve matrix is named by seed.
 *
 * Alongside it, the corpus-scale zero-false-positive sweep and the
 * fig7-style recipe campaign invariants (thread-count invariance,
 * per-kind accounting).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "gen/corpus.h"
#include "gen/gen.h"
#include "obs/session.h"
#include "replay/format.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/diag.h"
#include "vm/vm.h"

#include "metric_lines.h"

using namespace ipds;
using testutil::metricLines;

namespace {

std::string
tmpDirNoSlash()
{
    std::string d = testing::TempDir();
    while (!d.empty() && d.back() == '/')
        d.pop_back();
    return d;
}

/** Connect with retries — the server thread may still be binding. */
void
connectRetry(serve::Client &c, const std::string &sock)
{
    for (int i = 0;; i++) {
        try {
            c.connect(sock);
            return;
        } catch (const FatalError &) {
            if (i > 200)
                throw;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    }
}

TEST(Corpus, DifferentialHundredSeeds)
{
    const std::string dir = tmpDirNoSlash();
    uint32_t runs = 0;
    for (uint64_t seed = 1; seed <= 100; seed++) {
        gen::DiffResult dr = gen::diffOne(seed, dir);
        EXPECT_TRUE(dr.ok) << dr.firstMismatch;
        runs += dr.runsCompared;
        // diffOne leaves its round-trip traces behind; drop them.
        for (const char *tag :
             {"benign", "single_word", "multi_write",
              "decision_chain"}) {
            std::string f = dir + "/diff-" + std::to_string(seed) +
                "-" + tag + ".ipds";
            std::remove(f.c_str());
        }
        if (!dr.ok)
            break; // first divergent seed is enough to act on
    }
    // benign + 9 recipes on two engines, plus 4 capture/replay round
    // trips, per seed.
    EXPECT_GE(runs, 100u * 28u);
}

TEST(Corpus, CampaignZeroFalsePositivesOverHundredPrograms)
{
    gen::CorpusCampaignConfig cfg;
    cfg.firstSeed = 1;
    cfg.lastSeed = 100;
    cfg.numThreads = 0;
    gen::CorpusCampaignResult res = gen::runCorpusCampaign(cfg);

    ASSERT_EQ(res.numPrograms(), 100u);
    EXPECT_EQ(res.numCompiled(), 100u);
    EXPECT_EQ(res.numFalsePositives(), 0u)
        << "a benign session alarmed — the zero-FP property broke";
    EXPECT_EQ(res.attacks(), 900u);
    for (size_t k = 0; k < gen::kNumRecipeKinds; k++)
        EXPECT_EQ(res.attacksOf(static_cast<gen::RecipeKind>(k)),
                  300u);
    // The corpus must put real pressure on the detector: a majority
    // of control-flow-changing recipes detected, as in fig7.
    EXPECT_GT(res.numCfChanged(), 300u);
    EXPECT_GT(res.pctDetectedOfCf(), 50.0);
    // Decision chains target correlated variables only — they must
    // detect at least as well as the overall mix.
    EXPECT_GE(res.pctDetectedOfCfOf(gen::RecipeKind::DecisionChain) +
                  1e-9,
              res.pctDetectedOfCf());
}

TEST(Corpus, CampaignIsThreadCountInvariant)
{
    gen::CorpusCampaignConfig cfg;
    cfg.firstSeed = 1;
    cfg.lastSeed = 20;
    cfg.numThreads = 1;
    gen::CorpusCampaignResult seq = gen::runCorpusCampaign(cfg);
    cfg.numThreads = 4;
    gen::CorpusCampaignResult par = gen::runCorpusCampaign(cfg);

    ASSERT_EQ(seq.numPrograms(), par.numPrograms());
    for (uint32_t i = 0; i < seq.numPrograms(); i++) {
        const gen::CorpusProgramResult &a = seq.programs[i];
        const gen::CorpusProgramResult &b = par.programs[i];
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.falsePositive, b.falsePositive);
        EXPECT_EQ(a.goldenSteps, b.goldenSteps);
        EXPECT_EQ(a.branchesSeen, b.branchesSeen);
        ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
        for (size_t j = 0; j < a.outcomes.size(); j++) {
            EXPECT_EQ(a.outcomes[j].fired, b.outcomes[j].fired);
            EXPECT_EQ(a.outcomes[j].cfChanged,
                      b.outcomes[j].cfChanged);
            EXPECT_EQ(a.outcomes[j].detected,
                      b.outcomes[j].detected);
        }
    }
}

TEST(Corpus, ExecPlanAddTamperMatchesDirectVm)
{
    gen::GeneratedProgram gp = gen::generate(9);
    CompiledProgram prog = gen::compileGenerated(gp);
    // Pick a decision-chain recipe: several event-triggered writes.
    const gen::AttackRecipe *chain = nullptr;
    for (const gen::AttackRecipe &r : gp.recipes)
        if (r.kind == gen::RecipeKind::DecisionChain)
            chain = &r;
    ASSERT_NE(chain, nullptr);

    // Direct Vm + Detector.
    Vm vm(prog.mod);
    vm.setInputs(gp.workload.benignInputs);
    Detector det(prog);
    vm.addObserver(&det);
    gen::armRecipe(vm, *chain);
    RunResult direct = vm.run();

    // Session facade: the same recipe as ExecPlan::addTamper stack.
    ExecPlan exec;
    for (const TamperSpec &spec :
         gen::recipeSpecs(Vm(prog.mod), *chain))
        exec.addTamper(spec);
    Session s = Session::builder()
                    .program(prog)
                    .inputs(gp.workload.benignInputs)
                    .plan(std::move(exec))
                    .build();
    s.run();

    EXPECT_EQ(s.result().faultTampers.size(),
              direct.faultTampers.size());
    EXPECT_EQ(s.result().output, direct.output);
    EXPECT_TRUE(s.result().branchTrace == direct.branchTrace);
    ASSERT_EQ(s.alarms().size(), det.alarms().size());
    for (size_t i = 0; i < s.alarms().size(); i++) {
        EXPECT_EQ(s.alarms()[i].pc, det.alarms()[i].pc);
        EXPECT_EQ(s.alarms()[i].branchIndex,
                  det.alarms()[i].branchIndex);
    }
    EXPECT_TRUE(s.detectorStats() == det.stats());
}

TEST(Corpus, ServedStreamMatchesOfflineReplay)
{
    // The fourth oracle: a generated program's attacked session,
    // captured and streamed to the detection service, must produce
    // the same alarms and metric lines as offline replay of the same
    // trace.
    for (uint64_t seed : {3ull, 4ull}) {
        gen::GeneratedProgram gp = gen::generate(seed);
        CompiledProgram prog = gen::compileGenerated(gp);
        const gen::AttackRecipe *chain = nullptr;
        for (const gen::AttackRecipe &r : gp.recipes)
            if (r.kind == gen::RecipeKind::DecisionChain)
                chain = &r;
        ASSERT_NE(chain, nullptr);

        std::string path = tmpDirNoSlash() + "/corpus_serve_" +
            std::to_string(seed) + ".ipds";
        ExecPlan exec;
        for (const TamperSpec &spec :
             gen::recipeSpecs(Vm(prog.mod), *chain))
            exec.addTamper(spec);
        Session::builder()
            .program(prog)
            .inputs(gp.workload.benignInputs)
            .plan(CapturePlan(path).exec(std::move(exec)))
            .build()
            .run();

        Session off = Session::builder()
                          .program(prog)
                          .plan(ReplayPlan(path))
                          .build();
        off.run();

        serve::ServerConfig cfg;
        cfg.socketPath = tmpDirNoSlash() + "/corpus_serve_" +
            std::to_string(seed) + ".sock";
        serve::Server srv(prog, cfg);
        srv.start();
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2("corpus", replay::moduleContentHash(prog.mod));
        c.sendTraceFile(path);
        serve::StreamResult r = c.end();
        srv.stopAndJoin();

        ASSERT_TRUE(r.ok) << r.text;
        EXPECT_EQ(r.alarms, off.alarms().size());
        EXPECT_EQ(r.alarmDigest, serve::alarmDigest(off.alarms()));
        EXPECT_EQ(metricLines(r.text), metricLines(off.metricsText()));
        std::remove(path.c_str());
        std::remove(cfg.socketPath.c_str());
    }
}

} // namespace
