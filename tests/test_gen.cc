/**
 * @file
 * Corpus-generator unit tests (src/gen):
 *
 *  - golden determinism: fixed seeds must hash to pinned FNV-1a
 *    fingerprints, forever — a generator change that shifts any byte
 *    of source, script or recipes must update the constants here
 *    consciously (and regenerate EXPERIMENTS.md numbers);
 *  - structural invariants of emitted recipes;
 *  - the workload registry (registerWorkloads / reset, duplicate
 *    rejection before any mutation);
 *  - compile-failure handling: uncompilable programs surface as
 *    recoverable FatalErrors that NAME THE SEED, never a panic, and
 *    the default sweep range compiles clean;
 *  - the shared --seed CLI helper's strict parsing.
 */

#include <gtest/gtest.h>

#include "attack/campaign.h"
#include "gen/gen.h"
#include "support/cli.h"
#include "support/diag.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

// ---- golden determinism ------------------------------------------------

/** Pinned fingerprints (source + script + recipes per seed). */
struct Golden
{
    uint64_t seed;
    uint64_t fp;
};
constexpr Golden kGolden[] = {
    {1, 0x5ad84de2743ed4efull},
    {2, 0x2630cb595a6c0bfbull},
    {3, 0x210c401acc0ab3d5ull},
    {4, 0x35302d6e6b0b0674ull},
    {7, 0xbadb96352b31049full},
};

TEST(GenGolden, FingerprintsPinned)
{
    for (const Golden &g : kGolden) {
        gen::GeneratedProgram gp = gen::generate(g.seed);
        EXPECT_EQ(gen::fingerprint(gp), g.fp)
            << "seed " << g.seed
            << ": generator output drifted — if intentional, repin "
               "the constant and refresh EXPERIMENTS.md";
    }
}

TEST(GenGolden, SameSeedSameBytes)
{
    for (uint64_t seed : {1ull, 19ull, 0xdeadbeefull}) {
        gen::GeneratedProgram a = gen::generate(seed);
        gen::GeneratedProgram b = gen::generate(seed);
        EXPECT_EQ(a.workload.source, b.workload.source);
        EXPECT_EQ(a.workload.benignInputs, b.workload.benignInputs);
        ASSERT_EQ(a.recipes.size(), b.recipes.size());
        for (size_t i = 0; i < a.recipes.size(); i++)
            EXPECT_EQ(gen::recipeToString(a.recipes[i]),
                      gen::recipeToString(b.recipes[i]));
        EXPECT_EQ(a.totalInputEvents, b.totalInputEvents);
    }
}

TEST(GenGolden, DistinctSeedsDistinctPrograms)
{
    // Not a theorem, but a collision within a tiny range would mean
    // the seed isn't actually feeding the stream.
    EXPECT_NE(gen::fingerprint(gen::generate(1)),
              gen::fingerprint(gen::generate(2)));
}

// ---- recipe structure --------------------------------------------------

TEST(GenRecipes, WellFormed)
{
    for (uint64_t seed = 1; seed <= 20; seed++) {
        gen::GeneratedProgram gp = gen::generate(seed);
        ASSERT_FALSE(gp.decisionVars.empty());
        ASSERT_GT(gp.totalInputEvents, 0u);
        size_t perKind[gen::kNumRecipeKinds] = {};
        for (const gen::AttackRecipe &r : gp.recipes) {
            perKind[static_cast<size_t>(r.kind)]++;
            ASSERT_FALSE(r.writes.empty());
            uint32_t prevEvent = 0;
            for (const gen::RecipeWrite &w : r.writes) {
                EXPECT_GE(w.afterInputEvent, 1u);
                EXPECT_LE(w.afterInputEvent, gp.totalInputEvents);
                EXPECT_GE(w.afterInputEvent, prevEvent)
                    << "writes must be ordered by trigger event";
                prevEvent = w.afterInputEvent;
            }
            switch (r.kind) {
              case gen::RecipeKind::SingleWord:
                EXPECT_EQ(r.writes.size(), 1u);
                break;
              case gen::RecipeKind::MultiWrite:
                EXPECT_GE(r.writes.size(), 2u);
                for (const gen::RecipeWrite &w : r.writes)
                    EXPECT_EQ(w.afterInputEvent,
                              r.writes[0].afterInputEvent)
                        << "multi-write lands at ONE event";
                break;
              case gen::RecipeKind::DecisionChain:
                EXPECT_GE(r.writes.size(), 2u);
                for (size_t i = 1; i < r.writes.size(); i++)
                    EXPECT_GT(r.writes[i].afterInputEvent,
                              r.writes[i - 1].afterInputEvent)
                        << "chain events strictly increase";
                for (const gen::RecipeWrite &w : r.writes) {
                    bool isDecision = false;
                    for (const std::string &v : gp.decisionVars)
                        isDecision |= v == w.var;
                    EXPECT_TRUE(isDecision)
                        << w.var << " is not a decision variable";
                }
                break;
            }
        }
        // Default config: 9 recipes, 3 per kind.
        EXPECT_EQ(gp.recipes.size(), 9u);
        for (size_t k = 0; k < gen::kNumRecipeKinds; k++)
            EXPECT_EQ(perKind[k], 3u);
    }
}

TEST(GenRecipes, WritesResolveToEntryLocals)
{
    gen::GeneratedProgram gp = gen::generate(11);
    CompiledProgram prog = gen::compileGenerated(gp);
    Vm vm(prog.mod);
    for (const gen::AttackRecipe &r : gp.recipes) {
        std::vector<TamperSpec> specs = gen::recipeSpecs(vm, r);
        ASSERT_EQ(specs.size(), r.writes.size());
        for (size_t i = 0; i < specs.size(); i++) {
            EXPECT_FALSE(specs[i].randomStackTarget);
            EXPECT_EQ(specs[i].addr,
                      vm.entryLocalAddr(r.writes[i].var));
            EXPECT_EQ(specs[i].bytes.size(), 8u);
            EXPECT_EQ(specs[i].afterInputEvent,
                      r.writes[i].afterInputEvent);
        }
    }
}

TEST(GenRecipes, RecipeToStringRoundsKindAndWrites)
{
    gen::AttackRecipe r;
    r.kind = gen::RecipeKind::MultiWrite;
    r.writes.push_back({"auth", 1, 3});
    r.writes.push_back({"state", -9, 3});
    EXPECT_EQ(gen::recipeToString(r), "multi_write:auth=1@3,state=-9@3");
    EXPECT_STREQ(gen::recipeKindName(gen::RecipeKind::SingleWord),
                 "single_word");
    EXPECT_STREQ(gen::recipeKindName(gen::RecipeKind::DecisionChain),
                 "decision_chain");
}

// ---- workload registry -------------------------------------------------

class RegistryTest : public ::testing::Test
{
  protected:
    void SetUp() override { baseline = allWorkloads().size(); }
    void TearDown() override { resetWorkloadRegistry(); }
    size_t baseline = 0;
};

TEST_F(RegistryTest, RegisterExtendsAndResetRestores)
{
    std::vector<Workload> extra = gen::corpusWorkloads(501, 503);
    registerWorkloads(extra);
    EXPECT_EQ(allWorkloads().size(), baseline + 3);
    EXPECT_EQ(workloadByName("gen-502").name, "gen-502");
    // The bundled ten stay first, in the paper's order.
    EXPECT_EQ(allWorkloads().front().name, "telnetd");

    resetWorkloadRegistry();
    EXPECT_EQ(allWorkloads().size(), baseline);
    EXPECT_THROW(workloadByName("gen-502"), FatalError);
}

TEST_F(RegistryTest, DuplicateNameRegistersNothing)
{
    std::vector<Workload> extra = gen::corpusWorkloads(601, 602);
    extra[1].name = "httpd"; // collides with a bundled workload
    EXPECT_THROW(registerWorkloads(extra), FatalError);
    // All-or-nothing: the non-colliding first entry must NOT be in.
    EXPECT_EQ(allWorkloads().size(), baseline);
    EXPECT_THROW(workloadByName("gen-601"), FatalError);
}

TEST_F(RegistryTest, IntraBatchDuplicateRejected)
{
    std::vector<Workload> extra = gen::corpusWorkloads(701, 702);
    extra[1].name = extra[0].name;
    EXPECT_THROW(registerWorkloads(extra), FatalError);
    EXPECT_EQ(allWorkloads().size(), baseline);
}

// ---- compile-failure coverage ------------------------------------------

TEST(GenCompile, SweptRangeCompilesClean)
{
    // The corpus acceptance range must stay compilable; a generator
    // edit that emits bad MiniC for any of these seeds fails here
    // with the seed in the message.
    for (uint64_t seed = 1; seed <= 60; seed++) {
        gen::GeneratedProgram gp = gen::generate(seed);
        CompiledProgram prog;
        EXPECT_NO_THROW(prog = gen::compileGenerated(gp))
            << "seed " << seed;
        EXPECT_GT(prog.stats.numCheckable, 0u)
            << "seed " << seed << " exposes no correlations";
    }
}

TEST(GenCompile, BadSourceIsRecoverableAndNamesSeed)
{
    gen::GeneratedProgram gp = gen::generate(1);
    gp.seed = 424242;
    gp.workload.source = "void main() { this is not minic";
    try {
        gen::compileGenerated(gp);
        FAIL() << "uncompilable source must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("424242"),
                  std::string::npos)
            << "diagnostic must name the seed: " << e.what();
    }
}

TEST(GenCompile, EmptySeedRangeIsFatal)
{
    EXPECT_THROW(gen::corpusWorkloads(5, 3), FatalError);
}

// ---- the shared --seed CLI helper --------------------------------------

bool
parseSeed(const char *text, uint64_t *out)
{
    cli::ArgParser args("t", "test");
    args.seedOpt("seed", out, "seed under test");
    std::string flag = "--seed=" + std::string(text);
    char prog[] = "t";
    char *argv[] = {prog, flag.data()};
    return args.parse(2, argv);
}

TEST(SeedOpt, AcceptsFullU64Range)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseSeed("7", &v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseSeed("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseSeed("18446744073709551615", &v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_TRUE(parseSeed("0x1905", &v));
    EXPECT_EQ(v, 0x1905u);
}

TEST(SeedOpt, RejectsNonSeeds)
{
    // Each of these silently parses (wraps, truncates or skips)
    // under plain strtoull — the seed kind must reject them all.
    uint64_t v = 99;
    EXPECT_FALSE(parseSeed("-1", &v));
    EXPECT_FALSE(parseSeed("+5", &v));
    EXPECT_FALSE(parseSeed(" 5", &v));
    EXPECT_FALSE(parseSeed("5x", &v));
    EXPECT_FALSE(parseSeed("", &v));
    EXPECT_FALSE(parseSeed("18446744073709551616", &v)); // 2^64
    EXPECT_EQ(v, 99u) << "failed parses must not write the dst";
}

// ---- input-event tamper trigger plumbing -------------------------------

TEST(EventTamper, SpecWithoutTriggerIsFatal)
{
    gen::GeneratedProgram gp = gen::generate(2);
    CompiledProgram prog = gen::compileGenerated(gp);
    Vm vm(prog.mod);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.addr = vm.entryLocalAddr("state");
    spec.bytes = {9, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_THROW(vm.addTamper(spec), FatalError);
}

TEST(EventTamper, FiresOnceAtNthInputEvent)
{
    gen::GeneratedProgram gp = gen::generate(2);
    CompiledProgram prog = gen::compileGenerated(gp);
    Vm vm(prog.mod);
    vm.setInputs(gp.workload.benignInputs);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 3;
    spec.addr = vm.entryLocalAddr("state");
    spec.bytes = {9, 0, 0, 0, 0, 0, 0, 0};
    vm.addTamper(spec);
    RunResult r = vm.run();
    ASSERT_EQ(r.faultTampers.size(), 1u);
    EXPECT_EQ(r.faultTampers[0].addr, spec.addr);
    EXPECT_EQ(r.faultTampers[0].newBytes, spec.bytes);
}

} // namespace
} // namespace ipds
