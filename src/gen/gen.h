#ifndef IPDS_GEN_GEN_H
#define IPDS_GEN_GEN_H

/**
 * @file
 * Seeded MiniC workload & attack corpus generator.
 *
 * The ten hand-written server workalikes (src/workloads) cap scenario
 * diversity: every coverage and equivalence claim rests on the same
 * ten programs. This subsystem turns one u64 seed into a complete
 * synthetic server — a MiniC program with a protocol-style state
 * machine, authentication/privilege flag locals, bounded recursion,
 * global-table data flow and a multi-request session loop — plus a
 * benign session script and a set of typed attack recipes.
 *
 * Everything is a pure function of the seed: the same seed yields
 * byte-identical source, script and recipes on every platform (the
 * golden-fingerprint test in tests/test_gen.cc pins this). Generated
 * programs are exposed as ipds::Workload values, so every existing
 * harness — fig7 campaigns, fault injection, capture/replay, serve
 * ingest — consumes them through the workload registry with zero
 * changes to its core:
 *
 *   gen::GeneratedProgram gp = gen::generate(7);
 *   registerWorkloads({&gp.workload, 1});      // joins allWorkloads()
 *
 * Attack recipes go beyond the campaign's single random poke
 * (attack/campaign.h) into the data-only-attack models of the CFI
 * and fault-attack literature (PAPERS.md):
 *
 *   - SingleWord:     one 8-byte write at one input event;
 *   - MultiWrite:     2-4 writes landing at the SAME input event
 *                     (one exploit payload hitting several locals);
 *   - DecisionChain:  2-3 writes at increasing input events, each
 *                     targeting a decision variable (auth, privilege
 *                     level, protocol state) — a staged escalation.
 *
 * Recipes name entry-function locals; armRecipe() resolves them
 * through Vm::entryLocalAddr and arms them via Vm::addTamper, whose
 * input-event triggers fire in the engine-shared builtin path — so a
 * recipe run is bit-identical across the switch and threaded engines
 * (the differential harness in src/gen/corpus.h proves it per seed).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace gen {

/** Attack-recipe taxonomy (see file comment). */
enum class RecipeKind : uint8_t
{
    SingleWord,
    MultiWrite,
    DecisionChain,
};

/** Number of RecipeKind values (aggregation arrays). */
inline constexpr size_t kNumRecipeKinds = 3;

/** Stable lower-case name of @p k ("single_word", ...). */
const char *recipeKindName(RecipeKind k);

/** One scripted write: set entry-function local @p var to @p value
 *  when the @p afterInputEvent-th input event commits. */
struct RecipeWrite
{
    std::string var;
    int64_t value = 0;
    uint32_t afterInputEvent = 1;
};

/** One typed attack against a generated program. */
struct AttackRecipe
{
    RecipeKind kind = RecipeKind::SingleWord;
    /** Ordered by afterInputEvent (ties: recipe order). */
    std::vector<RecipeWrite> writes;
};

/** Canonical one-line text form ("multi_write:auth=1@3,state=9@3").
 *  Feeds the fingerprint, reports and the ipds_gen --emit files. */
std::string recipeToString(const AttackRecipe &r);

/** Generator knobs. The defaults are the pinned corpus shape —
 *  change them and the golden fingerprints change with them. */
struct GenConfig
{
    /** Attack recipes per program, split evenly across the three
     *  kinds (remainder goes to the earlier kinds). */
    uint32_t recipesPerProgram = 9;
};

/** One generated program: workload + recipes + targeting metadata. */
struct GeneratedProgram
{
    uint64_t seed = 0;
    /** name "gen-<seed>"; source, benign script inside. */
    Workload workload;
    std::vector<AttackRecipe> recipes;
    /** Entry-function locals that carry control decisions (protocol
     *  state, auth flags, privilege level, quotas) — what
     *  DecisionChain recipes target. */
    std::vector<std::string> decisionVars;
    /** Input events the benign script produces (recipe triggers are
     *  within [1, totalInputEvents]). */
    uint32_t totalInputEvents = 0;
};

/** Generate the program for @p seed. Pure and deterministic. */
GeneratedProgram generate(uint64_t seed, const GenConfig &cfg = {});

/**
 * Compile-and-analyze gp.workload.source. Any frontend or analysis
 * failure — including internal PanicErrors — surfaces as a
 * recoverable FatalError naming the seed, so corpus sweeps report
 * "seed N is uncompilable" instead of dying.
 */
CompiledProgram compileGenerated(const GeneratedProgram &gp,
                                 const CorrOptions &opts = {});

/**
 * FNV-1a fingerprint over the emitted source, the benign session
 * script and the canonical recipe lines — the value the golden
 * determinism test pins per seed.
 */
uint64_t fingerprint(const GeneratedProgram &gp);

/** The recipe's writes as explicit-address TamperSpecs resolved
 *  against @p vm's entry-frame layout (Vm::entryLocalAddr). */
std::vector<TamperSpec> recipeSpecs(const Vm &vm,
                                    const AttackRecipe &r);

/** Arm every write of @p r on @p vm via Vm::addTamper. */
void armRecipe(Vm &vm, const AttackRecipe &r);

/**
 * Workload values for the inclusive seed range [first, last] — feed
 * them to registerWorkloads() and every registry-driven harness
 * (fig7_detection --gen-seeds, fault sweeps) picks them up.
 * FatalError when first > last.
 */
std::vector<Workload> corpusWorkloads(uint64_t first, uint64_t last,
                                      const GenConfig &cfg = {});

} // namespace gen
} // namespace ipds

#endif // IPDS_GEN_GEN_H
