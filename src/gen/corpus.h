#ifndef IPDS_GEN_CORPUS_H
#define IPDS_GEN_CORPUS_H

/**
 * @file
 * Corpus-scale harnesses over generated programs (gen/gen.h):
 *
 *  - runCorpusCampaign(): the fig7-style experiment at corpus scale.
 *    For every seed in a range, run the benign golden session under
 *    the detector (zero-false-positive check), then every typed
 *    attack recipe, classifying each as fired / control-flow-changing
 *    / detected — the same outcome taxonomy as attack/campaign.h,
 *    aggregated per RecipeKind across the whole corpus.
 *
 *  - diffOne(): the differential fuzzing oracle. One seed, many
 *    independent implementations of "run this program", all required
 *    to agree bit-for-bit:
 *      (a) switch vs threaded VM engines — output, exit,
 *          steps, input events, branch trace;
 *      (b) optimized Detector vs ReferenceDetector attached to the
 *          SAME run — alarms and statistics;
 *      (c) live capture vs trace replay through the Session facade —
 *          alarms and detector statistics.
 *    Any disagreement is reported with the seed, the run and the
 *    first mismatching field, so a corpus sweep names the offending
 *    seed instead of just failing.
 *
 * Both are deterministic: results are a pure function of the config
 * (worker threads only shard independent seeds, as in runCampaign).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "gen/gen.h"

namespace ipds {
namespace gen {

/** Corpus campaign parameters. */
struct CorpusCampaignConfig
{
    uint64_t firstSeed = 1;
    uint64_t lastSeed = 100; ///< inclusive
    GenConfig gen;
    /** Instruction budget per run (tampered runs can loop forever). */
    uint64_t fuel = 2'000'000;
    /** Analysis feature switches. */
    CorrOptions corr;
    /** Worker threads over seeds (0 = one per hardware core). Seeds
     *  are independent; results are identical for any count. */
    unsigned numThreads = 1;
};

/** Classification of one recipe run (cf. AttackOutcome). */
struct RecipeOutcome
{
    RecipeKind kind = RecipeKind::SingleWord;
    bool fired = false;     ///< every scripted write landed
    bool cfChanged = false; ///< branch trace differs from golden
    bool detected = false;  ///< IPDS alarmed
};

/** Per-seed campaign result. */
struct CorpusProgramResult
{
    uint64_t seed = 0;
    bool compiled = false;
    std::string error; ///< compile diagnostic when !compiled
    bool falsePositive = false; ///< golden run alarmed (must not)
    uint64_t goldenSteps = 0;
    uint32_t goldenInputEvents = 0;
    /** Detector branches seen, summed over golden + recipe runs. */
    uint64_t branchesSeen = 0;
    /** VM instructions, summed over golden + recipe runs. */
    uint64_t totalSteps = 0;
    std::vector<RecipeOutcome> outcomes;
};

/** Whole-corpus aggregates (per RecipeKind and overall). */
struct CorpusCampaignResult
{
    std::vector<CorpusProgramResult> programs; ///< seed order

    uint32_t numPrograms() const
    {
        return static_cast<uint32_t>(programs.size());
    }
    uint32_t numCompiled() const;
    uint32_t numFalsePositives() const;

    /** Attack counts, overall and per kind. */
    uint32_t attacks() const;
    uint32_t numCfChanged() const;
    uint32_t numDetected() const;
    uint32_t attacksOf(RecipeKind k) const;
    uint32_t cfChangedOf(RecipeKind k) const;
    uint32_t detectedOf(RecipeKind k) const;

    /** Figure-7-style shares (percent; 0 when the base is empty). */
    double pctCfChanged() const;
    double pctDetected() const;
    double pctDetectedOfCf() const;
    double pctDetectedOfCfOf(RecipeKind k) const;

    uint64_t totalBranchesSeen() const;
    uint64_t totalSteps() const;
};

/**
 * Run the corpus campaign. Uncompilable seeds (which compileGenerated
 * surfaces as FatalError) are recorded per seed, not thrown.
 */
CorpusCampaignResult runCorpusCampaign(const CorpusCampaignConfig &cfg);

/** Outcome of one seed's differential check. */
struct DiffResult
{
    uint64_t seed = 0;
    bool ok = false;
    /** Human-readable description of the first disagreement —
     *  empty when ok. */
    std::string firstMismatch;
    /** VM/detector run pairs that were compared. */
    uint32_t runsCompared = 0;
};

/**
 * Differentially check one seed across every oracle (see file
 * comment): benign session plus every recipe through oracles (a) and
 * (b); benign plus the first recipe of each kind through the
 * capture/replay oracle (c), using trace files under @p tmpDir.
 * An empty @p tmpDir skips oracle (c) (no filesystem access).
 */
DiffResult diffOne(uint64_t seed, const std::string &tmpDir,
                   const GenConfig &cfg = {});

} // namespace gen
} // namespace ipds

#endif // IPDS_GEN_CORPUS_H
