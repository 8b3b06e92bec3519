#ifndef IPDS_TIMING_BRANCHPRED_H
#define IPDS_TIMING_BRANCHPRED_H

/**
 * @file
 * Two-level adaptive branch predictor (Table 1: "Branch predictor:
 * 2 Level"): a per-branch history table feeding a pattern table of
 * 2-bit saturating counters, plus a direct-mapped BTB whose misses on
 * taken branches also cost a redirect. bhtEntries and btbEntries are
 * powers of two (checkTimingConfig), so indexing is a mask.
 */

#include <cstdint>
#include <vector>

#include "timing/config.h"

namespace ipds {

/** The 2-level predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const TimingConfig &cfg);

    /** Predict the direction of the branch at @p pc. */
    bool predict(uint64_t pc) const;

    /**
     * Update with the resolved outcome; returns true if the
     * prediction was correct (including BTB effects for taken
     * branches).
     */
    bool update(uint64_t pc, bool taken);

    uint64_t lookups() const { return nLookup; }
    uint64_t mispredicts() const { return nMispredict; }

  private:
    uint32_t bhtIndex(uint64_t pc) const;
    uint32_t phtIndex(uint64_t pc) const;

    uint32_t bhtMask;  ///< bhtEntries - 1
    uint32_t btbMask;  ///< btbEntries - 1
    uint32_t histMask; ///< (1 << historyBits) - 1
    std::vector<uint16_t> bht; ///< history registers
    std::vector<uint8_t> pht;  ///< 2-bit counters
    std::vector<uint64_t> btb; ///< tag-only BTB
    uint64_t nLookup = 0;
    uint64_t nMispredict = 0;
};

} // namespace ipds

#endif // IPDS_TIMING_BRANCHPRED_H
