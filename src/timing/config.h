#ifndef IPDS_TIMING_CONFIG_H
#define IPDS_TIMING_CONFIG_H

/**
 * @file
 * Timing-model configuration, defaulting to Table 1 of the paper
 * ("Default Parameters of the Processor Simulated").
 */

#include <cstdint>
#include <optional>
#include <string>

namespace ipds {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    uint32_t sizeBytes = 0;
    uint32_t ways = 1;
    uint32_t blockBytes = 32;
    uint32_t latency = 1;
};

/** Full processor + IPDS hardware configuration. */
struct TimingConfig
{
    // Core (Table 1).
    uint32_t fetchQueue = 32;
    uint32_t decodeWidth = 8;
    uint32_t issueWidth = 8;
    uint32_t commitWidth = 8;
    uint32_t ruuSize = 128;
    uint32_t lsqSize = 64;

    // Memory hierarchy (Table 1).
    CacheConfig l1i{64 * 1024, 2, 32, 2};
    CacheConfig l1d{64 * 1024, 2, 32, 2};
    CacheConfig l2{512 * 1024, 4, 32, 10};
    uint32_t memFirstChunk = 80; ///< cycles to first chunk
    uint32_t memInterChunk = 5;  ///< cycles between chunks
    uint32_t tlbMissCycles = 30;
    uint32_t tlbEntries = 64;
    uint32_t pageBytes = 4096;

    // Branch predictor: 2-level adaptive (Table 1 "2 Level").
    uint32_t bhtEntries = 1024;  ///< per-branch history table
    uint32_t historyBits = 8;    ///< history register length
    uint32_t btbEntries = 2048;
    uint32_t mispredictPenalty = 10;

    // IPDS hardware (§5.4 / Table 1).
    bool ipdsEnabled = true;
    uint32_t bsvStackBits = 2 * 1024;
    uint32_t bcvStackBits = 1 * 1024;
    uint32_t batStackBits = 32 * 1024;
    uint32_t tableLatency = 1;     ///< one access per table read/write
    /** BAT entries fetched per table access: action entries are ~12
     *  bits, so one 64-bit row of the on-chip buffer holds several. */
    uint32_t batEntriesPerAccess = 4;
    uint32_t requestQueueSize = 8;
    /** Cycles to spill/fill 512 bits of table state. */
    uint32_t spillCyclesPer512 = 10;
    /** Detector->engine request ring capacity (rounded up to a power
     *  of two). Overflow chunk-flushes, it never aborts. */
    uint32_t requestRingCapacity = 1024;
    /**
     * Cap on tracked table-stack frames. Recursion deeper than this
     * degrades gracefully: the two deepest frames merge into one
     * spilled frame (their bits stay accounted for fill costs) instead
     * of growing the model without bound. Counted in
     * EngineStats::depthClamps.
     */
    uint32_t maxFrameDepth = 4096;

    /**
     * Committed-instruction equivalents charged per builtin call
     * class. Library and kernel code executes for real on the paper's
     * testbed but is not traced by our VM; these burst sizes restore
     * its share of the pipeline (and, per §5.3, library code is NOT
     * protected, so none of these instructions touch the IPDS).
     */
    uint32_t inputCallInsts = 2000; ///< read syscall + buffering
    uint32_t outputCallInsts = 200; ///< formatting + write path
    uint32_t stringCallInsts = 60;  ///< str*/mem* loops
    /** Issue latency of the builtin call instruction itself. */
    uint32_t builtinInstCost = 10;
};

/** The configuration of Table 1 (also the default constructor). */
inline TimingConfig
table1Config()
{
    return TimingConfig{};
}

// Upper bounds that checkTimingConfig() enforces. They keep one
// model's tables at tens of MB at most, whatever config a caller or a
// trace header supplies.

/** Widths, fetchQueue, ruuSize, lsqSize and requestQueueSize. */
inline constexpr uint32_t kMaxTimingQueue = 1u << 16;
/** Lines per cache level; tlbEntries, bhtEntries, btbEntries,
 *  requestRingCapacity and maxFrameDepth. */
inline constexpr uint32_t kMaxTimingTable = 1u << 18;
/** historyBits (the BHT keeps 16-bit history registers). */
inline constexpr uint32_t kMaxHistoryBits = 16;

/**
 * What the timing model needs of @p cfg:
 *
 *  - every width, queue size and ring size, and batEntriesPerAccess,
 *    is nonzero;
 *  - the table geometry is a power of two (cache block size and set
 *    count, pageBytes, tlbEntries, bhtEntries, btbEntries), and so is
 *    commitWidth, so the model indexes and converts ticks to cycles
 *    with shifts and masks;
 *  - historyBits is at most kMaxHistoryBits;
 *  - every size is within the bounds above.
 *
 * Returns a message naming the first offending field, or nothing when
 * the config is valid. CpuModel refuses an invalid config, and so does
 * the trace-header parse (replay::parseHeader).
 */
std::optional<std::string> checkTimingConfig(const TimingConfig &cfg);

} // namespace ipds

#endif // IPDS_TIMING_CONFIG_H
