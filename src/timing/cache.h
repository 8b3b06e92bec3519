#ifndef IPDS_TIMING_CACHE_H
#define IPDS_TIMING_CACHE_H

/**
 * @file
 * Set-associative cache with true-LRU replacement. Timing only: no
 * data is stored, just tags. Hierarchies are composed by the caller
 * probing the next level on a miss. Block size and set count are
 * powers of two, so a probe splits the address with shifts and a mask.
 */

#include <cstdint>
#include <vector>

#include "timing/config.h"

namespace ipds {

/** One cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the block containing @p addr; allocate on miss.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /** Accesses so far. */
    uint64_t accesses() const { return nAccess; }

    /** Misses so far. */
    uint64_t misses() const { return nMiss; }

    /** Forget all contents and statistics. */
    void reset();

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lastUse = 0;
    };

    CacheConfig cfg;
    uint32_t numSets;
    uint32_t blockShift; ///< log2 blockBytes
    uint32_t setShift;   ///< log2 numSets
    std::vector<Line> lines; ///< numSets x ways
    uint64_t tick = 0;
    uint64_t nAccess = 0;
    uint64_t nMiss = 0;
};

} // namespace ipds

#endif // IPDS_TIMING_CACHE_H
