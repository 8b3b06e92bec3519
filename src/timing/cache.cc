#include "timing/cache.h"

#include <bit>

#include "support/diag.h"

namespace ipds {

Cache::Cache(const CacheConfig &c)
    : cfg(c)
{
    if (cfg.blockBytes == 0 || cfg.ways == 0 || cfg.sizeBytes == 0)
        panic("Cache: invalid geometry");
    if (!std::has_single_bit(cfg.blockBytes))
        panic("Cache: block size %u must be a power of two",
              cfg.blockBytes);
    numSets = static_cast<uint32_t>(
        uint64_t(cfg.sizeBytes) / (uint64_t(cfg.blockBytes) * cfg.ways));
    if (!std::has_single_bit(numSets))
        panic("Cache: set count %u must be a nonzero power of two",
              numSets);
    blockShift = static_cast<uint32_t>(std::countr_zero(cfg.blockBytes));
    setShift = static_cast<uint32_t>(std::countr_zero(numSets));
    lines.assign(static_cast<size_t>(numSets) * cfg.ways, Line{});
}

bool
Cache::access(uint64_t addr)
{
    nAccess++;
    tick++;
    uint64_t block = addr >> blockShift;
    uint32_t set = static_cast<uint32_t>(block & (numSets - 1));
    uint64_t tag = block >> setShift;

    Line *base = &lines[static_cast<size_t>(set) * cfg.ways];
    for (uint32_t w = 0; w < cfg.ways; w++) {
        Line &ln = base[w];
        if (ln.valid && ln.tag == tag) {
            ln.lastUse = tick;
            return true;
        }
    }
    // Miss: evict the first invalid way, else the LRU way.
    Line *victim = base;
    for (uint32_t w = 0; w < cfg.ways; w++) {
        Line &ln = base[w];
        if (!ln.valid) {
            victim = &ln;
            break;
        }
        if (ln.lastUse < victim->lastUse)
            victim = &ln;
    }
    nMiss++;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick;
    return false;
}

void
Cache::reset()
{
    for (auto &ln : lines)
        ln = Line{};
    tick = nAccess = nMiss = 0;
}

} // namespace ipds
