#include "timing/config.h"

#include <bit>

#include "support/diag.h"

namespace ipds {

namespace {

std::optional<std::string>
checkCache(const char *name, const CacheConfig &c)
{
    if (!std::has_single_bit(c.blockBytes))
        return strprintf("%s.blockBytes %u is not a power of two", name,
                         c.blockBytes);
    if (c.ways == 0)
        return strprintf("%s.ways is 0", name);
    uint64_t sets =
        uint64_t(c.sizeBytes) / (uint64_t(c.blockBytes) * c.ways);
    if (!std::has_single_bit(sets))
        return strprintf("%s set count %llu (sizeBytes %u / blockBytes "
                         "/ ways) is not a power of two",
                         name, static_cast<unsigned long long>(sets),
                         c.sizeBytes);
    if (sets * c.ways > kMaxTimingTable)
        return strprintf("%s holds %llu lines, more than %u", name,
                         static_cast<unsigned long long>(sets * c.ways),
                         kMaxTimingTable);
    return std::nullopt;
}

} // namespace

std::optional<std::string>
checkTimingConfig(const TimingConfig &cfg)
{
    struct Field
    {
        const char *name;
        uint32_t value;
        uint32_t max;
    };
    const Field nonzero[] = {
        {"fetchQueue", cfg.fetchQueue, kMaxTimingQueue},
        {"decodeWidth", cfg.decodeWidth, kMaxTimingQueue},
        {"issueWidth", cfg.issueWidth, kMaxTimingQueue},
        {"commitWidth", cfg.commitWidth, kMaxTimingQueue},
        {"ruuSize", cfg.ruuSize, kMaxTimingQueue},
        {"lsqSize", cfg.lsqSize, kMaxTimingQueue},
        {"requestQueueSize", cfg.requestQueueSize, kMaxTimingQueue},
        {"requestRingCapacity", cfg.requestRingCapacity,
         kMaxTimingTable},
        {"batEntriesPerAccess", cfg.batEntriesPerAccess, UINT32_MAX},
    };
    for (const Field &f : nonzero) {
        if (f.value == 0)
            return strprintf("%s is 0", f.name);
        if (f.value > f.max)
            return strprintf("%s %u exceeds %u", f.name, f.value,
                             f.max);
    }
    const Field pow2[] = {
        {"commitWidth", cfg.commitWidth, kMaxTimingQueue},
        {"pageBytes", cfg.pageBytes, UINT32_MAX},
        {"tlbEntries", cfg.tlbEntries, kMaxTimingTable},
        {"bhtEntries", cfg.bhtEntries, kMaxTimingTable},
        {"btbEntries", cfg.btbEntries, kMaxTimingTable},
    };
    for (const Field &f : pow2) {
        if (!std::has_single_bit(f.value))
            return strprintf("%s %u is not a power of two", f.name,
                             f.value);
        if (f.value > f.max)
            return strprintf("%s %u exceeds %u", f.name, f.value,
                             f.max);
    }
    for (auto [name, c] : {std::pair{"l1i", &cfg.l1i},
                           std::pair{"l1d", &cfg.l1d},
                           std::pair{"l2", &cfg.l2}})
        if (auto bad = checkCache(name, *c))
            return bad;
    if (cfg.historyBits > kMaxHistoryBits)
        return strprintf("historyBits %u exceeds %u", cfg.historyBits,
                         kMaxHistoryBits);
    if (cfg.maxFrameDepth > kMaxTimingTable)
        return strprintf("maxFrameDepth %u exceeds %u",
                         cfg.maxFrameDepth, kMaxTimingTable);
    return std::nullopt;
}

} // namespace ipds
