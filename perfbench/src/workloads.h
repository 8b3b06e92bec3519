#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The three workloads (perfbench/README.md). Each runs its set-up,
 * its timed window and its output checks, and fills @p out with the
 * end-to-end metrics (untraced) or the per-layer metrics (traced).
 */

#include "bench.h"

namespace perfbench {

void runServeStream(const Options &opt, Outcome &out);
void runProtectTimed(const Options &opt, Outcome &out);
void runCorpusCampaign(const Options &opt, Outcome &out);

/** Per-seed salts, so the workloads draw unrelated choices from one
 *  --seed. */
inline constexpr uint64_t kServeSalt = 0x5e7e5e7e00000001ull;
inline constexpr uint64_t kProtectSalt = 0x9707ec7000000002ull;
inline constexpr uint64_t kCorpusSalt = 0xc0c0c0c000000003ull;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
