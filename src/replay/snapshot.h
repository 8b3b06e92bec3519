#ifndef IPDS_REPLAY_SNAPSHOT_H
#define IPDS_REPLAY_SNAPSHOT_H

/**
 * @file
 * Versioned serialization of detector/engine state for the v2 trace
 * format's Tag::Snapshot records.
 *
 * A snapshot blob is self-describing:
 *
 *   u8 version                  (kSnapshotVersion)
 *   u8 sections                 (kSnapSectionDetector | kSnapSectionTiming)
 *   [detector section]          when kSnapSectionDetector:
 *     varint activationCount
 *     per activation: varint funcId, varint slotCount,
 *                     per slot: varint slot, u8 state
 *     DetectorStats             (5 varints + varint maxStackDepth)
 *     varint alarmsSoFar
 *   [timing section]            when kSnapSectionTiming:
 *     TimingStats               (14 varints, engine excluded)
 *     EngineStats               (15 varints)
 *     varint inflightCount, per entry varint completionTime
 *     varint engineFree
 *     varint frameCount, per frame: varint bits, u8 spilled
 *     varint residentBits
 *
 * The blob is embedded in a CRC-guarded chunk, so decode assumes
 * structural integrity was already checked at the chunk level; any
 * overrun, version skew or element count past the bytes left still
 * raises a recoverable FatalError (truncated-snapshot corruption is a
 * tested degradation path).
 *
 * Versioning: ANY change to this layout bumps kSnapshotVersion; the
 * golden v2 fixture pins the encoding.
 */

#include <cstdint>
#include <vector>

#include "ipds/detector.h"
#include "timing/cpu.h"
#include "timing/engine.h"

namespace ipds {
namespace replay {

inline constexpr uint8_t kSnapshotVersion = 1;

inline constexpr uint8_t kSnapSectionDetector = 1u << 0;
inline constexpr uint8_t kSnapSectionTiming = 1u << 1;

/** Everything a Tag::Snapshot record carries. */
struct SnapshotData
{
    bool hasDetector = false;
    DetectorSnapshot det;

    bool hasTiming = false;
    TimingStats tim;       ///< running CpuModel stats (engine included)
    EngineSnapshot engine; ///< resumable IpdsEngine state
};

/** Append the serialized form of @p data to @p out. */
void encodeSnapshot(const SnapshotData &data,
                    std::vector<uint8_t> &out);

/** Decode @p n bytes at @p p. FatalError on truncation/version skew. */
void decodeSnapshot(const uint8_t *p, size_t n, SnapshotData &out);

} // namespace replay
} // namespace ipds

#endif // IPDS_REPLAY_SNAPSHOT_H
