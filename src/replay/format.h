#ifndef IPDS_REPLAY_FORMAT_H
#define IPDS_REPLAY_FORMAT_H

/**
 * @file
 * The IPDS event-trace format: a compact, versioned binary encoding of
 * the committed-event stream one `Vm` run (or a whole multi-session
 * Session) delivers to its observers. Nothing in the BSV/BCV/BAT
 * pipeline requires the program to be *executing* while it is checked,
 * so a recorded trace can be re-detected — and re-timed — offline, at
 * decode speed instead of interpretation speed (DESIGN.md "Trace
 * capture & replay").
 *
 * File layout (all fields little-endian):
 *
 *   header   : magic[8] "IPDSTRC\0"
 *              u32 version            (kTraceVersion)
 *              u32 flags              (kFlag* bits)
 *              u64 moduleHash         (moduleContentHash of the program)
 *              u32 sessions           (total sessions recorded)
 *              u32 shards             (capture shard count; replay
 *                                      re-shards identically)
 *              u32 timingWords        (0, or kTimingConfigWords)
 *              u32 headerCrc          (crc32 of the 36 bytes above)
 *              u32 timing[timingWords] (serialized TimingConfig)
 *   chunk*   : u32 payloadLen
 *              u32 recordCount
 *              u32 session            (every record in a chunk belongs
 *                                      to this session)
 *              u32 payloadCrc         (crc32 of the payload bytes)
 *              u8  payload[payloadLen]
 *
 * Chunks are self-contained: the PC/address delta context resets at
 * each chunk start, and a chunk never spans a session boundary (a
 * SessionStart record always opens a fresh chunk). Sharded replay
 * therefore splits the file at chunk boundaries by session index,
 * using the same fixed `sessions/shards` partition as the live run.
 *
 * Record encoding: one tag byte, then varint operands. PCs are
 * 4-byte-aligned (Module::assignAddresses), so PC deltas are encoded
 * as zigzag(delta/4); a sequential instruction run (pc += 4 each) is
 * a single InstRun record. Data addresses are zigzag deltas from the
 * previous data address in the chunk.
 *
 * Versioning policy: ANY change to the header layout, the serialized
 * TimingConfig field set, a record's operand list, or a tag value
 * requires bumping kTraceVersion. The golden-fixture test
 * (tests/test_replay.cc) fails loudly when the encoder's output for a
 * pinned program changes while the version does not.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "timing/config.h"

namespace ipds {

struct Module;

namespace replay {

/** First 8 bytes of every trace file. */
inline constexpr unsigned char kTraceMagic[8] = {'I', 'P', 'D', 'S',
                                                 'T', 'R', 'C', 0};

/** Bump on ANY encoding change (see versioning policy above). */
inline constexpr uint32_t kTraceVersion = 2;

/** Oldest version readers still accept (v1 has no index footer). */
inline constexpr uint32_t kMinTraceVersion = 1;

/** Fixed byte counts of the framing structures. */
inline constexpr size_t kHeaderBytes = 40; ///< before the timing block
inline constexpr size_t kChunkHeaderBytes = 16;

/** Header flag bits. */
inline constexpr uint32_t kFlagFullStream = 1u << 0; ///< inst events
inline constexpr uint32_t kFlagTiming = 1u << 1;     ///< timing block
inline constexpr uint32_t kFlagFault = 1u << 2;      ///< fault records
inline constexpr uint32_t kFlagDetector = 1u << 3;   ///< detector ran

/** u32 count of the serialized TimingConfig block. */
inline constexpr uint32_t kTimingConfigWords = 41;

/** Record tags. Values are part of the format — append only. */
enum class Tag : uint8_t
{
    FuncEnter = 1,    ///< varint funcId
    FuncExit = 2,     ///< varint funcId
    BranchTaken = 3,  ///< svarint pcStep
    BranchNotTaken = 4, ///< svarint pcStep
    Inst = 5,         ///< svarint pcStep (non-branch, no data access)
    InstRun = 6,      ///< varint count (sequential insts, pc += 4 each)
    MemInst = 7,      ///< svarint pcStep, svarint addrDelta
    BsvFlip = 8,      ///< varint slot, u8 state (fault side channel)
    CtxSwitch = 9,    ///< u8 lazy (fault side channel)
    SessionStart = 10, ///< varint session, u8 ringFault,
                       ///< [varint dropPermille, dupPermille, seed]
    SessionEnd = 11,  ///< varint steps, inputEvents, memTampers,
                      ///< instructions, blocks, batchFlushes
    Snapshot = 12,    ///< varint blobLen, u8 blob[] (v2; see snapshot.h)
};

/** Payload bytes buffered before a chunk is flushed. */
inline constexpr size_t kChunkPayloadCap = 48 * 1024;

// ---- v2 chunk-index footer ----------------------------------------------
//
// A v2 writer appends, after the last data chunk, one *index chunk*
// reusing the ordinary chunk framing with the reserved session index
// kIndexSession (so a v1-era scanner that ignores it still sees a
// well-formed chunk), followed by a fixed 16-byte trailer:
//
//   footer   : u32 payloadLen           (entryCount * kIndexEntryBytes)
//              u32 recordCount          (= entryCount)
//              u32 session              (kIndexSession sentinel)
//              u32 payloadCrc           (crc32 of the entry payload —
//                                        the "CRC of the index itself")
//              entry[entryCount]        (one per data chunk, in order)
//   trailer  : magic[8] "IPDSIDX\0"
//              u64 footerOffset         (file offset of the footer's
//                                        chunk header)
//
// Each 40-byte entry describes one data chunk:
//
//   u64 fileOffset   (of the chunk header)
//   u32 payloadLen
//   u32 events       (recordCount of the chunk)
//   u32 session
//   u32 flags        (kChunkHasSnapshot: payload opens with a
//                     Tag::Snapshot record)
//   u64 firstSeq     (events recorded in this session before the chunk)
//   u64 endSeq       (= firstSeq + events)
//
// The footer is strictly advisory and no reader loads from it: the
// scan (TraceFile) builds the identical index from the chunk headers
// and validates the footer as it goes, so a missing, truncated or
// corrupt footer costs ipds.replay.index_missing, never the file.

/** Reserved chunk session index marking the footer chunk (v2). */
inline constexpr uint32_t kIndexSession = 0xFFFFFFFFu;

/** Trailing magic closing a v2 file with an index footer. */
inline constexpr unsigned char kIndexTrailerMagic[8] = {
    'I', 'P', 'D', 'S', 'I', 'D', 'X', 0};

inline constexpr size_t kIndexTrailerBytes = 16;
inline constexpr size_t kIndexEntryBytes = 40;

/** Sanity cap on the footer payload (≈1.6M chunks ≈ 80 GiB trace). */
inline constexpr size_t kIndexPayloadCap = 64 * 1024 * 1024;

/** ChunkIndexEntry::flags bits. */
inline constexpr uint32_t kChunkHasSnapshot = 1u << 0;

/** One data chunk as described by the index footer. */
struct ChunkIndexEntry
{
    uint64_t fileOffset = 0; ///< of the chunk header
    uint32_t payloadLen = 0;
    uint32_t events = 0;
    uint32_t session = 0;
    uint32_t flags = 0;
    uint64_t firstSeq = 0; ///< session-relative event sequence
    uint64_t endSeq = 0;   ///< firstSeq + events

    bool
    operator==(const ChunkIndexEntry &o) const
    {
        return fileOffset == o.fileOffset &&
            payloadLen == o.payloadLen && events == o.events &&
            session == o.session && flags == o.flags &&
            firstSeq == o.firstSeq && endSeq == o.endSeq;
    }
};

/** Encode/decode one index entry (kIndexEntryBytes each). */
void encodeIndexEntry(const ChunkIndexEntry &e, uint8_t *out);
ChunkIndexEntry decodeIndexEntry(const uint8_t *p);

/**
 * Append the footer chunk + trailer for @p entries to @p out, which
 * must already hold the header and all data chunks. @p footerFileOff
 * is the file offset the footer chunk header lands at (i.e. the
 * current size of @p out's stream).
 */
void appendIndexFooter(std::vector<uint8_t> &out,
                       const ChunkIndexEntry *entries, size_t count,
                       uint64_t footerFileOff);

// ---- primitive encoding -------------------------------------------------

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of @p n bytes, folded
 *  eight bytes per step (slice-by-8); one implementation serves the
 *  trace header and chunks, the index footer and the wire frames. */
uint32_t crc32(const uint8_t *p, size_t n);

inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

inline int64_t
zigzagDecode(uint64_t u)
{
    return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

inline void
putU32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
        (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
}

inline void
putU64(uint8_t *p, uint64_t v)
{
    putU32(p, static_cast<uint32_t>(v));
    putU32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint64_t
getU64(const uint8_t *p)
{
    return static_cast<uint64_t>(getU32(p)) |
        (static_cast<uint64_t>(getU32(p + 4)) << 32);
}

// ---- identity hashes ----------------------------------------------------

/**
 * Content hash of a module: function names, signatures and every
 * instruction field (including assigned PCs) plus object geometry.
 * Two modules with equal hashes decode a trace's PCs to the same
 * instructions; a trace recorded from a different program (or the
 * same source recompiled after an edit) is rejected as foreign.
 */
uint64_t moduleContentHash(const Module &mod);

/**
 * Serialize @p cfg into @p out (kTimingConfigWords u32 slots, fixed
 * field order) and the inverse. The field set is pinned by
 * kTraceVersion: adding a TimingConfig field that affects results
 * means extending this list AND bumping the version.
 */
void packTimingConfig(const TimingConfig &cfg, uint32_t *out);
TimingConfig unpackTimingConfig(const uint32_t *in);

/** Metadata carried by a trace header. */
struct TraceMeta
{
    uint32_t version = kTraceVersion;
    uint32_t flags = 0;
    uint64_t moduleHash = 0;
    uint32_t sessions = 0;
    uint32_t shards = 1;
    bool hasTiming = false;
    TimingConfig timing;

    bool fullStream() const { return flags & kFlagFullStream; }
    bool detectorOn() const { return flags & kFlagDetector; }
    bool faultCaptured() const { return flags & kFlagFault; }
};

/** Serialized header size for @p meta. */
inline size_t
headerBytes(const TraceMeta &meta)
{
    return kHeaderBytes +
        (meta.hasTiming ? 4 * kTimingConfigWords : 0);
}

/** Encode @p meta into a header blob (headerBytes(meta) long). */
void encodeHeader(const TraceMeta &meta, uint8_t *out);

} // namespace replay
} // namespace ipds

#endif // IPDS_REPLAY_FORMAT_H
