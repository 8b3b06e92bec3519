#ifndef IPDS_REPLAY_READER_H
#define IPDS_REPLAY_READER_H

/**
 * @file
 * Trace loading and decoding.
 *
 * TraceFile loads a whole trace into memory, verifies the header and
 * every chunk CRC up front, and exposes the chunk index; all
 * malformedness — bad magic, version skew, CRC mismatches, truncation,
 * impossible lengths — surfaces as a recoverable FatalError naming the
 * byte offset, never as a panic or undefined behaviour. The index
 * always comes from this scan of the chunk headers; a v2 index footer
 * is validated as advisory and never read back. validate() runs the
 * same checks without throwing and tallies every defect class where
 * load() stops at the first (the reject tests read the tally).
 *
 * parseHeader(), parseChunk() and parseIndexTail() frame a trace
 * incrementally; TraceFile and StreamDecoder (replay.h) both frame
 * through them, so a file and a served stream are read alike.
 *
 * TraceReader is a bounds-checked record cursor over one chunk
 * payload: every varint and operand read is length-checked, and a
 * record that runs past the payload is a FatalError.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "replay/format.h"

namespace ipds {
namespace replay {

/** One chunk's location inside the loaded trace. */
struct ChunkRef
{
    size_t payloadOff = 0; ///< into TraceFile::bytes()
    uint32_t payloadLen = 0;
    uint32_t events = 0;  ///< logical events (InstRun expanded)
    uint32_t session = 0; ///< every record belongs to this session
    uint32_t flags = 0;   ///< kChunkHasSnapshot etc. (v2)
    uint64_t firstSeq = 0; ///< session events preceding this chunk
    uint64_t endSeq = 0;   ///< firstSeq + events
};

/** Outcome of a non-throwing integrity scan. */
struct ValidateResult
{
    bool ok = false;
    uint64_t crcFailures = 0;      ///< header/chunk CRC mismatches
    uint64_t truncatedChunks = 0;  ///< bytes ran out mid-structure
    uint64_t versionMismatches = 0;
    /** Footer/trailer defects. Advisory only — the scan builds the
     *  index from the chunk headers, so these never clear ok. */
    uint64_t indexDefects = 0;
    std::string error; ///< first problem found ("" when ok)
};

// ---- incremental framing (streamed ingest) ------------------------------
//
// StreamDecoder parses a served trace as it arrives off a socket, so
// "not enough bytes yet" and "bytes are corrupt" MUST be
// distinguishable: the first means wait for more (retry), the second
// means reject the stream. TraceFile::parse shares these helpers, so
// a truncated file reports TruncatedChunk (the tail was cut — the
// transfer can be resumed/retried) while a CRC failure reports
// ChunkCrcMismatch (the data itself is bad), both in the FatalError
// text and in the ipds.replay.* counters.

enum class ParseStatus : uint8_t
{
    Ok,               ///< structure complete and valid
    NeedMore,         ///< truncated here: feed more bytes and retry
    TruncatedChunk = NeedMore, ///< alias: EOF mid-structure
    ChunkCrcMismatch, ///< framing intact, payload bytes corrupt
    VersionSkew,      ///< header from another format version
    Malformed,        ///< structurally impossible (reject)
};

/**
 * Parse a trace file header from the first @p n bytes of @p p. On Ok,
 * @p meta is filled and @p consumed is the full header size
 * (including the timing block). On any other status @p err (optional)
 * receives a one-line description; NeedMore means the prefix is
 * consistent but incomplete. A header CRC failure reports
 * ChunkCrcMismatch (same retry-vs-reject contract). A timing block
 * that checkTimingConfig() rejects is Malformed, with the offending
 * field in @p err: no CpuModel is ever built from it.
 */
ParseStatus parseHeader(const uint8_t *p, size_t n, TraceMeta &meta,
                        size_t &consumed, std::string *err);

/**
 * Parse one chunk (header + payload) from the first @p n bytes of
 * @p p. On Ok, @p out describes the chunk with payloadOff relative to
 * @p p and @p consumed is the chunk's total size; the payload CRC has
 * been verified. NeedMore/TruncatedChunk means the chunk is
 * incomplete (wait for more bytes); ChunkCrcMismatch means the
 * payload is corrupt (reject — retrying the same bytes cannot help).
 */
ParseStatus parseChunk(const uint8_t *p, size_t n, ChunkRef &out,
                       size_t &consumed, std::string *err);

/**
 * How a v2 trace may end: the index footer chunk (session
 * kIndexSession), then the 16-byte trailer, then nothing. Footer
 * defects are advisory: a CRC-bad footer is skipped and a truncated or
 * impossible one ends the trace, so they cost the index, never the
 * trace. parseIndexTail() classifies the @p n bytes at a v2 chunk
 * boundary @p p (@p atEnd: no more bytes follow); TraceFile::parse and
 * StreamDecoder both read v2 chunk boundaries through it.
 */
struct IndexTail
{
    enum class Kind : uint8_t
    {
        Data,     ///< no index bytes here: parse a data chunk
        NeedMore, ///< index bytes, not all there yet (!atEnd only)
        Skip,     ///< `bytes` index bytes; more structures may follow
        End,      ///< `bytes` index bytes, and so is all that follows
        Reject,   ///< bytes follow the trailer, `bytes` past p
    };
    Kind kind = Kind::Data;
    size_t bytes = 0;
    bool footer = false; ///< a CRC-valid footer of consistent geometry
    bool defect = false; ///< an advisory footer or trailer defect
};
IndexTail parseIndexTail(const uint8_t *p, size_t n, bool atEnd);

class TraceFile
{
  public:
    /** Load and verify @p path. Throws FatalError on any defect. */
    static TraceFile load(const std::string &path);

    /** Parse an in-memory image (tests). Throws FatalError. */
    static TraceFile fromBytes(std::vector<uint8_t> bytes);

    /** Integrity scan of @p path without throwing. */
    static ValidateResult validate(const std::string &path);
    static ValidateResult validateBytes(const std::vector<uint8_t> &b);

    const TraceMeta &meta() const { return meta_; }
    const std::vector<ChunkRef> &chunks() const { return index; }
    const uint8_t *payload(const ChunkRef &c) const
    {
        return bytes_.data() + c.payloadOff;
    }
    size_t fileBytes() const { return bytes_.size(); }

    /** True when a CRC-valid index footer chunk was present. */
    bool hasIndexFooter() const { return hasFooter_; }
    /** Bytes of footer chunk + trailer (0 for v1 traces). */
    uint64_t indexBytes() const { return indexBytes_; }

  private:
    /**
     * Shared parser. With @p issues null the first defect is a
     * FatalError; otherwise defects are tallied (CRC-bad chunks are
     * skipped) and parsing continues where structurally possible.
     */
    void parse(ValidateResult *issues);

    TraceMeta meta_;
    std::vector<ChunkRef> index;
    std::vector<uint8_t> bytes_;
    bool hasFooter_ = false;
    uint64_t indexBytes_ = 0;
};

/**
 * Read and verify just the header of @p path (a module hash or a
 * recipe check before committing to a full load). Throws FatalError
 * on any header defect.
 */
TraceMeta readTraceHeader(const std::string &path);

/**
 * Bounds-checked decoder over one chunk payload. Usage:
 *
 *   TraceReader r(file.payload(c), c.payloadLen);
 *   while (!r.atEnd()) { Tag t = r.tag(); ... operand reads ... }
 *
 * The PC/address delta context is the caller's (replay engine keeps
 * it per chunk); the reader only frames bytes.
 */
class TraceReader
{
  public:
    TraceReader(const uint8_t *p, size_t n) : p_(p), n_(n) {}

    bool atEnd() const { return off == n_; }
    size_t offset() const { return off; }

    /** Next record tag. FatalError on an unknown tag byte. */
    Tag tag()
    {
        uint8_t t = byte();
        if (t < static_cast<uint8_t>(Tag::FuncEnter) ||
            t > static_cast<uint8_t>(Tag::Snapshot))
            badTag(t);
        return static_cast<Tag>(t);
    }

    /** LEB128 varint. FatalError past the payload end. One-byte
     *  values (most pc steps and function ids) decode inline. */
    uint64_t var()
    {
        if (off < n_ && p_[off] < 0x80)
            return p_[off++];
        return varLong();
    }
    int64_t svar() { return zigzagDecode(var()); }

    /** One raw byte. */
    uint8_t byte()
    {
        if (off == n_)
            truncated();
        return p_[off++];
    }

    /** Borrow @p n raw bytes (snapshot blobs). FatalError if short. */
    const uint8_t *bytes(size_t n);

    /** Skip @p n raw bytes. FatalError if short. */
    void skip(size_t n);

  private:
    /** Multi-byte varints and the truncated/overflow errors. */
    uint64_t varLong();
    [[noreturn]] void badTag(uint8_t t) const;
    [[noreturn]] void truncated() const;

    const uint8_t *p_;
    size_t n_;
    size_t off = 0;
};

} // namespace replay
} // namespace ipds

#endif // IPDS_REPLAY_READER_H
