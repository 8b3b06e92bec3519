#ifndef IPDS_SERVE_WIRE_H
#define IPDS_SERVE_WIRE_H

/**
 * @file
 * Transport framing for the detection service.
 *
 * A client session is a sequence of FRAMES over a stream socket. The
 * frame envelope is deliberately independent of the trace format it
 * carries: the v1 trace bytes (replay/format.h) travel inside
 * TraceData frames unchanged, so the server's detection input is the
 * exact byte stream a CapturePlan wrote — ingest-time detection can
 * be diffed against offline replay of the same file byte for byte.
 *
 * Frame layout (little-endian):
 *
 *   u32 magic      "IPF1" (kFrameMagic)
 *   u8  type       (FrameType)
 *   u8  pad[3]     zero
 *   u32 payloadLen (<= negotiated max, kDefaultMaxFrameBytes default)
 *   u32 payloadCrc (crc32 of the payload bytes)
 *   u8  payload[payloadLen]
 *
 * Client->server: Hello2 (the one handshake: tenant + module hash +
 * resume token, layout below), TraceData (payload = raw trace bytes,
 * any split), StreamEnd (empty), StatsReq (empty).
 * Server->client: Result (text report), Error (text diagnostic —
 * first line "code <slug>" carries the typed error), Stats (the
 * /statsz text), ChunkAck (resume watermark: the absolute trace byte
 * offset and chunk count the server has sealed into the detector, so
 * a reconnecting client knows where to re-feed from).
 *
 * Hello v2 payload (little-endian, 36 bytes + tenant):
 *
 *   u8  version      (2; anything else is rejected)
 *   u8  flags        (bit0: resume an earlier stream)
 *   u16 tenantLen    (1..256)
 *   u64 moduleHash   FNV-1a content hash of the protected module
 *                    (replay::moduleContentHash; the trace header
 *                    carries the same value)
 *   u64 resumeToken  client-chosen stream identity (0 = no resume
 *                    support; must be nonzero when flags bit0 is set)
 *   u64 resumeOffset absolute trace byte offset to re-feed from
 *                    (resume only; must be <= a prior ChunkAck)
 *   u64 resumeChunks sealed chunk count paired with resumeOffset
 *                    (from the same ChunkAck; 0 on first attach)
 *   u8  tenant[tenantLen]
 *
 * ChunkAck payload: u64 sealedBytes, u64 sealedChunks (16 bytes).
 *
 * Error taxonomy mirrors the reader satellite's retry-vs-reject
 * contract: a SHORT frame at connection drop is truncation (the
 * stream failed, nothing to retry within it), a frame whose CRC does
 * not match is corruption (reject), and a frame whose length exceeds
 * the negotiated max is rejected before buffering (admission
 * control, not trust-the-length).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ipds {
namespace serve {
namespace wire {

inline constexpr uint32_t kFrameMagic = 0x31465049u; ///< "IPF1" LE
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/**
 * Frame types. Type 1 was the v1 Hello (tenant name only); it is
 * retired and never reused, so the decoder rejects it as BadType.
 */
enum class FrameType : uint8_t
{
    TraceData = 2, ///< client: raw trace bytes
    StreamEnd = 3, ///< client: stream complete, report back
    Result = 4,    ///< server: per-stream detection report (text)
    Error = 5,     ///< server: stream rejected (text diagnostic)
    StatsReq = 6,  ///< client: request /statsz
    Stats = 7,     ///< server: /statsz text
    Hello2 = 8,    ///< client: versioned hello (tenant, module, resume)
    ChunkAck = 9,  ///< server: sealed-watermark ack (resume support)
};

/**
 * Typed error codes. The Error frame payload's first line is
 * "code <slug>"; the human-readable diagnostic follows on the next
 * line(s). Slugs are the wire contract — clients switch on them.
 */
enum class ErrorCode : uint8_t
{
    None = 0,
    Protocol,      ///< framing misuse (duplicate Hello2, bad order…)
    Transport,     ///< corrupt/oversized frame, truncation, shutdown
    Trace,         ///< trace payload failed decode/detection
    UnknownModule, ///< Hello2 module hash not in the registry
    UnknownResume, ///< resume token unknown, expired, or mismatched
};

/** Wire slug for @p c ("protocol", "unknown_module", …). */
const char *errorCodeSlug(ErrorCode c);

/** Parse the "code <slug>" first line of an Error payload. Returns
 *  the slug ("" when absent) and points @p rest at the diagnostic. */
std::string parseErrorCode(const std::string &payload);

/** Prefix @p why with the "code <slug>" line. */
std::string taggedError(ErrorCode c, const std::string &why);

/** Decoded Hello v2 (see the layout in the file comment). */
struct HelloV2
{
    uint8_t version = 2;
    bool resume = false;
    std::string tenant;
    uint64_t moduleHash = 0;
    uint64_t resumeToken = 0;
    uint64_t resumeOffset = 0;
    uint64_t resumeChunks = 0;
};

inline constexpr size_t kHello2FixedBytes = 36;

/** Encode a Hello2 payload (not the frame envelope). */
std::vector<uint8_t> encodeHello2(const HelloV2 &h);

/** Decode a Hello2 payload. False on malformed/unsupported input. */
bool decodeHello2(const uint8_t *p, size_t n, HelloV2 &out);

/** Encode a ChunkAck payload (not the frame envelope). */
std::vector<uint8_t> encodeChunkAck(uint64_t sealedBytes,
                                    uint64_t sealedChunks);

/** Decode a ChunkAck payload. False unless exactly 16 bytes. */
bool decodeChunkAck(const uint8_t *p, size_t n, uint64_t &sealedBytes,
                    uint64_t &sealedChunks);

/** A decoded frame (payload is a view into the decoder's buffer). */
struct Frame
{
    FrameType type = FrameType::TraceData;
    const uint8_t *payload = nullptr;
    uint32_t payloadLen = 0;
};

enum class DecodeStatus : uint8_t
{
    Frame,       ///< out filled; call again for the next frame
    NeedMore,    ///< feed more bytes
    BadMagic,    ///< not a frame stream — reject connection
    BadType,     ///< unknown frame type — reject connection
    Oversized,   ///< payloadLen exceeds the configured max — reject
    CrcMismatch, ///< payload corrupt — reject connection
};

/**
 * Incremental frame decoder: append() socket bytes as they arrive,
 * then next() until NeedMore. Any reject status is sticky. A frame's
 * payload view stays valid until the next append()/next() call.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(size_t maxFrameBytes = kDefaultMaxFrameBytes)
        : maxBytes(maxFrameBytes)
    {}

    void append(const uint8_t *p, size_t n);

    DecodeStatus next(Frame &out);

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buf.size() - consumed; }

    /** True when the stream ended cleanly between frames. */
    bool atFrameBoundary() const { return buffered() == 0; }

  private:
    size_t maxBytes;
    std::vector<uint8_t> buf;
    size_t consumed = 0;
    DecodeStatus poisoned = DecodeStatus::NeedMore; ///< sticky reject
};

/** Append one encoded frame to @p out. */
void appendFrame(std::vector<uint8_t> &out, FrameType type,
                 const uint8_t *payload, size_t payloadLen);

/** Encode one frame (convenience over appendFrame). */
std::vector<uint8_t> encodeFrame(FrameType type, const uint8_t *payload,
                                 size_t payloadLen);

/** Encode a text frame (Result / Error / Stats). */
std::vector<uint8_t> encodeTextFrame(FrameType type,
                                     const std::string &text);

} // namespace wire
} // namespace serve
} // namespace ipds

#endif // IPDS_SERVE_WIRE_H
