#include "serve/wire.h"

#include <cstring>

#include "replay/format.h"

namespace ipds {
namespace serve {
namespace wire {

void
FrameDecoder::append(const uint8_t *p, size_t n)
{
    // Compact before growing: the steady state keeps the buffer at
    // one partial frame, not the whole connection history.
    if (consumed > 0 && consumed == buf.size()) {
        buf.clear();
        consumed = 0;
    } else if (consumed > 4096 && consumed > buf.size() / 2) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<ptrdiff_t>(consumed));
        consumed = 0;
    }
    buf.insert(buf.end(), p, p + n);
}

DecodeStatus
FrameDecoder::next(Frame &out)
{
    if (poisoned != DecodeStatus::NeedMore)
        return poisoned;
    const size_t have = buf.size() - consumed;
    if (have < kFrameHeaderBytes)
        return DecodeStatus::NeedMore;
    const uint8_t *h = buf.data() + consumed;
    if (replay::getU32(h) != kFrameMagic)
        return poisoned = DecodeStatus::BadMagic;
    uint8_t type = h[4];
    if (type < static_cast<uint8_t>(FrameType::TraceData) ||
        type > static_cast<uint8_t>(FrameType::ChunkAck))
        return poisoned = DecodeStatus::BadType;
    uint32_t len = replay::getU32(h + 8);
    if (len > maxBytes)
        return poisoned = DecodeStatus::Oversized;
    if (have - kFrameHeaderBytes < len)
        return DecodeStatus::NeedMore;
    uint32_t crc = replay::getU32(h + 12);
    const uint8_t *payload = h + kFrameHeaderBytes;
    if (replay::crc32(payload, len) != crc)
        return poisoned = DecodeStatus::CrcMismatch;
    out.type = static_cast<FrameType>(type);
    out.payload = payload;
    out.payloadLen = len;
    consumed += kFrameHeaderBytes + len;
    return DecodeStatus::Frame;
}

void
appendFrame(std::vector<uint8_t> &out, FrameType type,
            const uint8_t *payload, size_t payloadLen)
{
    uint8_t h[kFrameHeaderBytes] = {};
    replay::putU32(h, kFrameMagic);
    h[4] = static_cast<uint8_t>(type);
    replay::putU32(h + 8, static_cast<uint32_t>(payloadLen));
    replay::putU32(h + 12, replay::crc32(payload, payloadLen));
    out.insert(out.end(), h, h + kFrameHeaderBytes);
    out.insert(out.end(), payload, payload + payloadLen);
}

std::vector<uint8_t>
encodeFrame(FrameType type, const uint8_t *payload, size_t payloadLen)
{
    std::vector<uint8_t> out;
    out.reserve(kFrameHeaderBytes + payloadLen);
    appendFrame(out, type, payload, payloadLen);
    return out;
}

std::vector<uint8_t>
encodeTextFrame(FrameType type, const std::string &text)
{
    return encodeFrame(
        type, reinterpret_cast<const uint8_t *>(text.data()),
        text.size());
}

const char *
errorCodeSlug(ErrorCode c)
{
    switch (c) {
    case ErrorCode::Protocol:
        return "protocol";
    case ErrorCode::Transport:
        return "transport";
    case ErrorCode::Trace:
        return "trace";
    case ErrorCode::UnknownModule:
        return "unknown_module";
    case ErrorCode::UnknownResume:
        return "unknown_resume";
    case ErrorCode::None:
        break;
    }
    return "";
}

std::string
parseErrorCode(const std::string &payload)
{
    if (payload.compare(0, 5, "code ") != 0)
        return "";
    size_t eol = payload.find('\n');
    if (eol == std::string::npos)
        eol = payload.size();
    return payload.substr(5, eol - 5);
}

std::string
taggedError(ErrorCode c, const std::string &why)
{
    std::string out = "code ";
    out += errorCodeSlug(c);
    out += '\n';
    out += why;
    return out;
}

std::vector<uint8_t>
encodeHello2(const HelloV2 &h)
{
    std::vector<uint8_t> out(kHello2FixedBytes + h.tenant.size());
    out[0] = h.version;
    out[1] = h.resume ? 1 : 0;
    out[2] = static_cast<uint8_t>(h.tenant.size() & 0xff);
    out[3] = static_cast<uint8_t>((h.tenant.size() >> 8) & 0xff);
    replay::putU64(out.data() + 4, h.moduleHash);
    replay::putU64(out.data() + 12, h.resumeToken);
    replay::putU64(out.data() + 20, h.resumeOffset);
    replay::putU64(out.data() + 28, h.resumeChunks);
    std::memcpy(out.data() + kHello2FixedBytes, h.tenant.data(),
                h.tenant.size());
    return out;
}

bool
decodeHello2(const uint8_t *p, size_t n, HelloV2 &out)
{
    if (n < kHello2FixedBytes)
        return false;
    out.version = p[0];
    if (out.version != 2)
        return false;
    uint8_t flags = p[1];
    if (flags & ~uint8_t(1))
        return false;
    out.resume = (flags & 1) != 0;
    size_t tenantLen = size_t(p[2]) | (size_t(p[3]) << 8);
    if (tenantLen == 0 || tenantLen > 256 ||
        n != kHello2FixedBytes + tenantLen)
        return false;
    out.moduleHash = replay::getU64(p + 4);
    out.resumeToken = replay::getU64(p + 12);
    out.resumeOffset = replay::getU64(p + 20);
    out.resumeChunks = replay::getU64(p + 28);
    if (out.resume && out.resumeToken == 0)
        return false;
    out.tenant.assign(
        reinterpret_cast<const char *>(p + kHello2FixedBytes),
        tenantLen);
    return true;
}

std::vector<uint8_t>
encodeChunkAck(uint64_t sealedBytes, uint64_t sealedChunks)
{
    std::vector<uint8_t> out(16);
    replay::putU64(out.data(), sealedBytes);
    replay::putU64(out.data() + 8, sealedChunks);
    return out;
}

bool
decodeChunkAck(const uint8_t *p, size_t n, uint64_t &sealedBytes,
               uint64_t &sealedChunks)
{
    if (n != 16)
        return false;
    sealedBytes = replay::getU64(p);
    sealedChunks = replay::getU64(p + 8);
    return true;
}

} // namespace wire
} // namespace serve
} // namespace ipds
