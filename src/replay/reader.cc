#include "replay/reader.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "support/diag.h"
#include "timing/config.h"

namespace ipds {
namespace replay {

namespace {

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("trace: cannot open '%s'", path.c_str());
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        fatal("trace: read error on '%s'", path.c_str());
    return bytes;
}

/** Record a defect: tally it in @p issues or throw. */
void
defect(ValidateResult *issues, uint64_t *tally, const char *msg,
       size_t where)
{
    if (!issues)
        fatal("trace: %s (at byte %zu)", msg, where);
    if (tally)
        (*tally)++;
    if (issues->error.empty())
        issues->error = strprintf("%s (at byte %zu)", msg, where);
}

/** Set *err (when non-null) to @p msg, and @p at to the defect byte. */
ParseStatus
parseFail(ParseStatus st, std::string *err, const char *msg,
          size_t &at, size_t where)
{
    if (err)
        *err = msg;
    at = where;
    return st;
}

} // namespace

ParseStatus
parseHeader(const uint8_t *p, size_t n, TraceMeta &meta,
            size_t &consumed, std::string *err)
{
    // An empty trace may come with a null @p p: compare no bytes.
    size_t have = n < sizeof kTraceMagic ? n : sizeof kTraceMagic;
    if (have > 0 && std::memcmp(p, kTraceMagic, have) != 0)
        return parseFail(ParseStatus::Malformed, err,
                        "not an IPDS trace (bad magic)", consumed, 0);
    if (n < kHeaderBytes)
        return parseFail(ParseStatus::NeedMore, err,
                        "truncated trace header", consumed, 0);
    meta.version = getU32(p + 8);
    if (meta.version < kMinTraceVersion ||
        meta.version > kTraceVersion) {
        if (err)
            *err = strprintf("format version %u, this reader handles "
                             "%u..%u",
                             meta.version, kMinTraceVersion,
                             kTraceVersion);
        consumed = 8;
        return ParseStatus::VersionSkew;
    }
    uint32_t hdrCrc = getU32(p + 36);
    if (crc32(p, 36) != hdrCrc)
        return parseFail(ParseStatus::ChunkCrcMismatch, err,
                        "header CRC mismatch", consumed, 36);
    meta.flags = getU32(p + 12);
    meta.moduleHash = getU64(p + 16);
    meta.sessions = getU32(p + 24);
    meta.shards = getU32(p + 28);
    uint32_t timingWords = getU32(p + 32);
    if (timingWords != 0 && timingWords != kTimingConfigWords)
        return parseFail(ParseStatus::Malformed, err,
                        "bad timing block size", consumed, 32);
    if (meta.sessions == 0 || meta.shards == 0 ||
        meta.shards > meta.sessions)
        return parseFail(ParseStatus::Malformed, err,
                        "impossible session/shard counts", consumed,
                        24);
    meta.hasTiming = timingWords != 0;
    size_t off = kHeaderBytes;
    if (meta.hasTiming) {
        if (n < off + 4 * kTimingConfigWords)
            return parseFail(ParseStatus::NeedMore, err,
                            "truncated timing block", consumed, off);
        uint32_t words[kTimingConfigWords];
        for (uint32_t i = 0; i < kTimingConfigWords; ++i)
            words[i] = getU32(p + off + 4 * i);
        meta.timing = unpackTimingConfig(words);
        // The header CRC stops before this block: check what the
        // timing model needs of it here, before a CpuModel is built.
        if (auto bad = checkTimingConfig(meta.timing)) {
            const std::string msg = "impossible timing block: " + *bad;
            return parseFail(ParseStatus::Malformed, err, msg.c_str(),
                             consumed, off);
        }
        off += 4 * kTimingConfigWords;
    }
    consumed = off;
    return ParseStatus::Ok;
}

ParseStatus
parseChunk(const uint8_t *p, size_t n, ChunkRef &out,
           size_t &consumed, std::string *err)
{
    if (n < kChunkHeaderBytes)
        return parseFail(ParseStatus::NeedMore, err,
                        "truncated chunk header", consumed, 0);
    out.payloadLen = getU32(p);
    out.events = getU32(p + 4);
    out.session = getU32(p + 8);
    uint32_t crc = getU32(p + 12);
    // A corrupt length must not make a streamed ingest wait forever
    // for bytes that will never come: writers cap payloads at
    // kChunkPayloadCap, so anything far past it is Malformed, not
    // NeedMore. The one exception is the v2 index footer chunk
    // (session == kIndexSession), whose payload scales with the chunk
    // count and is capped separately.
    size_t cap = out.session == kIndexSession ? kIndexPayloadCap
                                              : 4 * kChunkPayloadCap;
    if (out.payloadLen == 0 || out.payloadLen > cap)
        return parseFail(ParseStatus::Malformed, err,
                        "impossible chunk payload length", consumed,
                        0);
    if (n - kChunkHeaderBytes < out.payloadLen)
        return parseFail(ParseStatus::NeedMore, err,
                        "truncated chunk payload", consumed, 0);
    out.payloadOff = kChunkHeaderBytes;
    if (crc32(p + kChunkHeaderBytes, out.payloadLen) != crc)
        return parseFail(ParseStatus::ChunkCrcMismatch, err,
                        "chunk CRC mismatch", consumed,
                        kChunkHeaderBytes);
    consumed = kChunkHeaderBytes + out.payloadLen;
    return ParseStatus::Ok;
}

IndexTail
parseIndexTail(const uint8_t *p, size_t n, bool atEnd)
{
    using Kind = IndexTail::Kind;
    IndexTail t;
    // At a chunk boundary the trailer magic cannot be mistaken for a
    // chunk header (a payloadLen spelling "IPDS" is far past every
    // length cap).
    if (n >= 8 && std::memcmp(p, kIndexTrailerMagic, 8) == 0) {
        t.kind = n > kIndexTrailerBytes ? Kind::Reject
            : atEnd                     ? Kind::End
                                        : Kind::NeedMore;
        t.bytes = std::min(n, kIndexTrailerBytes);
        t.defect = n < kIndexTrailerBytes;
        return t;
    }
    // The footer is only recognized once its sentinel can be read.
    if (n < 12 || getU32(p + 8) != kIndexSession)
        return t;
    ChunkRef c;
    size_t used = 0;
    const ParseStatus st = parseChunk(p, n, c, used, nullptr);
    if (st == ParseStatus::NeedMore && !atEnd) {
        t.kind = Kind::NeedMore;
        return t;
    }
    t.footer = st == ParseStatus::Ok &&
        static_cast<uint64_t>(c.events) * kIndexEntryBytes ==
            c.payloadLen;
    t.defect = !t.footer;
    t.kind = Kind::Skip;
    if (st == ParseStatus::Ok) {
        t.bytes = used;
    } else if (st == ParseStatus::ChunkCrcMismatch) {
        // parseFail overloaded `used` with the defect offset.
        t.bytes = kChunkHeaderBytes + c.payloadLen;
    } else {
        // Truncated or impossible: the footer is the trace's last
        // structure, so the rest is index bytes.
        t.kind = Kind::End;
        t.bytes = n;
    }
    return t;
}

void
TraceFile::parse(ValidateResult *issues)
{
    const uint8_t *b = bytes_.data();
    const size_t n = bytes_.size();

    std::string err;
    size_t at = 0;
    switch (parseHeader(b, n, meta_, at, &err)) {
      case ParseStatus::Ok:
        break;
      case ParseStatus::NeedMore:
        defect(issues, issues ? &issues->truncatedChunks : nullptr,
               err.c_str(), at);
        return;
      case ParseStatus::ChunkCrcMismatch:
        defect(issues, issues ? &issues->crcFailures : nullptr,
               err.c_str(), at);
        return;
      case ParseStatus::VersionSkew:
        if (!issues)
            fatal("trace: format version %u, this build reads "
                  "version %u — re-record the trace",
                  meta_.version, kTraceVersion);
        issues->versionMismatches++;
        if (issues->error.empty())
            issues->error = err;
        return;
      case ParseStatus::Malformed:
        defect(issues, nullptr, err.c_str(), at);
        return;
    }
    size_t off = at;

    uint32_t prevSession = 0;
    bool first = true;
    uint32_t seqSession = 0;
    uint64_t seq = 0;
    while (off < n) {
        if (meta_.version >= 2) {
            // The footer is advisory and recomputed by this very scan,
            // so its defects only cost the index.
            const IndexTail t = parseIndexTail(b + off, n - off, true);
            if (t.kind == IndexTail::Kind::Reject) {
                defect(issues, nullptr, "bytes after index trailer",
                       off + t.bytes);
                return;
            }
            if (t.kind != IndexTail::Kind::Data) {
                if (t.defect && issues)
                    issues->indexDefects++;
                hasFooter_ |= t.footer;
                indexBytes_ += t.bytes;
                off += t.bytes; // End took the rest: the loop stops
                continue;
            }
        }
        ChunkRef c;
        size_t used = 0;
        ParseStatus st = parseChunk(b + off, n - off, c, used, &err);
        if (st == ParseStatus::NeedMore) {
            defect(issues,
                   issues ? &issues->truncatedChunks : nullptr,
                   err.c_str(), off + used);
            return;
        }
        if (st == ParseStatus::Malformed) {
            defect(issues, nullptr, err.c_str(), off + used);
            return;
        }
        size_t payloadOff = off + kChunkHeaderBytes;
        off = payloadOff + c.payloadLen;
        if (c.session >= meta_.sessions ||
            (!first && c.session < prevSession)) {
            defect(issues, nullptr, "chunk session out of order", off);
            return;
        }
        prevSession = c.session;
        first = false;
        // Session-relative event sequence: the same values the writer
        // records in the footer's entries.
        if (c.session != seqSession) {
            seqSession = c.session;
            seq = 0;
        }
        c.firstSeq = seq;
        seq += c.events;
        c.endSeq = seq;
        if (st == ParseStatus::ChunkCrcMismatch) {
            defect(issues, issues ? &issues->crcFailures : nullptr,
                   err.c_str(), payloadOff);
            continue; // tally mode: skip the corrupt chunk
        }
        c.payloadOff = payloadOff; // rebase from parse window to file
        if (meta_.version >= 2 && c.payloadLen > 0 &&
            b[payloadOff] == static_cast<uint8_t>(Tag::Snapshot))
            c.flags |= kChunkHasSnapshot;
        index.push_back(c);
    }
    if (index.empty())
        defect(issues, nullptr, "trace has no chunks", n);
}

TraceFile
TraceFile::fromBytes(std::vector<uint8_t> bytes)
{
    TraceFile f;
    f.bytes_ = std::move(bytes);
    f.parse(nullptr);
    return f;
}

TraceFile
TraceFile::load(const std::string &path)
{
    return fromBytes(readFile(path));
}

TraceMeta
readTraceHeader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("trace: cannot open '%s'", path.c_str());
    uint8_t buf[kHeaderBytes + 4 * kTimingConfigWords];
    in.read(reinterpret_cast<char *>(buf), sizeof buf);
    size_t got = static_cast<size_t>(in.gcount());
    TraceMeta meta;
    std::string err;
    size_t at = 0;
    switch (parseHeader(buf, got, meta, at, &err)) {
      case ParseStatus::Ok:
        return meta;
      case ParseStatus::VersionSkew:
        fatal("trace: %s — re-record the trace", err.c_str());
      default:
        fatal("trace: %s (at byte %zu)", err.c_str(), at);
    }
}

ValidateResult
TraceFile::validateBytes(const std::vector<uint8_t> &b)
{
    TraceFile f;
    f.bytes_ = b;
    ValidateResult r;
    f.parse(&r);
    r.ok = r.error.empty();
    return r;
}

ValidateResult
TraceFile::validate(const std::string &path)
{
    try {
        return validateBytes(readFile(path));
    } catch (const FatalError &e) {
        ValidateResult r;
        r.error = e.what();
        return r;
    }
}

void
TraceReader::badTag(uint8_t t) const
{
    fatal("trace: unknown record tag %u (at payload byte %zu)", t,
          off - 1);
}

uint64_t
TraceReader::varLong()
{
    uint64_t v = 0;
    uint32_t shift = 0;
    for (;;) {
        if (off == n_)
            truncated();
        uint8_t byte = p_[off++];
        if (shift >= 64 || (shift == 63 && (byte & 0x7e) != 0))
            fatal("trace: varint overflow (at payload byte %zu)", off);
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
    }
}

const uint8_t *
TraceReader::bytes(size_t n)
{
    if (n_ - off < n)
        truncated();
    const uint8_t *r = p_ + off;
    off += n;
    return r;
}

void
TraceReader::skip(size_t n)
{
    if (n_ - off < n)
        truncated();
    off += n;
}

void
TraceReader::truncated() const
{
    fatal("trace: record truncated (at payload byte %zu)", off);
}

} // namespace replay
} // namespace ipds
