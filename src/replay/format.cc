#include "replay/format.h"

#include <array>

#include "ir/ir.h"

namespace ipds {
namespace replay {

namespace {

/**
 * Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
 * t[0] is the classic bytewise table, and t[k][b] is the CRC of byte
 * b followed by k zero bytes, so eight table lookups fold one 8-byte
 * word into the running CRC.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    return t;
}

constexpr CrcTables kCrc = makeCrcTables();

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

struct Fnv
{
    uint64_t h = kFnvOffset;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= kFnvPrime;
    }

    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
};

} // namespace

uint32_t
crc32(const uint8_t *p, size_t n)
{
    uint32_t c = 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo = getU32(p) ^ c;
        uint32_t hi = getU32(p + 4);
        c = kCrc[7][lo & 0xff] ^ kCrc[6][(lo >> 8) & 0xff] ^
            kCrc[5][(lo >> 16) & 0xff] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xff] ^ kCrc[2][(hi >> 8) & 0xff] ^
            kCrc[1][(hi >> 16) & 0xff] ^ kCrc[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = kCrc[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

uint64_t
moduleContentHash(const Module &mod)
{
    Fnv f;
    f.u64(mod.functions.size());
    f.u64(mod.objects.size());
    f.u64(mod.entry);
    for (const MemObject &o : mod.objects) {
        f.str(o.name);
        f.byte(static_cast<uint8_t>(o.kind));
        f.u64(o.owner);
        f.u64(o.size);
        f.byte(o.isArray ? 1 : 0);
        f.byte(static_cast<uint8_t>(o.elem));
        f.u64(o.init.size());
        for (uint8_t b : o.init)
            f.byte(b);
    }
    for (const Function &fn : mod.functions) {
        f.str(fn.name);
        f.u64(fn.numParams);
        f.byte(fn.returnsValue ? 1 : 0);
        f.u64(fn.blocks.size());
        f.u64(fn.entryPc);
        for (const BasicBlock &bb : fn.blocks) {
            f.u64(bb.insts.size());
            for (const Inst &in : bb.insts) {
                f.byte(static_cast<uint8_t>(in.op));
                f.byte(static_cast<uint8_t>(in.size));
                f.byte(static_cast<uint8_t>(in.bin));
                f.byte(static_cast<uint8_t>(in.pred));
                f.byte(static_cast<uint8_t>(in.builtin));
                f.u64(in.dst);
                f.u64(in.srcA);
                f.u64(in.srcB);
                f.u64(static_cast<uint64_t>(in.imm));
                f.u64(in.object);
                f.u64(in.callee);
                f.u64(in.target);
                f.u64(in.fallthrough);
                f.u64(in.args.size());
                for (Vreg a : in.args)
                    f.u64(a);
                f.u64(in.pc);
            }
        }
    }
    return f.h;
}

void
packTimingConfig(const TimingConfig &cfg, uint32_t *out)
{
    size_t i = 0;
    auto put = [&](uint32_t v) { out[i++] = v; };
    auto cache = [&](const CacheConfig &c) {
        put(c.sizeBytes);
        put(c.ways);
        put(c.blockBytes);
        put(c.latency);
    };
    put(cfg.fetchQueue);
    put(cfg.decodeWidth);
    put(cfg.issueWidth);
    put(cfg.commitWidth);
    put(cfg.ruuSize);
    put(cfg.lsqSize);
    cache(cfg.l1i);
    cache(cfg.l1d);
    cache(cfg.l2);
    put(cfg.memFirstChunk);
    put(cfg.memInterChunk);
    put(cfg.tlbMissCycles);
    put(cfg.tlbEntries);
    put(cfg.pageBytes);
    put(cfg.bhtEntries);
    put(cfg.historyBits);
    put(cfg.btbEntries);
    put(cfg.mispredictPenalty);
    put(cfg.ipdsEnabled ? 1 : 0);
    put(cfg.bsvStackBits);
    put(cfg.bcvStackBits);
    put(cfg.batStackBits);
    put(cfg.tableLatency);
    put(cfg.batEntriesPerAccess);
    put(cfg.requestQueueSize);
    put(cfg.spillCyclesPer512);
    put(cfg.requestRingCapacity);
    put(cfg.maxFrameDepth);
    put(cfg.inputCallInsts);
    put(cfg.outputCallInsts);
    put(cfg.stringCallInsts);
    put(cfg.builtinInstCost);
    static_assert(kTimingConfigWords == 41,
                  "field list below must match kTimingConfigWords");
}

TimingConfig
unpackTimingConfig(const uint32_t *in)
{
    TimingConfig cfg;
    size_t i = 0;
    auto get = [&]() { return in[i++]; };
    auto cache = [&](CacheConfig &c) {
        c.sizeBytes = get();
        c.ways = get();
        c.blockBytes = get();
        c.latency = get();
    };
    cfg.fetchQueue = get();
    cfg.decodeWidth = get();
    cfg.issueWidth = get();
    cfg.commitWidth = get();
    cfg.ruuSize = get();
    cfg.lsqSize = get();
    cache(cfg.l1i);
    cache(cfg.l1d);
    cache(cfg.l2);
    cfg.memFirstChunk = get();
    cfg.memInterChunk = get();
    cfg.tlbMissCycles = get();
    cfg.tlbEntries = get();
    cfg.pageBytes = get();
    cfg.bhtEntries = get();
    cfg.historyBits = get();
    cfg.btbEntries = get();
    cfg.mispredictPenalty = get();
    cfg.ipdsEnabled = get() != 0;
    cfg.bsvStackBits = get();
    cfg.bcvStackBits = get();
    cfg.batStackBits = get();
    cfg.tableLatency = get();
    cfg.batEntriesPerAccess = get();
    cfg.requestQueueSize = get();
    cfg.spillCyclesPer512 = get();
    cfg.requestRingCapacity = get();
    cfg.maxFrameDepth = get();
    cfg.inputCallInsts = get();
    cfg.outputCallInsts = get();
    cfg.stringCallInsts = get();
    cfg.builtinInstCost = get();
    return cfg;
}

void
encodeHeader(const TraceMeta &meta, uint8_t *out)
{
    for (size_t i = 0; i < 8; ++i)
        out[i] = kTraceMagic[i];
    putU32(out + 8, meta.version);
    putU32(out + 12, meta.flags);
    putU64(out + 16, meta.moduleHash);
    putU32(out + 24, meta.sessions);
    putU32(out + 28, meta.shards);
    putU32(out + 32, meta.hasTiming ? kTimingConfigWords : 0);
    putU32(out + 36, crc32(out, 36));
    if (meta.hasTiming) {
        uint32_t words[kTimingConfigWords];
        packTimingConfig(meta.timing, words);
        for (uint32_t i = 0; i < kTimingConfigWords; ++i)
            putU32(out + kHeaderBytes + 4 * i, words[i]);
    }
}

void
encodeIndexEntry(const ChunkIndexEntry &e, uint8_t *out)
{
    putU64(out, e.fileOffset);
    putU32(out + 8, e.payloadLen);
    putU32(out + 12, e.events);
    putU32(out + 16, e.session);
    putU32(out + 20, e.flags);
    putU64(out + 24, e.firstSeq);
    putU64(out + 32, e.endSeq);
}

ChunkIndexEntry
decodeIndexEntry(const uint8_t *p)
{
    ChunkIndexEntry e;
    e.fileOffset = getU64(p);
    e.payloadLen = getU32(p + 8);
    e.events = getU32(p + 12);
    e.session = getU32(p + 16);
    e.flags = getU32(p + 20);
    e.firstSeq = getU64(p + 24);
    e.endSeq = getU64(p + 32);
    return e;
}

void
appendIndexFooter(std::vector<uint8_t> &out,
                  const ChunkIndexEntry *entries, size_t count,
                  uint64_t footerFileOff)
{
    const size_t payloadLen = count * kIndexEntryBytes;
    const size_t base = out.size();
    out.resize(base + kChunkHeaderBytes + payloadLen +
               kIndexTrailerBytes);
    uint8_t *p = out.data() + base;
    putU32(p, static_cast<uint32_t>(payloadLen));
    putU32(p + 4, static_cast<uint32_t>(count));
    putU32(p + 8, kIndexSession);
    uint8_t *payload = p + kChunkHeaderBytes;
    for (size_t i = 0; i < count; ++i)
        encodeIndexEntry(entries[i], payload + i * kIndexEntryBytes);
    putU32(p + 12, crc32(payload, payloadLen));
    uint8_t *trailer = payload + payloadLen;
    for (size_t i = 0; i < 8; ++i)
        trailer[i] = kIndexTrailerMagic[i];
    putU64(trailer + 8, footerFileOff);
}

} // namespace replay
} // namespace ipds
