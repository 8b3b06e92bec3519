#include "replay/snapshot.h"

#include "support/diag.h"

namespace ipds {
namespace replay {

namespace {

void
putVar(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Bounds-checked decode cursor (mirrors TraceReader, blob-local). */
struct Cur
{
    const uint8_t *p;
    size_t n;
    size_t off = 0;

    uint8_t
    byte()
    {
        if (off == n)
            fatal("snapshot: truncated (at blob byte %zu)", off);
        return p[off++];
    }

    uint64_t
    var()
    {
        uint64_t v = 0;
        uint32_t shift = 0;
        for (;;) {
            uint8_t b = byte();
            if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0))
                fatal("snapshot: varint overflow (at blob byte %zu)",
                      off);
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    /** An element count: every element takes at least one byte, so a
     *  count past the bytes left is forged (reject it before any
     *  reserve()). */
    uint64_t
    count(const char *what)
    {
        uint64_t v = var();
        if (v > n - off)
            fatal("snapshot: %s count %llu exceeds the %zu bytes left "
                  "(at blob byte %zu)",
                  what, static_cast<unsigned long long>(v), n - off, off);
        return v;
    }
};

void
encodeDetector(const DetectorSnapshot &d, std::vector<uint8_t> &out)
{
    putVar(out, d.activations.size());
    for (const auto &a : d.activations) {
        putVar(out, a.func);
        putVar(out, a.slots.size());
        for (const auto &sl : a.slots) {
            putVar(out, sl.first);
            out.push_back(sl.second);
        }
    }
    putVar(out, d.stats.branchesSeen);
    putVar(out, d.stats.checksEnqueued);
    putVar(out, d.stats.updatesApplied);
    putVar(out, d.stats.actionsApplied);
    putVar(out, d.stats.framesPushed);
    putVar(out, d.stats.maxStackDepth);
    putVar(out, d.alarmsSoFar);
}

void
decodeDetector(Cur &c, DetectorSnapshot &d)
{
    uint64_t acts = c.count("activation");
    d.activations.clear();
    d.activations.reserve(acts);
    for (uint64_t i = 0; i < acts; ++i) {
        DetectorSnapshot::Activation a;
        a.func = static_cast<FuncId>(c.var());
        uint64_t slots = c.count("slot");
        a.slots.reserve(slots);
        for (uint64_t s = 0; s < slots; ++s) {
            uint32_t slot = static_cast<uint32_t>(c.var());
            uint8_t st = c.byte();
            a.slots.emplace_back(slot, st);
        }
        d.activations.push_back(std::move(a));
    }
    d.stats.branchesSeen = c.var();
    d.stats.checksEnqueued = c.var();
    d.stats.updatesApplied = c.var();
    d.stats.actionsApplied = c.var();
    d.stats.framesPushed = c.var();
    d.stats.maxStackDepth = static_cast<size_t>(c.var());
    d.alarmsSoFar = c.var();
}

void
encodeTiming(const TimingStats &t, const EngineSnapshot &e,
             std::vector<uint8_t> &out)
{
    putVar(out, t.instructions);
    putVar(out, t.cycles);
    putVar(out, t.branches);
    putVar(out, t.mispredicts);
    putVar(out, t.l1iMisses);
    putVar(out, t.l1dMisses);
    putVar(out, t.l2Misses);
    putVar(out, t.tlbMisses);
    putVar(out, t.ipdsStallCycles);
    putVar(out, t.ringMaxOccupancy);
    putVar(out, t.ringDrains);
    putVar(out, t.ringOverflowFlushes);
    putVar(out, t.ringFaultDrops);
    putVar(out, t.ringFaultDups);
    const EngineStats &s = e.stats;
    putVar(out, s.requests);
    putVar(out, s.checkRequests);
    putVar(out, s.updateRequests);
    putVar(out, s.busyCycles);
    putVar(out, s.queueFullStalls);
    putVar(out, s.stallCycles);
    putVar(out, s.spillEvents);
    putVar(out, s.spillBits);
    putVar(out, s.fillEvents);
    putVar(out, s.fillBits);
    putVar(out, s.checkLatencySum);
    putVar(out, s.checkLatencyCount);
    putVar(out, s.framesDepth);
    putVar(out, s.depthClamps);
    putVar(out, s.accountingClamps);
    putVar(out, e.inflight.size());
    for (uint64_t v : e.inflight)
        putVar(out, v);
    putVar(out, e.engineFree);
    putVar(out, e.frames.size());
    for (const auto &fr : e.frames) {
        putVar(out, fr.bits);
        out.push_back(fr.spilled ? 1 : 0);
    }
    putVar(out, e.residentBits);
}

void
decodeTiming(Cur &c, TimingStats &t, EngineSnapshot &e)
{
    t.instructions = c.var();
    t.cycles = c.var();
    t.branches = c.var();
    t.mispredicts = c.var();
    t.l1iMisses = c.var();
    t.l1dMisses = c.var();
    t.l2Misses = c.var();
    t.tlbMisses = c.var();
    t.ipdsStallCycles = c.var();
    t.ringMaxOccupancy = c.var();
    t.ringDrains = c.var();
    t.ringOverflowFlushes = c.var();
    t.ringFaultDrops = c.var();
    t.ringFaultDups = c.var();
    EngineStats &s = e.stats;
    s.requests = c.var();
    s.checkRequests = c.var();
    s.updateRequests = c.var();
    s.busyCycles = c.var();
    s.queueFullStalls = c.var();
    s.stallCycles = c.var();
    s.spillEvents = c.var();
    s.spillBits = c.var();
    s.fillEvents = c.var();
    s.fillBits = c.var();
    s.checkLatencySum = c.var();
    s.checkLatencyCount = c.var();
    s.framesDepth = c.var();
    s.depthClamps = c.var();
    s.accountingClamps = c.var();
    t.engine = s;
    uint64_t inflight = c.count("inflight");
    e.inflight.clear();
    e.inflight.reserve(inflight);
    for (uint64_t i = 0; i < inflight; ++i)
        e.inflight.push_back(c.var());
    e.engineFree = c.var();
    uint64_t frames = c.count("frame");
    e.frames.clear();
    e.frames.reserve(frames);
    for (uint64_t i = 0; i < frames; ++i) {
        EngineSnapshot::FrameBits fr;
        fr.bits = c.var();
        fr.spilled = c.byte() != 0;
        e.frames.push_back(fr);
    }
    e.residentBits = c.var();
}

} // namespace

void
encodeSnapshot(const SnapshotData &data, std::vector<uint8_t> &out)
{
    out.push_back(kSnapshotVersion);
    uint8_t sections = 0;
    if (data.hasDetector)
        sections |= kSnapSectionDetector;
    if (data.hasTiming)
        sections |= kSnapSectionTiming;
    out.push_back(sections);
    if (data.hasDetector)
        encodeDetector(data.det, out);
    if (data.hasTiming)
        encodeTiming(data.tim, data.engine, out);
}

void
decodeSnapshot(const uint8_t *p, size_t n, SnapshotData &out)
{
    Cur c{p, n};
    uint8_t version = c.byte();
    if (version != kSnapshotVersion)
        fatal("snapshot: version %u, this build reads version %u",
              version, kSnapshotVersion);
    uint8_t sections = c.byte();
    if (sections &
        ~static_cast<uint8_t>(kSnapSectionDetector |
                              kSnapSectionTiming))
        fatal("snapshot: unknown section bits 0x%02x", sections);
    out.hasDetector = (sections & kSnapSectionDetector) != 0;
    out.hasTiming = (sections & kSnapSectionTiming) != 0;
    if (out.hasDetector)
        decodeDetector(c, out.det);
    if (out.hasTiming)
        decodeTiming(c, out.tim, out.engine);
    if (c.off != n)
        fatal("snapshot: %zu trailing bytes", n - c.off);
}

} // namespace replay
} // namespace ipds
