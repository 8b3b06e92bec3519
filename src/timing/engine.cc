#include "timing/engine.h"

namespace ipds {

IpdsEngine::IpdsEngine(const TimingConfig &c)
    : cfg(c), inflight(c.requestQueueSize)
{}

uint64_t
IpdsEngine::spillCycles(uint64_t bits) const
{
    return (bits + 511) / 512 * cfg.spillCyclesPer512;
}

uint64_t
IpdsEngine::waitForSlot(uint64_t &now)
{
    uint64_t stall = 0;
    while (inflight.full()) {
        uint64_t freeAt = inflight.front();
        stall += freeAt - now;
        now = freeAt;
        while (!inflight.empty() && inflight.front() <= now)
            inflight.pop();
    }
    if (stall) {
        stat.queueFullStalls++;
        stat.stallCycles += stall;
    }
    return stall;
}

uint64_t
IpdsEngine::frameCost(const IpdsRequest &rq)
{
    switch (rq.kind) {
      case IpdsRequest::Kind::PushFrame: {
        uint64_t c = cfg.tableLatency;
        // Depth guard: past maxFrameDepth the two deepest frames fold
        // into one spilled frame. Their bits stay accounted (the fill
        // on the way back out is still charged) but the model stops
        // growing — unbounded recursion degrades precision at the
        // bottom of the stack instead of memory footprint.
        if (frames.size() >= cfg.maxFrameDepth && frames.size() >= 2) {
            for (size_t i = 0; i < 2; i++) {
                if (!frames[i].spilled) {
                    debit(frames[i].bits);
                    stat.spillEvents++;
                    stat.spillBits += frames[i].bits;
                    c += spillCycles(frames[i].bits);
                }
            }
            frames[1] = {frames[0].bits + frames[1].bits, true};
            frames.erase(frames.begin());
            stat.depthClamps++;
        }
        frames.push_back({rq.tableBits, false});
        residentBits += rq.tableBits;
        stat.framesDepth =
            std::max<uint64_t>(stat.framesDepth, frames.size());
        // Spill the deepest resident frames (not the new top) until
        // the on-chip buffers fit again.
        for (size_t i = 0;
             residentBits > capacityBits() && i + 1 < frames.size();
             i++) {
            if (frames[i].spilled)
                continue;
            frames[i].spilled = true;
            debit(frames[i].bits);
            stat.spillEvents++;
            stat.spillBits += frames[i].bits;
            c += spillCycles(frames[i].bits);
            if (trc)
                trc->record(obs::kCatSpill, obs::TraceKind::Spill,
                            rq.func, rq.pc, frames[i].bits);
        }
        return c;
      }
      case IpdsRequest::Kind::PopFrame: {
        uint64_t c = cfg.tableLatency;
        if (!frames.empty()) {
            if (!frames.back().spilled)
                debit(frames.back().bits);
            frames.pop_back();
        }
        // The new top must be resident to continue checking.
        if (!frames.empty() && frames.back().spilled) {
            frames.back().spilled = false;
            residentBits += frames.back().bits;
            stat.fillEvents++;
            stat.fillBits += frames.back().bits;
            c += spillCycles(frames.back().bits);
            if (trc)
                trc->record(obs::kCatSpill, obs::TraceKind::Fill,
                            rq.func, rq.pc, frames.back().bits);
        }
        return c;
      }
      default:
        break;
    }
    return cfg.tableLatency;
}

void
IpdsEngine::captureState(EngineSnapshot &out) const
{
    out.inflight.clear();
    inflight.forEach([&](uint64_t t) { out.inflight.push_back(t); });
    out.engineFree = engineFree;
    out.frames.clear();
    out.frames.reserve(frames.size());
    for (const FrameBits &fr : frames)
        out.frames.push_back({fr.bits, fr.spilled});
    out.residentBits = residentBits;
    out.stats = stat;
}

uint64_t
IpdsEngine::contextSwitch(bool lazy)
{
    // Bits that are resident on chip and must cross the boundary
    // twice (save outgoing, restore incoming).
    uint64_t residentTotal = 0;
    for (const auto &fr : frames)
        if (!fr.spilled)
            residentTotal += fr.bits;

    if (!lazy)
        return 2 * spillCycles(residentTotal);

    // Lazy strategy: only the active top frame swaps synchronously;
    // everything deeper is marked spilled and migrates off the
    // critical path (it fills on demand when popped back to).
    uint64_t topBits = frames.empty() ? 0 : frames.back().bits;
    for (size_t i = 0; i + 1 < frames.size(); i++) {
        if (!frames[i].spilled) {
            frames[i].spilled = true;
            debit(frames[i].bits);
            stat.spillEvents++;
            stat.spillBits += frames[i].bits;
            if (trc)
                trc->record(obs::kCatSpill, obs::TraceKind::Spill,
                            kNoFunc, 0, frames[i].bits);
        }
    }
    return 2 * spillCycles(topBits);
}

} // namespace ipds
