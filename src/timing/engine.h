#ifndef IPDS_TIMING_ENGINE_H
#define IPDS_TIMING_ENGINE_H

/**
 * @file
 * Timing model of the IPDS hardware engine (§5.4):
 *
 *  - an ordered request queue fed by committed branches and function
 *    entries/exits; the program only stalls when the queue is full;
 *  - a serial checker processing one table access per cycle, walking
 *    BAT action lists entry by entry (the "link list" of §6);
 *  - on-chip stack buffers for BSV/BCV/BAT with spill/fill of deep
 *    frames to reserved memory, Itanium-RSE style.
 *
 * The queue is a TickFifo of requestQueueSize completion times, sized
 * once at construction: enqueue() allocates nothing but the table
 * frames a push request adds. enqueue() is inline for what every
 * branch sends, a Check or an Update; waiting on a full queue and
 * frame push/pop run out of line.
 */

#include <algorithm>
#include <vector>

#include "ipds/detector.h"
#include "obs/trace.h"
#include "timing/config.h"
#include "timing/tick_fifo.h"

namespace ipds {

/** Aggregate statistics of the IPDS engine. */
struct EngineStats
{
    uint64_t requests = 0;
    uint64_t checkRequests = 0;
    uint64_t updateRequests = 0;
    uint64_t busyCycles = 0;
    uint64_t queueFullStalls = 0;   ///< events where the CPU stalled
    uint64_t stallCycles = 0;       ///< total CPU cycles lost
    uint64_t spillEvents = 0;
    uint64_t spillBits = 0;
    uint64_t fillEvents = 0;
    uint64_t fillBits = 0;
    /** Sum and count for mean branch-to-verdict latency (§6: 11.7). */
    uint64_t checkLatencySum = 0;
    uint64_t checkLatencyCount = 0;
    /** Deepest table stack seen (gauge, ipds.engine.frames_depth). */
    uint64_t framesDepth = 0;
    /** Times the depth guard merged frames (graceful degradation). */
    uint64_t depthClamps = 0;
    /** Times residentBits accounting saturated instead of wrapping
     *  (only reachable under fault-perturbed request streams). */
    uint64_t accountingClamps = 0;

    double
    avgCheckLatency() const
    {
        return checkLatencyCount
            ? double(checkLatencySum) / checkLatencyCount : 0.0;
    }

    /** Accumulate another engine's counters (session sharding). */
    void
    merge(const EngineStats &o)
    {
        requests += o.requests;
        checkRequests += o.checkRequests;
        updateRequests += o.updateRequests;
        busyCycles += o.busyCycles;
        queueFullStalls += o.queueFullStalls;
        stallCycles += o.stallCycles;
        spillEvents += o.spillEvents;
        spillBits += o.spillBits;
        fillEvents += o.fillEvents;
        fillBits += o.fillBits;
        checkLatencySum += o.checkLatencySum;
        checkLatencyCount += o.checkLatencyCount;
        framesDepth = std::max(framesDepth, o.framesDepth);
        depthClamps += o.depthClamps;
        accountingClamps += o.accountingClamps;
    }

    bool
    operator==(const EngineStats &o) const
    {
        return requests == o.requests &&
            checkRequests == o.checkRequests &&
            updateRequests == o.updateRequests &&
            busyCycles == o.busyCycles &&
            queueFullStalls == o.queueFullStalls &&
            stallCycles == o.stallCycles &&
            spillEvents == o.spillEvents &&
            spillBits == o.spillBits &&
            fillEvents == o.fillEvents && fillBits == o.fillBits &&
            checkLatencySum == o.checkLatencySum &&
            checkLatencyCount == o.checkLatencyCount &&
            framesDepth == o.framesDepth &&
            depthClamps == o.depthClamps &&
            accountingClamps == o.accountingClamps;
    }
};

/**
 * Portable image of the engine's live state (trace snapshots): the
 * queued completion times, the table-stack frames with their
 * spill bits, and the running counters. TimingConfig is not part of
 * the image. Captures embed it; nothing restores an engine from it
 * (a timing trace replays from the start of a session).
 */
struct EngineSnapshot
{
    std::vector<uint64_t> inflight; ///< oldest first
    uint64_t engineFree = 0;
    struct FrameBits
    {
        uint64_t bits = 0;
        bool spilled = false;
    };
    std::vector<FrameBits> frames;
    uint64_t residentBits = 0;
    EngineStats stats;
};

/**
 * The engine. The CPU model calls enqueue() at the commit cycle of the
 * triggering instruction; the return value is the number of cycles the
 * CPU must stall (nonzero only when the request queue is full).
 */
class IpdsEngine
{
  public:
    explicit IpdsEngine(const TimingConfig &cfg);

    /** Submit a request at @p now; returns CPU stall cycles. */
    uint64_t
    enqueue(const IpdsRequest &rq, uint64_t now)
    {
        stat.requests++;

        // Retire completed requests.
        while (!inflight.empty() && inflight.front() <= now)
            inflight.pop();

        uint64_t stall = inflight.full() ? waitForSlot(now) : 0;

        uint64_t c;
        if (rq.kind == IpdsRequest::Kind::Check) {
            stat.checkRequests++;
            c = cfg.tableLatency;
        } else if (rq.kind == IpdsRequest::Kind::Update) {
            stat.updateRequests++;
            c = listCost(rq.actionCount);
        } else {
            c = frameCost(rq);
        }
        uint64_t finish = std::max(now, engineFree) + c;
        stat.busyCycles += c;
        engineFree = finish;
        inflight.push(finish);

        if (rq.kind == IpdsRequest::Kind::Check) {
            stat.checkLatencySum += finish - now;
            stat.checkLatencyCount++;
        }
        return stall;
    }

    /** Trace spill/fill traffic under kCatSpill (null: no tracing). */
    void setTracer(obs::Tracer *t) { trc = t; }

    /**
     * Model a context switch (§5.4): the protected process's tables
     * must be saved and the incoming process's restored.
     *
     * @param lazy if false, save and restore every resident frame
     *        synchronously; if true, apply the paper's optimization —
     *        swap only the top of the stacks (about 1K bits)
     *        synchronously and migrate deeper frames in parallel with
     *        the new process's execution (they are marked spilled and
     *        fill on demand).
     * @return the synchronous latency in cycles.
     */
    uint64_t contextSwitch(bool lazy);

    const EngineStats &stats() const { return stat; }

    /** Bits currently resident on chip (tests assert the invariant
     *  residentBits == sum of non-spilled frame bits, and that it
     *  never wraps under randomized or fault-perturbed streams). */
    uint64_t residentTableBits() const { return residentBits; }
    /** Tracked table-stack depth (bounded by cfg.maxFrameDepth). */
    size_t frameDepth() const { return frames.size(); }

    /** Capture the full engine state (trace snapshots). */
    void captureState(EngineSnapshot &out) const;

  private:
    /**
     * Queue-full back-pressure: the CPU waits until the oldest request
     * completes (the only situation where IPDS slows the program).
     * Advances @p now past the wait; returns the stall cycles.
     */
    uint64_t waitForSlot(uint64_t &now);

    /**
     * Cost of an Update walking @p actions BAT entries: one table
     * access for the list head plus one per fetched row of the linked
     * action list (§6: "we may need to access the BAT table several
     * times to handle a BSV update request").
     */
    uint32_t
    listCost(uint32_t actions) const
    {
        return cfg.tableLatency +
            (actions + cfg.batEntriesPerAccess - 1) /
                cfg.batEntriesPerAccess;
    }

    /** Service cost of a PushFrame/PopFrame, with spill/fill. */
    uint64_t frameCost(const IpdsRequest &rq);

    uint64_t spillCycles(uint64_t bits) const;

    /**
     * Subtract @p bits from residentBits, saturating at zero. In an
     * unfaulted run the debit is always covered (the accounting is
     * transition-guarded); a fault-perturbed request stream (dropped
     * or duplicated push/pop) can try to over-debit, which must clamp
     * — counted — rather than wrap to 2^64.
     */
    void
    debit(uint64_t bits)
    {
        if (bits > residentBits) {
            residentBits = 0;
            stat.accountingClamps++;
        } else {
            residentBits -= bits;
        }
    }

    const TimingConfig &cfg;
    EngineStats stat;
    obs::Tracer *trc = nullptr;

    /** Completion times of queued requests, oldest first. */
    TickFifo inflight;
    uint64_t engineFree = 0;

    /** On-chip table stack model. */
    struct FrameBits
    {
        uint64_t bits = 0;
        bool spilled = false;
    };
    std::vector<FrameBits> frames;
    uint64_t residentBits = 0;

    uint64_t capacityBits() const
    {
        return cfg.bsvStackBits + cfg.bcvStackBits + cfg.batStackBits;
    }
};

} // namespace ipds

#endif // IPDS_TIMING_ENGINE_H
