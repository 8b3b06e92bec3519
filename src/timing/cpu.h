#ifndef IPDS_TIMING_CPU_H
#define IPDS_TIMING_CPU_H

/**
 * @file
 * Trace-driven superscalar timing model, the stand-in for the paper's
 * SimpleScalar runs (Table 1 configuration).
 *
 * The model is a scoreboard over the committed instruction stream:
 *
 *  - dispatch is paced at issueWidth per cycle, stalled by I-cache /
 *    ITLB misses, branch-misprediction redirects and RUU occupancy
 *    (dispatch may not run more than ruuSize instructions ahead of
 *    commit);
 *  - an instruction issues when its source vregs are ready and
 *    completes after its operation latency (loads: L1/L2/memory);
 *  - commit is in order at commitWidth per cycle;
 *  - committed branches feed the IPDS engine; a full request queue
 *    stalls commit (the only program-visible IPDS cost, §5.4).
 *
 * Cycles are accounted in integer "ticks" (1 tick = 1/commitWidth
 * cycle) so results are exactly reproducible.
 *
 * The scoreboard is flat. Ready ticks live in one row per call depth,
 * indexed by vreg, and the model keeps the current depth's row bound
 * (pointer and size, refreshed on call, return and growth), so a
 * source lookup is one compare and one load. The RUU, LSQ and fetch
 * queue are primed fixed-lag TickFifo lines sized once from the
 * config: one index each, no occupancy count or full() test. The
 * constructor checks the config (checkTimingConfig) and turns every
 * per-instruction division into a precomputed quotient, shift or
 * mask. A simulated instruction costs no hash lookup, no allocation
 * once its row is wide enough, and no division.
 */

#include <vector>

#include "ipds/detector.h"
#include "timing/branchpred.h"
#include "timing/cache.h"
#include "timing/config.h"
#include "timing/engine.h"
#include "timing/tick_fifo.h"
#include "vm/vm.h"

namespace ipds {

/** Timing results of one run. */
struct TimingStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t l1iMisses = 0;
    uint64_t l1dMisses = 0;
    uint64_t l2Misses = 0;
    uint64_t tlbMisses = 0;
    uint64_t ipdsStallCycles = 0;
    /** Deepest request-ring occupancy seen at a drain (gauge). */
    uint64_t ringMaxOccupancy = 0;
    /** Non-empty ring drains (commit-point batches). */
    uint64_t ringDrains = 0;
    /** Ring chunk-flush backpressure events (overflow, no abort). */
    uint64_t ringOverflowFlushes = 0;
    /** Requests dropped / duplicated by an armed ring fault filter. */
    uint64_t ringFaultDrops = 0;
    uint64_t ringFaultDups = 0;
    EngineStats engine;

    double
    ipc() const
    {
        return cycles ? double(instructions) / cycles : 0.0;
    }

    /**
     * Accumulate another model's counters (session sharding): every
     * field sums, including cycles — shards simulate disjoint session
     * streams, so total work is the sum of per-shard work.
     */
    void
    merge(const TimingStats &o)
    {
        instructions += o.instructions;
        cycles += o.cycles;
        branches += o.branches;
        mispredicts += o.mispredicts;
        l1iMisses += o.l1iMisses;
        l1dMisses += o.l1dMisses;
        l2Misses += o.l2Misses;
        tlbMisses += o.tlbMisses;
        ipdsStallCycles += o.ipdsStallCycles;
        ringMaxOccupancy = std::max(ringMaxOccupancy,
                                    o.ringMaxOccupancy);
        ringDrains += o.ringDrains;
        ringOverflowFlushes += o.ringOverflowFlushes;
        ringFaultDrops += o.ringFaultDrops;
        ringFaultDups += o.ringFaultDups;
        engine.merge(o.engine);
    }

    /** Field-exact equality (differential fault-oracle tests). */
    bool
    operator==(const TimingStats &o) const
    {
        return instructions == o.instructions && cycles == o.cycles &&
            branches == o.branches && mispredicts == o.mispredicts &&
            l1iMisses == o.l1iMisses && l1dMisses == o.l1dMisses &&
            l2Misses == o.l2Misses && tlbMisses == o.tlbMisses &&
            ipdsStallCycles == o.ipdsStallCycles &&
            ringMaxOccupancy == o.ringMaxOccupancy &&
            ringDrains == o.ringDrains &&
            ringOverflowFlushes == o.ringOverflowFlushes &&
            ringFaultDrops == o.ringFaultDrops &&
            ringFaultDups == o.ringFaultDups && engine == o.engine;
    }
};

/**
 * The CPU model. Attach to a Vm as an observer; when IPDS is enabled,
 * also install its detector hook:
 *
 *   CpuModel cpu(cfg);
 *   Detector det(prog);
 *   det.setRequestRing(&cpu.requestRing());
 *   vm.addObserver(&det);   // detector first: requests precede commit
 *   vm.addObserver(&cpu);
 */
class CpuModel final : public ExecObserver
{
  public:
    /** FatalError naming the field when checkTimingConfig() rejects
     *  @p cfg. */
    explicit CpuModel(const TimingConfig &cfg);

    /**
     * Request transport: point the detector at this ring
     * (det.setRequestRing(&cpu.requestRing())) and requests are
     * written inline and drained in batches at each commit — no
     * indirect call per branch.
     */
    RequestRing &requestRing() { return reqRing; }

    /**
     * A plain sink forwarding into the ring, for ReferenceDetector
     * (the oracle keeps its std::function sink); Detector writes the
     * ring directly.
     */
    std::function<void(const IpdsRequest &)> requestSink();

    /**
     * Attach a structured-event tracer: request dequeues (with stall
     * cycles) are recorded under kCatQueue, engine spill/fill traffic
     * under kCatSpill. Null keeps the drain loop trace-free.
     */
    void setTracer(obs::Tracer *t);

    void onInst(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
                bool is_load) override;
    void onBranch(FuncId f, uint64_t pc, bool taken) override;
    void onFunctionEnter(FuncId f) override;
    void onFunctionExit(FuncId f) override;

    /**
     * Batched delivery: replays the per-event commit pipeline with one
     * virtual call per block. Requests the detector enqueued for the
     * whole batch are drained per instruction via their seq stamps
     * (drainThrough), so queue depths, stalls and cycles are
     * bit-identical to per-event delivery.
     */
    void onBatch(const EventBatch &b) override;

    /**
     * Model a context switch away from and back to the protected
     * process (§5.4): the synchronous table save/restore latency
     * stalls the pipeline. @p lazy selects the paper's top-of-stack
     * swap optimization. Returns the charged cycles.
     */
    uint64_t contextSwitch(bool lazy);

    /** Finalized statistics. */
    TimingStats stats() const;

    /** Direct access to the IPDS engine (trace snapshots capture its
     *  state; see timing/engine.h EngineSnapshot). */
    IpdsEngine &ipdsEngine() { return engine; }
    const IpdsEngine &ipdsEngine() const { return engine; }

  private:
    uint64_t curCycle() const { return lastCommitTick >> commitShift; }

    /**
     * One committed instruction through the scoreboard. @p drain_seq
     * bounds the ring drain at this commit point: kDrainAllSeq for
     * per-event delivery, the in-batch event index for onBatch.
     */
    void instCore(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
                  uint32_t drain_seq);

    /** Ready tick of a source vreg at the current depth (0 if never
     *  written; kNoVreg's slot 0 is never written). */
    uint64_t srcReady(Vreg v) const { return v < rowLen ? row[v] : 0; }

    void
    setReady(Vreg v, uint64_t tick)
    {
        if (v == kNoVreg)
            return;
        if (v >= rowLen)
            growRow(v);
        row[v] = tick;
    }

    /** Bind row/rowLen to the current depth's row (none: 0 and null). */
    void bindRow();
    /** Widen the current depth's row to hold @p v (rounded up to a
     *  power of two), and rebind. */
    void growRow(Vreg v);

    /** Load-use latency in cycles through the hierarchy. */
    uint64_t loadLatency(uint64_t addr);
    /** TLB probe; returns penalty cycles. */
    uint64_t tlbAccess(uint64_t addr);

    TimingConfig cfg; ///< checked before anything below is built

    // Per-instruction constants derived from cfg.
    uint32_t dispatchStep;  ///< commitWidth / issueWidth
    uint32_t commitShift;   ///< log2 commitWidth
    uint32_t fetchShift;    ///< log2 l1i.blockBytes
    uint32_t pageShift;     ///< log2 pageBytes
    uint64_t tlbMask;       ///< tlbEntries - 1
    uint64_t memMissCycles; ///< L2 miss: first chunk + the rest

    Cache l1i;
    Cache l1d;
    Cache l2;
    BranchPredictor bpred;
    IpdsEngine engine;

    std::vector<uint64_t> tlb; ///< page tags, direct-mapped
    uint64_t tlbMissCount = 0;

    // Scoreboard state (all in ticks = 1/commitWidth cycle).
    uint64_t dispatchTick = 0;
    uint64_t redirectTick = 0;
    uint64_t lastCommitTick = 0;
    // Fixed-lag lines, primed with 0 (a floor max() ignores): front()
    // is the tick the instruction ruuSize (lsqSize memory operations,
    // fetchQueue instructions) back left.
    TickFifo ruuLine;   ///< commit ticks of the in-flight window
    TickFifo lsqLine;   ///< commit ticks of in-flight mem ops
    TickFifo fetchLine; ///< refill floors: dispatch tick + commitWidth
    /**
     * Ready ticks, [call depth][vreg]. A row is not cleared when its
     * call returns: a later call at the same depth sees the ticks the
     * earlier one left. Rows (and the depth vector) grow only when a
     * tick is written past their end, to the next power of two; slots
     * never written read 0.
     */
    std::vector<std::vector<uint64_t>> readyRows;
    uint32_t frameDepth = 0;
    uint64_t *row = nullptr; ///< readyRows[frameDepth], bound
    size_t rowLen = 0;       ///< its size; 0 when it does not exist

    uint64_t nInst = 0;
    uint64_t nBranch = 0;
    uint64_t ipdsStalls = 0;
    uint64_t lastFetchBlock = ~0ULL;

    RequestRing reqRing;
    obs::Tracer *trc = nullptr;
    bool branchPending = false;
    uint64_t pendingPc = 0;
    bool pendingTaken = false;
};

} // namespace ipds

#endif // IPDS_TIMING_CPU_H
