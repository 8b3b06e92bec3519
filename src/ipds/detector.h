#ifndef IPDS_IPDS_DETECTOR_H
#define IPDS_IPDS_DETECTOR_H

/**
 * @file
 * The runtime half of IPDS (paper §5.4), functionally modelled.
 *
 * Per protected process the hardware keeps stacks of BSV/BCV/BAT
 * tables, one frame per active function. Every committed conditional
 * branch is hashed into its function's tables; if the BCV marks it, the
 * actual direction is verified against the BSV's expected direction
 * (UNKNOWN matches anything; any other mismatch is an attack alarm).
 * The branch's BAT action list then updates the BSVs.
 *
 * Hot-path engineering (see DESIGN.md "Runtime fast path"):
 *  - branch slots and BCV bits come from the table-layout-time
 *    slotLookup, so onBranch performs two array reads, no hashing;
 *  - BSV frames are pooled per function and reset lazily with a
 *    generation stamp, so entry/exit are O(entryActions) and
 *    allocation-free in steady state;
 *  - hardware requests stream through a RequestRing written inline,
 *    not through a type-erased callback; the ring is the one request
 *    transport (ReferenceDetector keeps a plain sink as the oracle).
 *
 * Timing (queueing, spills, latency) is modelled separately in
 * src/timing; this class is exact w.r.t. detection semantics and also
 * emits request descriptors the timing model consumes. The pre-overhaul
 * implementation survives as ReferenceDetector (ipds/reference.h) and
 * the two are held byte-identical by differential tests.
 */

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "core/program.h"
#include "ipds/request_ring.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "vm/vm.h"

namespace ipds {

/** Expected-direction encoding stored in the BSV (2 bits). */
enum class BsvState : uint8_t
{
    Unknown = 0,
    Taken = 1,
    NotTaken = 2,
};

/** One detected infeasible path. */
struct Alarm
{
    FuncId func = kNoFunc;
    uint64_t pc = 0;
    bool actualTaken = false;
    BsvState expected = BsvState::Unknown;
    uint64_t branchIndex = 0; ///< dynamic branch count at detection
};

/**
 * Aggregate functional statistics of one run. Field names follow the
 * shared metric naming scheme (obs/names.h): branchesSeen is exported
 * as "ipds.detector.branches_seen", and so on.
 */
struct DetectorStats
{
    uint64_t branchesSeen = 0;
    uint64_t checksEnqueued = 0;
    uint64_t updatesApplied = 0;
    uint64_t actionsApplied = 0;
    uint64_t framesPushed = 0;
    size_t maxStackDepth = 0;

    /**
     * Accumulate another run's counters (multi-session aggregation):
     * counts sum, the depth gauge takes the maximum.
     */
    void
    merge(const DetectorStats &o)
    {
        branchesSeen += o.branchesSeen;
        checksEnqueued += o.checksEnqueued;
        updatesApplied += o.updatesApplied;
        actionsApplied += o.actionsApplied;
        framesPushed += o.framesPushed;
        maxStackDepth = std::max(maxStackDepth, o.maxStackDepth);
    }

    bool
    operator==(const DetectorStats &o) const
    {
        return branchesSeen == o.branchesSeen &&
            checksEnqueued == o.checksEnqueued &&
            updatesApplied == o.updatesApplied &&
            actionsApplied == o.actionsApplied &&
            framesPushed == o.framesPushed &&
            maxStackDepth == o.maxStackDepth;
    }
};

/**
 * Portable image of a detector's live state at one instant of a
 * session: the BSV frame stack (bottom→top, each frame reduced to its
 * known slots) plus the running counters. Captured by the trace
 * writer's periodic snapshots (replay/snapshot.h) and restored by
 * seekable replay to resume mid-session without re-feeding the prefix.
 */
struct DetectorSnapshot
{
    struct Activation
    {
        FuncId func = kNoFunc;
        /** (slot, BsvState) pairs for every non-Unknown slot,
         *  ascending by slot. */
        std::vector<std::pair<uint32_t, uint8_t>> slots;
    };
    std::vector<Activation> activations; ///< bottom→top
    DetectorStats stats;
    uint64_t alarmsSoFar = 0;
};

/**
 * Functional IPDS detector; attach to a Vm as an ExecObserver.
 *
 * The class is final and its event handlers are defined inline below:
 * callers that hold a concrete Detector (the replay/bench loops, the
 * sharded session runners) get devirtualized, fully inlined hot paths;
 * only dispatch through an ExecObserver* pays a virtual call.
 */
class Detector final : public ExecObserver
{
  public:
    /** @p prog must outlive the detector. */
    explicit Detector(const CompiledProgram &prog);

    /** Clear all state between runs (pooled frames are kept). */
    void reset();

    /**
     * Request transport: every hardware request is written into
     * @p ring inline (null, the default, emits none). A timing
     * consumer drains it at least once per committed instruction
     * (CpuModel does); a ring without an overflow sink instead grows,
     * so a harness may also drain it in order after the run.
     */
    void setRequestRing(RequestRing *ring);

    /**
     * Attach a structured-event tracer (obs/trace.h): branch commits,
     * check enqueues, frame push/pop and alarms are recorded under
     * their categories. Null (the default) keeps the hot path at a
     * single predictable branch per event.
     */
    void setTracer(obs::Tracer *t) { trc = t; }

    /**
     * Branches are the only events the detector consumes (the paper's
     * hardware watches the branch stream); declaring that lets the
     * threaded engine skip instruction-event delivery entirely when
     * the detector is the only observer.
     */
    bool wantsInstEvents() const override { return false; }

    void onFunctionEnter(FuncId f) override;
    void onFunctionExit(FuncId f) override;
    void onBranch(FuncId f, uint64_t pc, bool taken) override;

    /**
     * Batched delivery: one virtual call per block instead of two per
     * branch. Only branch events matter to the detector (onInst is a
     * no-op), and the batch contract guarantees every branch event
     * belongs to b.func, so this is a direct devirtualized loop over
     * the events. Requests are stamped with the in-batch event index
     * (IpdsRequest::seq) so a draining consumer can replay them at
     * per-instruction cadence.
     */
    void
    onBatch(const EventBatch &b) override
    {
        for (uint32_t i = 0; i < b.n; i++) {
            const VmInstEvent &e = b.ev[i];
            if (e.isBranch) {
                curSeq = i;
                onBranch(b.func, e.inst->pc, e.taken);
            }
        }
        curSeq = 0;
    }

    bool alarmed() const { return !alarmList.empty(); }
    const std::vector<Alarm> &alarms() const { return alarmList; }
    const DetectorStats &stats() const { return stat; }

    /** Frames ever allocated (pool growth; tests assert reuse). */
    size_t allocatedFrames() const { return framesAllocated; }

    /**
     * Capture the live frame stack + counters into @p out (see
     * DetectorSnapshot). The alarm list itself is not serialized —
     * only its count — so a restored detector reports alarms raised
     * after the snapshot point.
     */
    void captureState(DetectorSnapshot &out) const;

    /**
     * Replace this detector's state with @p snap: reset(), then
     * re-acquire pooled frames for each recorded activation (no entry
     * actions, requests or tracing — the snapshot already reflects
     * them) and restore the known slots and counters. FatalError on a
     * snapshot naming functions or slots this program does not have
     * (foreign/corrupt snapshot blob).
     */
    void restoreState(const DetectorSnapshot &snap);

    /** Hash space of the live top frame (0 if none) — the valid slot
     *  range for injectBsvState (fault injection). */
    uint32_t
    topFrameSpace() const
    {
        return curTables ? curTables->hash.space() : 0;
    }

    /**
     * Fault injection: overwrite @p slot of the live top BSV frame
     * with @p s, modelling a bit flip in the on-chip table state.
     * Returns false (no-op) when no frame is live or @p slot is out
     * of range. ReferenceDetector mirrors this hook so differential
     * oracles can corrupt both models identically.
     */
    bool
    injectBsvState(uint32_t slot, BsvState s)
    {
        if (!curFrame || !curTables ||
            slot >= curTables->hash.space())
            return false;
        write(*curFrame, slot, s);
        return true;
    }

  private:
    /**
     * One pooled BSV frame. Each slot packs (epoch << 2) | state; a
     * slot whose stamp differs from the frame's current epoch reads as
     * Unknown, so re-acquiring a frame needs no O(space) clear — just
     * an epoch bump (with a real clear every 2^30 reuses on wrap).
     */
    struct Frame
    {
        std::vector<uint32_t> word;
        uint32_t epoch = 0;
    };
    static constexpr uint32_t kMaxEpoch = (1u << 30) - 1;

    /**
     * A suspended activation. The *current* activation lives unpacked
     * in curFunc/curTables/curFrame so the per-branch path reads plain
     * members instead of chasing stack.back(); enter pushes the old
     * top here (including the initial sentinel, so stack.size() is the
     * live frame count) and exit pops it back.
     */
    struct StackEntry
    {
        FuncId func = kNoFunc;
        const FuncTables *tables = nullptr;
        Frame *frame = nullptr; ///< borrowed from the function's pool
    };

    /**
     * Per-function frame pool. Activations of one function retire in
     * LIFO order (calls nest), so frames[0..live) are exactly the live
     * activations: acquire is frames[live++], release is live--.
     * Frames never move, so StackEntry can hold a stable raw pointer.
     */
    struct FuncPool
    {
        std::vector<std::unique_ptr<Frame>> frames;
        uint32_t live = 0;
    };

    BsvState
    read(const Frame &fr, uint32_t slot) const
    {
        uint32_t w = fr.word[slot];
        return (w >> 2) == fr.epoch ? static_cast<BsvState>(w & 3)
                                    : BsvState::Unknown;
    }

    void
    write(Frame &fr, uint32_t slot, BsvState s)
    {
        fr.word[slot] = (fr.epoch << 2) | static_cast<uint32_t>(s);
    }

    void applyActions(Frame &fr, const SlotAction *acts, uint32_t n);

    const CompiledProgram &prog;
    /** Current activation, unpacked (see StackEntry). */
    FuncId curFunc = kNoFunc;
    const FuncTables *curTables = nullptr;
    Frame *curFrame = nullptr;
    std::vector<StackEntry> stack; ///< suspended activations
    std::vector<FuncPool> pool;
    size_t framesAllocated = 0;
    std::vector<Alarm> alarmList;
    DetectorStats stat;
    RequestRing *ring = nullptr;
    /** In-batch event index stamped onto emitted requests (onBatch). */
    uint32_t curSeq = 0;
    obs::Tracer *trc = nullptr;
};

// ---- inline hot path ---------------------------------------------------

inline void
Detector::applyActions(Frame &fr, const SlotAction *acts, uint32_t n)
{
    for (uint32_t i = 0; i < n; i++) {
        const SlotAction &sa = acts[i];
        switch (sa.act) {
          case BrAction::NC:
            break;
          case BrAction::SetT:
            write(fr, sa.slot, BsvState::Taken);
            break;
          case BrAction::SetNT:
            write(fr, sa.slot, BsvState::NotTaken);
            break;
          case BrAction::SetUN:
            write(fr, sa.slot, BsvState::Unknown);
            break;
        }
        stat.actionsApplied++;
    }
}

inline void
Detector::onFunctionEnter(FuncId f)
{
    const FuncTables &t = prog.funcs[f].tables;
    FuncPool &p = pool[f];
    if (p.live == p.frames.size()) {
        auto fresh = std::make_unique<Frame>();
        fresh->word.assign(t.hash.space(), 0);
        p.frames.push_back(std::move(fresh));
        framesAllocated++;
    }
    Frame &fr = *p.frames[p.live++];
    if (fr.epoch >= kMaxEpoch) {
        // Stamp wrap: one real clear every 2^30 reuses.
        std::fill(fr.word.begin(), fr.word.end(), 0);
        fr.epoch = 0;
    }
    fr.epoch++;

    applyActions(fr, t.entryActions.data(),
                 static_cast<uint32_t>(t.entryActions.size()));
    stack.push_back({curFunc, curTables, curFrame});
    curFunc = f;
    curTables = &t;
    curFrame = &fr;
    stat.framesPushed++;
    stat.maxStackDepth = std::max(stat.maxStackDepth, stack.size());

    if (ring) {
        IpdsRequest rq;
        rq.kind = IpdsRequest::Kind::PushFrame;
        rq.func = f;
        rq.actionCount =
            static_cast<uint32_t>(t.entryActions.size());
        rq.tableBits = t.bsvBits + t.bcvBits + t.batBits;
        ring->push(rq);
    }
    if (trc)
        trc->record(obs::kCatFrame, obs::TraceKind::FramePush, f, 0,
                    t.bsvBits + t.bcvBits + t.batBits,
                    static_cast<uint32_t>(t.entryActions.size()));
}

inline void
Detector::onFunctionExit(FuncId f)
{
    if (f != curFunc)
        panic("Detector: frame stack out of sync on exit of %s",
              prog.mod.functions[f].name.c_str());
    const FuncTables &t = *curTables;
    pool[f].live--;
    StackEntry &e = stack.back();
    curFunc = e.func;
    curTables = e.tables;
    curFrame = e.frame;
    stack.pop_back();

    if (ring) {
        IpdsRequest rq;
        rq.kind = IpdsRequest::Kind::PopFrame;
        rq.func = f;
        rq.tableBits = t.bsvBits + t.bcvBits + t.batBits;
        ring->push(rq);
    }
    if (trc)
        trc->record(obs::kCatFrame, obs::TraceKind::FramePop, f, 0,
                    t.bsvBits + t.bcvBits + t.batBits);
}

inline void
Detector::onBranch(FuncId f, uint64_t pc, bool taken)
{
    stat.branchesSeen++;
    if (f != curFunc)
        panic("Detector: frame stack out of sync at branch in %s",
              prog.mod.functions[f].name.c_str());
    const FuncTables &t = *curTables;
    Frame &fr = *curFrame;

    uint32_t slot;
    uint32_t checked;
    const SlotAction *acts;
    uint32_t nActs;
    if (!t.branchRecs.empty()) {
        // Fast path: slot, BCV bit and action spans were resolved at
        // table-layout time; one record read, no hashing, no
        // vector-of-vector chasing.
        uint64_t idx = (pc - t.lookupBasePc) >> 2;
        assert(idx < t.branchRecs.size() && "branch pc outside lookup");
        const BranchRec &rec = t.branchRecs[idx];
        assert(rec.slot != kNoBranchSlot && "pc is not a known branch");
        assert(rec.slot == t.hash.apply(pc) && "cached slot mismatch");
        assert(rec.checked == (t.bcv[rec.slot] ? 1u : 0u) &&
               "cached BCV mismatch");
        assert(rec.takenLen == t.onTaken[rec.slot].size() &&
               rec.notTakenLen == t.onNotTaken[rec.slot].size() &&
               "cached action span mismatch");
        slot = rec.slot;
        checked = rec.checked;
        acts = t.actionPool.data() +
            (taken ? rec.takenOff : rec.notTakenOff);
        nActs = taken ? rec.takenLen : rec.notTakenLen;
    } else {
        // Tables reconstructed from a packed image carry no pcs.
        slot = t.hash.apply(pc);
        checked = t.bcv[slot] ? 1 : 0;
        const auto &list = taken ? t.onTaken[slot] : t.onNotTaken[slot];
        acts = list.data();
        nActs = static_cast<uint32_t>(list.size());
    }

    // Check: only BCV-marked branches are verified (§5.4). The BSV
    // read is unconditional (slot is always valid) so `checked` — a
    // data-dependent bit — steers arithmetic, not jumps; the only
    // branch left is the alarm push, which benign runs never take.
    stat.checksEnqueued += checked;
    BsvState expected = read(fr, slot);
    bool mismatch = checked != 0 &&
        ((expected == BsvState::Taken && !taken) ||
         (expected == BsvState::NotTaken && taken));
    if (mismatch) {
        Alarm a;
        a.func = f;
        a.pc = pc;
        a.actualTaken = taken;
        a.expected = expected;
        a.branchIndex = stat.branchesSeen;
        alarmList.push_back(a);
        if (trc)
            trc->record(obs::kCatAlarm, obs::TraceKind::Alarm, f, pc,
                        taken ? 1 : 0,
                        static_cast<uint32_t>(expected));
    }

    if (ring) {
        // Stage a Check in the next ring slot and publish it only for
        // checked branches; the Update that every branch queues (§5.4)
        // then lands either on top of the abandoned Check or after the
        // committed one.
        IpdsRequest &cq = ring->stage();
        cq.kind = IpdsRequest::Kind::Check;
        cq.func = f;
        cq.pc = pc;
        cq.actionCount = 0;
        cq.tableBits = 0;
        cq.seq = curSeq;
        ring->advance(checked != 0);
        IpdsRequest &uq = ring->stage();
        uq.kind = IpdsRequest::Kind::Update;
        uq.func = f;
        uq.pc = pc;
        uq.actionCount = nActs;
        uq.tableBits = 0;
        uq.seq = curSeq;
        ring->advance(true);
    }

    if (trc) {
        trc->record(obs::kCatBranch, obs::TraceKind::BranchCommit, f,
                    pc, taken ? 1 : 0, checked);
        if (checked)
            trc->record(obs::kCatCheck, obs::TraceKind::CheckEnqueue,
                        f, pc, taken ? 1 : 0);
    }

    applyActions(fr, acts, nActs);
    stat.updatesApplied++;
}

} // namespace ipds

#endif // IPDS_IPDS_DETECTOR_H
