#ifndef IPDS_INJECT_FAULT_H
#define IPDS_INJECT_FAULT_H

/**
 * @file
 * Deterministic fault injection for the IPDS stack.
 *
 * The subsystem answers one question: when the modelled hardware (or
 * the software around it) misbehaves, does the detector stack fail
 * loudly and identically everywhere, or does it silently diverge? A
 * FaultPlan describes *what* to break — protected-memory words, BSV
 * frame entries, request-ring traffic, table-stack pressure, context-
 * switch storms — and every decision is drawn from an RNG seeded by
 * the plan, so a run is exactly reproducible from (program, inputs,
 * plan).
 *
 * Fault classes and where they land:
 *
 *  - memory corruption: step-triggered Vm tampers (Vm::addTamper, the
 *    one tamper schedule attacks and recipes use too), fired at
 *    identical instruction boundaries by both VM engines;
 *  - BSV flips: Detector::injectBsvState / the ReferenceDetector
 *    mirror, applied to every registered detector with the SAME drawn
 *    slot and state so differential oracles stay in lockstep;
 *  - ring drop/duplicate: RequestRing::setFault, decided per popped
 *    request at drain boundaries (identical pop cadence across
 *    the engines keeps TimingStats identical);
 *  - spill pressure / depth storms: FaultPlan::applyTo shrinks the
 *    on-chip table stack and the request ring in the TimingConfig;
 *  - context-switch storms: CpuModel::contextSwitch every N branches.
 *
 * Delivery-mode equivalence is the design constraint that shapes the
 * FaultInjector: it is an *interposing* ExecObserver — the only
 * observer the Vm sees — that forwards events (and, from the threaded
 * engine's batches, sliced sub-batches) to its targets in order and
 * applies branch-triggered faults at the same commit point in the
 * switch engine's per-event and the threaded engine's batched
 * delivery. A sibling observer could not do that: it would see a whole
 * EventBatch either before or after the detector consumed it.
 */

#include <cstdint>
#include <vector>

#include "ipds/detector.h"
#include "ipds/reference.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "timing/config.h"
#include "timing/cpu.h"
#include "vm/vm.h"

namespace ipds {

/**
 * What to break and how often. A default-constructed plan (seed 0) is
 * disabled; every rate at 0 disables that fault class individually.
 */
struct FaultPlan
{
    /** Master RNG seed; 0 disables the whole plan. */
    uint64_t seed = 0;

    /** Corrupt a protected-memory word roughly every N instructions
     *  (step-triggered Vm tampers; 0: off). */
    uint32_t memEveryInsts = 0;
    /** Cap on armed memory tampers per run. */
    uint32_t maxMemFaults = 4;

    /** Flip one BSV entry of the live top frame every N committed
     *  branches (0: off). */
    uint32_t bsvEveryBranches = 0;

    /** Request-ring drain filter: drop / duplicate rates in permille
     *  (0/0: off). */
    uint32_t ringDropPermille = 0;
    uint32_t ringDupPermille = 0;

    /** Force a context switch every N committed branches (0: off). */
    uint32_t ctxEveryBranches = 0;
    /** Use the paper's lazy (§5.4) switch in storms. */
    bool lazyCtx = true;

    /** Shrink the on-chip table stack and the request ring so spill/
     *  fill and backpressure paths run constantly. */
    bool spillPressure = false;

    bool enabled() const { return seed != 0; }

    /**
     * A moderate every-class plan derived deterministically from
     * @p seed (the `run_protected --fault-seed` entry point).
     */
    static FaultPlan fromSeed(uint64_t seed);

    /** Apply the config-level classes (spill pressure) to @p cfg. */
    void applyTo(TimingConfig &cfg) const;

    /**
     * The step-triggered memory tampers this plan arms for run
     * @p salt (the session index): deterministic per (seed, salt),
     * increasing atStep, at most maxMemFaults entries.
     */
    std::vector<TamperSpec> memTamperSpecs(uint64_t salt) const;
};

/** Injection counters (obs/names.h ipds.fault.*). */
struct FaultStats
{
    uint64_t memTampers = 0;  ///< fired Vm tampers, of any origin
    uint64_t bsvFlips = 0;    ///< BSV entries overwritten
    uint64_t ctxSwitches = 0; ///< forced context switches
    uint64_t ringDrops = 0;   ///< requests dropped at drains
    uint64_t ringDups = 0;    ///< requests duplicated at drains

    void
    merge(const FaultStats &o)
    {
        memTampers += o.memTampers;
        bsvFlips += o.bsvFlips;
        ctxSwitches += o.ctxSwitches;
        ringDrops += o.ringDrops;
        ringDups += o.ringDups;
    }

    bool
    operator==(const FaultStats &o) const
    {
        return memTampers == o.memTampers && bsvFlips == o.bsvFlips &&
            ctxSwitches == o.ctxSwitches &&
            ringDrops == o.ringDrops && ringDups == o.ringDups;
    }
};

/**
 * Sideband listener for faults that do NOT travel through the
 * ExecObserver event stream: BSV flips go straight into the detector
 * and context-switch storms straight into the CpuModel. A trace
 * recorder (src/replay) registers here so those out-of-band state
 * changes land in the recorded stream at their exact commit point —
 * the injector calls the sink immediately after applying each fault,
 * which is immediately after forwarding the triggering branch's
 * events to every target.
 */
class FaultEventSink
{
  public:
    virtual ~FaultEventSink() = default;

    /** injectBsvState(slot, s) was applied to every detector. */
    virtual void onBsvFlip(uint32_t slot, BsvState s) = 0;

    /** CpuModel::contextSwitch(lazy) was forced. */
    virtual void onCtxSwitch(bool lazy) = 0;
};

/**
 * The interposing observer. Wire it as the Vm's ONLY observer and
 * register the real observers as targets, in the order they would
 * normally be attached (detector first, then CpuModel, then extras):
 *
 *   FaultInjector inj(plan, sessionIndex);
 *   inj.addTarget(&det);  inj.addDetector(&det);
 *   inj.addTarget(&cpu);  inj.setCpu(&cpu);
 *   vm.addObserver(&inj);
 *
 * Events are forwarded unchanged; branch-triggered faults (BSV flips,
 * context-switch storms) fire at the commit point of the triggering
 * branch on either engine — per-event (switch) by deferring to the
 * Br's own onInst when any target consumes instruction events, batched
 * (threaded) by slicing the EventBatch after the branch's entry.
 */
class FaultInjector final : public ExecObserver
{
  public:
    /** Payload tag of kCatFault trace records. */
    enum class Kind : uint8_t
    {
        MemTamper = 0,
        BsvFlip = 1,
        CtxSwitch = 2,
    };

    /**
     * @p salt differentiates runs under one plan (the Session passes
     * the session index) without touching the plan itself.
     */
    FaultInjector(const FaultPlan &plan, uint64_t salt);

    /** Forward events to @p obs (kept in registration order). */
    void addTarget(ExecObserver *obs);
    /** Register a detector for BSV flips (also add it as a target). */
    void addDetector(Detector *d);
    /** Register the reference model for the SAME BSV flips. */
    void addReference(ReferenceDetector *r);
    /** Register the CPU model for context-switch storms. */
    void setCpu(CpuModel *cpu);
    /** Record kCatFault events into @p t (null: no tracing). */
    void setTracer(obs::Tracer *t) { trc = t; }
    /** Report applied out-of-band faults to @p s (trace capture). */
    void setEventSink(FaultEventSink *s) { sinkEv = s; }

    bool wantsInstEvents() const override;
    void onFunctionEnter(FuncId f) override;
    void onFunctionExit(FuncId f) override;
    void onBranch(FuncId f, uint64_t pc, bool taken) override;
    void onInst(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
                bool is_load) override;
    void onBatch(const EventBatch &b) override;

    /** Branch-triggered counters (BSV flips, context switches). */
    const FaultStats &stats() const { return stat; }

  private:
    static constexpr uint32_t kDueBsv = 1;
    static constexpr uint32_t kDueCtx = 2;

    /** Count one committed branch; the due-fault mask for it. */
    uint32_t dueAtBranch();
    /** Apply (and clear) the pending due mask. */
    void applyDue();
    void forwardBatch(const EventBatch &b);

    FaultPlan plan;
    Rng rng;
    std::vector<ExecObserver *> targets;
    std::vector<Detector *> dets;
    std::vector<ReferenceDetector *> refs;
    CpuModel *cpu = nullptr;
    obs::Tracer *trc = nullptr;
    FaultEventSink *sinkEv = nullptr;

    uint64_t branchCount = 0;
    uint32_t pendingDue = 0;
    FuncId pendingFunc = kNoFunc;
    uint64_t pendingPc = 0;
    /** Any target consumes instruction events (cached by the Vm's
     *  wantsInstEvents probe at run start). */
    mutable bool fwdInst = false;
    FaultStats stat;
};

} // namespace ipds

#endif // IPDS_INJECT_FAULT_H
