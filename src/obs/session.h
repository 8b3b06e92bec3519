#ifndef IPDS_OBS_SESSION_H
#define IPDS_OBS_SESSION_H

/**
 * @file
 * The Session facade: the one sanctioned way to assemble an IPDS run.
 *
 * Before this facade, every harness hand-wired the same four classes —
 * compileAndAnalyze → Vm → Detector → CpuModel — in its own slightly
 * different order, with its own ad-hoc counters. Session owns that
 * wiring, plus the observability subsystem's lifetimes (one
 * MetricsRegistry and one Tracer per run), and scales from a
 * single-session embedding:
 *
 *   ipds::Session s = ipds::Session::builder()
 *                         .program(prog)
 *                         .inputs({"guest", "hello"})
 *                         .build();
 *   s.run();
 *   if (s.alarmed()) { ... }
 *   std::puts(s.metricsJson().c_str());
 *
 * to a sharded multi-session benchmark:
 *
 *   ipds::Session s = ipds::Session::builder()
 *                         .program(prog)
 *                         .inputs(wl.benignInputs)
 *                         .timing(table1Config())
 *                         .sessions(300).shards(8).threads(0)
 *                         .build();
 *   TimingStats t = s.run().timingStats();
 *
 * What a run DOES with the event stream is one typed plan:
 *
 *   - ExecPlan    — execute the VM (optionally tampered / fault-
 *                   injected / observed);
 *   - CapturePlan — execute AND record an IPDS trace file;
 *   - ReplayPlan  — re-detect a recorded trace, no VM in the loop.
 *
 *   ipds::Session cap = ipds::Session::builder()
 *                           .program(prog).inputs(in)
 *                           .plan(ipds::CapturePlan("run.ipds")
 *                                     .exec(ipds::ExecPlan()
 *                                               .addTamper(spec)))
 *                           .build();
 *
 * The plan types make incompatible recipes unrepresentable: a
 * ReplayPlan has nowhere to hang an addTamper() (the tamper's effects
 * are already in the recorded stream), and a Builder holds exactly one
 * plan. The Session keeps the plan it was given and runs from it.
 * Serving recorded streams over a socket is serve::Server's job
 * (src/serve/server.h), not a Session plan.
 *
 * Sharding semantics match the fig9 harness exactly: the session
 * stream splits into a FIXED number of shards (never derived from the
 * thread count), each shard owns its CpuModel / detectors / metrics /
 * tracer, and shard outputs merge in shard order at the join — so
 * every aggregate, metric and trace is bit-identical for any
 * `threads` value.
 *
 * The layered headers (vm/vm.h, ipds/detector.h, timing/cpu.h) remain
 * public for advanced embeddings; see the umbrella header ipds/ipds.h.
 */

#include <string>
#include <variant>
#include <vector>

#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/replay.h"
#include "replay/writer.h"
#include "timing/config.h"
#include "timing/cpu.h"
#include "vm/vm.h"

namespace ipds {

/**
 * Execution plan: run the VM over the configured sessions. All knobs
 * are optional; a default ExecPlan is the plain benign run (and what
 * a Builder with no plan() call gets).
 */
struct ExecPlan
{
    /**
     * Arm a memory tamper via Vm::addTamper (applied to every
     * session): step-triggered (atStep > 0) or input-event-triggered
     * (afterInputEvent > 0). Tampers stack, so a multi-write attack
     * recipe (src/gen) rides one ExecPlan; fired records land in
     * result().faultTampers and count in faultStats().memTampers.
     */
    ExecPlan &addTamper(const TamperSpec &spec)
    {
        tampers.push_back(spec);
        return *this;
    }

    /**
     * Arm a fault-injection plan (src/inject/fault.h). A disabled
     * plan (seed 0) is a no-op. When timing() is configured the
     * plan's config-level classes (spill pressure) are applied to the
     * TimingConfig at build(); per-run faults are salted with the
     * session index, so results are a pure function of
     * (program, inputs, plan, sessions, shards).
     */
    ExecPlan &faults(const FaultPlan &p)
    {
        hasFault = p.enabled();
        fault = p;
        return *this;
    }

    /**
     * Attach an extra ExecObserver to every Vm (not owned). Only
     * valid for single-shard runs: a shared observer across shard
     * threads would race.
     */
    ExecPlan &observe(ExecObserver *obs)
    {
        observers.push_back(obs);
        return *this;
    }

    std::vector<TamperSpec> tampers;
    bool hasFault = false;
    FaultPlan fault;
    std::vector<ExecObserver *> observers;
};

/**
 * Capture plan: execute (per the nested ExecPlan) AND record the
 * committed event stream into an IPDS trace file at @p path
 * (src/replay format). The recorder attaches after the detector and
 * timing model, so it observes without perturbing any result: the
 * run's alarms, stats and metrics are unchanged, and a later
 * ReplayPlan over the file reproduces them bit-identically. Timing
 * runs capture the full instruction stream; detector-only runs
 * capture the compact branch stream.
 */
struct CapturePlan
{
    explicit CapturePlan(std::string path_) : path(std::move(path_)) {}

    /** Execution knobs for the recorded run (default: benign). */
    CapturePlan &exec(ExecPlan e)
    {
        execPlan = std::move(e);
        return *this;
    }

    /**
     * Detector-state snapshot cadence: embed a resumable snapshot
     * record (replay/snapshot.h) roughly every @p n data chunks of
     * each session, at the next function-event boundary. Snapshots
     * are what make `--seek-chunk` O(1); they do not perturb replayed
     * results. 0 disables (default 4).
     */
    CapturePlan &snapshotEvery(uint32_t n)
    {
        snapEvery = n;
        return *this;
    }

    std::string path;
    ExecPlan execPlan;
    uint32_t snapEvery = 4;
};

/**
 * Replay plan: re-detect a trace recorded by a CapturePlan instead of
 * executing the VM. The trace header supplies sessions, shards and
 * the TimingConfig (so sessions()/shards()/timing() are ignored).
 * The trace loads with one strict scan that checks every chunk's
 * header and CRC, v1 and v2 alike. A full replay then runs as
 * contiguous session spans on threads() workers: one span per capture
 * shard for a timing trace (its CpuModel carried across the shard's
 * sessions), at most one per worker for a detector-only trace.
 * Alarms, DetectorStats, TimingStats, FaultStats and the shared
 * metrics come out bit-identical to the capture run at any thread
 * count; result() stays empty (there is no VM output to reproduce).
 * There is deliberately nothing else to configure here — faults and
 * tampers are captured, not re-injected. Corrupt, truncated,
 * version-skewed or foreign-module traces raise FatalError.
 */
struct ReplayPlan
{
    explicit ReplayPlan(std::string path_) : path(std::move(path_)) {}

    /** Start replay at session @p s on one cursor: earlier chunks
     *  are checked at load but never decoded. */
    ReplayPlan &seekSession(uint32_t s)
    {
        hasSeekSession = true;
        seekSessionIdx = s;
        return *this;
    }

    /**
     * Start replay mid-session at chunk @p k of the file, resuming
     * the detector from the nearest preceding snapshot record of the
     * same session (or that session's start when none precedes it).
     * Alarms before the resume point are not re-raised; session-end
     * stats are exact (the snapshot carries the running counters).
     * Rejected for timing traces at build(), and with seekSession().
     */
    ReplayPlan &seekChunk(uint64_t k)
    {
        hasSeekChunk = true;
        seekChunkIdx = k;
        return *this;
    }

    std::string path;
    bool hasSeekSession = false;
    uint32_t seekSessionIdx = 0;
    bool hasSeekChunk = false;
    uint64_t seekChunkIdx = 0;
};

class Session
{
  public:
    class Builder;

    /** Start assembling a run. */
    static Builder builder();

    /**
     * Execute the configured run: all sessions, all shards. Reusable;
     * a second call reruns from scratch and replaces every result.
     * Returns *this so accessors chain off the call.
     */
    Session &run();

    // ---- results (valid after run()) --------------------------------

    bool alarmed() const { return !total.alarms.empty(); }
    /** All alarms, session order (shard-merge is deterministic). */
    const std::vector<Alarm> &alarms() const { return total.alarms; }

    /** Detector aggregates over every session. */
    const DetectorStats &detectorStats() const { return total.det; }

    /** Timing aggregates (zero unless timing() was configured). */
    const TimingStats &timingStats() const { return total.tim; }

    /** Injection aggregates: fired tampers, plus what the plan's
     *  faults() injected. */
    const FaultStats &faultStats() const { return total.fault; }

    /** VM result of session 0: output, exit code, and the branch
     *  trace (recorded for single-session runs only). */
    const RunResult &result() const { return firstResult; }

    /** The run's metrics, under the obs/names.h naming scheme. */
    const obs::MetricsRegistry &metrics() const { return registry; }
    obs::MetricsRegistry &metrics() { return registry; }

    /** JSON metrics export — what benches should publish instead of
     *  reaching into Detector::stats(). */
    std::string metricsJson() const { return registry.toJson(); }
    /** Plain-text metrics summary. */
    std::string metricsText() const { return registry.toText(); }

    /** Retained trace events, shard order then record order. */
    const std::vector<obs::TraceEvent> &traceEvents() const
    {
        return traceLog;
    }
    /** chrome://tracing export of traceEvents(). */
    std::string traceChromeJson() const
    {
        return obs::toChromeJson(traceLog);
    }
    /** Events lost to ring wraparound across all shards. */
    uint64_t traceDropped() const { return traceLost; }

  private:
    friend class Builder;

    struct Options
    {
        const CompiledProgram *prog = nullptr;
        std::vector<std::string> inputs;
        uint32_t sessions = 1;
        uint32_t shards = 1;
        unsigned threads = 1;
        bool useTiming = false;
        TimingConfig timingCfg;
        bool detectorOn = true;
        bool detectorExplicit = false;
        uint64_t fuel = 50'000'000;
        uint32_t traceCategories = 0; ///< 0: tracing off
        uint32_t traceCapacity = 4096;
        std::variant<ExecPlan, CapturePlan, ReplayPlan> plan;
        int planCount = 0; ///< plan() calls seen by the Builder

        /** The VM knobs: the ExecPlan itself or the one a CapturePlan
         *  nests; null for a ReplayPlan. */
        const ExecPlan *exec() const
        {
            if (const CapturePlan *c = std::get_if<CapturePlan>(&plan))
                return &c->execPlan;
            return std::get_if<ExecPlan>(&plan);
        }
    };

    explicit Session(Options o);

    struct ShardOut;
    void runShard(uint32_t shard, ShardOut &out,
                  replay::TraceWriter *capture) const;
    Session &runReplay(const ReplayPlan &rp);

    Options opt;

    // Results: every shard merged, as a replay reproduces them.
    replay::ReplayShardResult total;
    RunResult firstResult;
    obs::MetricsRegistry registry;
    std::vector<obs::TraceEvent> traceLog;
    uint64_t traceLost = 0;
};

/**
 * Fluent builder. Every setter returns *this; build() validates and
 * produces the Session. The CompiledProgram is borrowed and must
 * outlive the Session.
 */
class Session::Builder
{
  public:
    /** The compiled program to run (required). */
    Builder &program(const CompiledProgram &p)
    {
        o.prog = &p;
        return *this;
    }

    /** Scripted session input lines. */
    Builder &inputs(std::vector<std::string> lines)
    {
        o.inputs = std::move(lines);
        return *this;
    }

    /** Benign sessions to run (default 1). */
    Builder &sessions(uint32_t n)
    {
        o.sessions = n ? n : 1;
        return *this;
    }

    /**
     * Fixed shard count (default 1, max 256). Aggregates are a pure
     * function of (sessions, shards), never of threads.
     */
    Builder &shards(uint32_t k)
    {
        o.shards = k ? k : 1;
        return *this;
    }

    /** Worker threads (default 1; 0 = one per hardware core): they
     *  run the shards, or a ReplayPlan's session spans. */
    Builder &threads(unsigned t)
    {
        o.threads = t;
        return *this;
    }

    /**
     * Attach the Table 1 timing model. Unless detector() overrides
     * it, cfg.ipdsEnabled also decides whether the detector runs —
     * a disabled-IPDS timing run is the paper's baseline.
     */
    Builder &timing(const TimingConfig &cfg)
    {
        o.useTiming = true;
        o.timingCfg = cfg;
        return *this;
    }

    /** Force the detector on or off. */
    Builder &detector(bool on)
    {
        o.detectorOn = on;
        o.detectorExplicit = true;
        return *this;
    }

    /** Instruction budget per session (default 50M). */
    Builder &fuel(uint64_t f)
    {
        o.fuel = f;
        return *this;
    }

    /**
     * Enable structured tracing for the given category mask
     * (obs::TraceCat bits, intersected with the compiled-in mask) and
     * per-shard ring capacity.
     */
    Builder &trace(uint32_t categories, uint32_t capacity = 4096)
    {
        o.traceCategories = categories;
        o.traceCapacity = capacity;
        return *this;
    }

    // ---- the run's plan (configure exactly one) ---------------------

    /** Execute the VM with the given knobs (the default plan). */
    Builder &plan(ExecPlan p) { return setPlan(std::move(p)); }

    /** Execute AND record an IPDS trace file (see CapturePlan). */
    Builder &plan(CapturePlan p) { return setPlan(std::move(p)); }

    /** Re-detect a recorded trace, no VM (see ReplayPlan). */
    Builder &plan(ReplayPlan p) { return setPlan(std::move(p)); }

    /** Validate and assemble. Throws FatalError on a bad recipe. */
    Session build();

  private:
    template <typename Plan> Builder &setPlan(Plan p)
    {
        o.planCount++;
        o.plan = std::move(p);
        return *this;
    }

    Session::Options o;
};

} // namespace ipds

#endif // IPDS_OBS_SESSION_H
