#ifndef IPDS_VM_VM_H
#define IPDS_VM_VM_H

/**
 * @file
 * Functional executor for compiled programs — the stand-in for the
 * paper's Bochs+Linux testbed (see DESIGN.md substitutions).
 *
 * Responsibilities:
 *  - execute the IR over a flat address space with a real downward-
 *    growing stack, so overflowing a local buffer clobbers neighbouring
 *    locals and caller frames;
 *  - provide the C-library-style builtins (including the classic
 *    unbounded strcpy/get_input overflow vectors);
 *  - feed scripted input lines to the program;
 *  - inject memory tampers at chosen triggers (Nth input event or
 *    instruction count), optionally picking a random live stack
 *    location — the attack primitive of §6;
 *  - emit events (function enter/exit, committed branches, executed
 *    instructions with effective addresses) to observers: the IPDS
 *    detector and the timing model.
 */

#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "vm/decode.h"
#include "vm/memory.h"

namespace ipds {

/** How a run ended. */
enum class ExitKind : uint8_t
{
    Returned, ///< main returned
    Exited,   ///< exit() builtin
    Trapped,  ///< runtime fault (division by zero, stack overflow...)
    OutOfFuel,///< instruction budget exhausted (e.g. tampered loop)
};

/** One committed conditional branch. */
struct BranchEvent
{
    uint64_t pc = 0;
    bool taken = false;

    bool operator==(const BranchEvent &o) const
    {
        return pc == o.pc && taken == o.taken;
    }
};

/**
 * One buffered instruction event (the threaded engine's delivery).
 * Captures exactly what the per-event callbacks carry: the committed
 * instruction, its data access, and — for conditional branches — the
 * direction.
 */
struct VmInstEvent
{
    const Inst *inst = nullptr;
    uint64_t memAddr = 0;
    uint32_t memSize = 0; ///< 0: no data access
    bool isLoad = false;
    bool isBranch = false; ///< Op::Br: onBranch precedes onInst
    bool taken = false;
};

/**
 * A run of buffered events delivered in one observer call.
 *
 * Contract (see DESIGN.md "VM execution engine"):
 *  - events appear in commit order;
 *  - every isBranch event belongs to @p func — a batch never spans a
 *    function enter/exit, which are still delivered per-event and
 *    always flush the pending batch first;
 *  - the call/ret instruction's own event lands in the batch AFTER its
 *    enter/exit, matching the per-event callback order.
 */
struct EventBatch
{
    FuncId func = kNoFunc; ///< function of every branch event
    const VmInstEvent *ev = nullptr;
    uint32_t n = 0;
};

/**
 * Observer interface for execution events. All callbacks default to
 * no-ops so implementations override only what they need.
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /**
     * Declare whether this observer consumes per-instruction events
     * (onInst / non-branch batch entries). The threaded engine skips
     * instruction-event construction and delivery entirely when no
     * attached observer wants them — the common deployment (detector
     * only) then pays per BRANCH, like the paper's hardware, instead
     * of per instruction. An observer returning false must tolerate
     * batches that carry only branch events. The switch engine is the
     * golden reference and always delivers everything.
     */
    virtual bool wantsInstEvents() const { return true; }

    /** A call pushed a frame for @p f. */
    virtual void onFunctionEnter(FuncId f) { (void)f; }

    /** The frame for @p f was popped. */
    virtual void onFunctionExit(FuncId f) { (void)f; }

    /** A conditional branch committed. */
    virtual void
    onBranch(FuncId f, uint64_t pc, bool taken)
    {
        (void)f; (void)pc; (void)taken;
    }

    /**
     * Any instruction committed. @p mem_addr/@p mem_size describe the
     * data access (0 size if none), @p is_load its direction.
     */
    virtual void
    onInst(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
           bool is_load)
    {
        (void)in; (void)mem_addr; (void)mem_size; (void)is_load;
    }

    /**
     * A batch of buffered events (the threaded engine). The
     * default replays the per-event callbacks in order, so observers
     * that don't override this see exactly the per-event stream; hot
     * observers override it to pay one virtual call per run of
     * events instead of one per instruction.
     */
    virtual void
    onBatch(const EventBatch &b)
    {
        for (uint32_t i = 0; i < b.n; i++) {
            const VmInstEvent &e = b.ev[i];
            if (e.isBranch)
                onBranch(b.func, e.inst->pc, e.taken);
            onInst(*e.inst, e.memAddr, e.memSize, e.isLoad);
        }
    }
};

/** What to corrupt and when (one attack = one tamper). */
struct TamperSpec
{
    /** Trigger: after this many input events (get_input etc.)... */
    uint32_t afterInputEvent = 0;
    /** ...or, if nonzero, at this absolute instruction count. */
    uint64_t atStep = 0;

    /** If true, pick a random live local stack location. */
    bool randomStackTarget = true;
    uint64_t seed = 1; ///< RNG seed for target/value selection

    /** Explicit target when randomStackTarget is false. */
    uint64_t addr = 0;
    std::vector<uint8_t> bytes;
};

/** Record of what a tamper actually did (for reports and replay). */
struct TamperRecord
{
    uint64_t addr = 0;
    std::string objectName; ///< object hit, if a named local
    std::vector<uint8_t> oldBytes;
    std::vector<uint8_t> newBytes;
};

/** Result of one complete run. */
struct RunResult
{
    ExitKind exit = ExitKind::Returned;
    int64_t exitCode = 0;
    std::string output;
    uint64_t steps = 0;
    uint32_t inputEventCount = 0;
    /** PC of the call that consumed each input event, in order. */
    std::vector<uint64_t> inputEventPcs;
    std::vector<BranchEvent> branchTrace;
    /** One record per fired addTamper() spec, in firing order. */
    std::vector<TamperRecord> faultTampers;
    std::string trapMessage;
};

/** Which execution core runs the program. */
enum class VmEngine : uint8_t
{
    Switch,   ///< golden-reference big-switch interpreter, per-event
    Threaded, ///< predecoded, threaded dispatch, batched (default)
};

/** Throughput counters of one run (obs/names.h ipds.vm.*). */
struct VmStats
{
    uint64_t instructions = 0;
    uint64_t blocks = 0; ///< basic blocks entered
    uint64_t eventBatchFlushes = 0;
};

/**
 * The virtual machine. One instance runs one program once.
 */
class Vm
{
  public:
    /** @p prog must outlive the Vm. */
    explicit Vm(const Module &prog);

    /**
     * Construct with an explicitly shared predecode (see
     * decodeModule). Session-per-run embedders construct one Vm per
     * run over the same program; passing the handle skips the decode
     * cache's per-construction validation walk. @p predecoded must
     * have been built from @p prog in its current state.
     */
    Vm(const Module &prog,
       std::shared_ptr<const DecodedProgram> predecoded);

    /** Provide scripted input lines consumed by the input builtins. */
    void setInputs(std::vector<std::string> lines);

    /** Attach an observer (not owned). May be called multiple times. */
    void addObserver(ExecObserver *obs);

    /**
     * Arm a memory tamper (attacks, fault injection, attack recipes).
     * Any number may be armed; each fires once at its trigger —
     * atStep > 0 fires at that absolute instruction count, otherwise
     * afterInputEvent > 0 fires when the Nth input event commits (a
     * spec with neither is a FatalError). Specs due at the same step
     * or input event fire in the order they were armed. Step triggers
     * fire at identical step boundaries in both engines; input-event
     * triggers fire inside the shared builtin path, so multi-write
     * attack sequences stay bit-identical across the engines. Fired
     * records land in RunResult::faultTampers in firing order.
     */
    void addTamper(const TamperSpec &spec);

    /** Cap on executed instructions (default 50M). */
    void setFuel(uint64_t max_steps) { fuel = max_steps; }

    /** Record the branch trace in the result (default on). */
    void setRecordTrace(bool on) { recordTrace = on; }

    /**
     * Select the execution core (default Threaded). The threaded
     * engine delivers observer events as EventBatches, the switch
     * engine one virtual call per event.
     */
    void setEngine(VmEngine e) { engineKind = e; }
    VmEngine engine() const { return engineKind; }

    /** Throughput counters (valid after run()). */
    const VmStats &vmStats() const { return stats_; }

    /**
     * Attach a structured-event tracer (obs/trace.h): run begin/end
     * and input events are recorded under kCatSession. The session
     * index tags multi-session streams (Session facade).
     */
    void
    setTracer(obs::Tracer *t, uint64_t session_index = 0)
    {
        trc = t;
        sessionIndex = session_index;
    }

    /** Execute main() to completion. */
    RunResult run();

    /** The VM's memory (exposed for tests and examples). */
    Memory &memory() { return mem; }

    /** Base address of a Global/Const object. */
    uint64_t globalBase(ObjectId obj) const;

    /**
     * Address local @p name of the ENTRY function will occupy at run
     * time (deterministic: main's frame is always placed first).
     * @p name is the bare source name, e.g. "role". Panics if absent.
     */
    uint64_t entryLocalAddr(const std::string &name) const;

  private:
    struct Frame
    {
        FuncId func = kNoFunc;
        BlockId block = 0;
        uint32_t ip = 0; ///< instruction index within block
        std::vector<int64_t> regs;
        std::vector<int64_t> args; ///< incoming argument values
        /** Base address of each local object (parallel to locals). */
        std::vector<uint64_t> localBase;
        uint64_t frameBase = 0; ///< lowest address of the frame
        Vreg callerDst = kNoVreg; ///< caller vreg for the return value
    };

    void layoutStatics();
    void pushFrame(FuncId f, const std::vector<int64_t> &args,
                   Vreg caller_dst);
    void popFrame();
    uint64_t localAddr(const Frame &fr, ObjectId obj,
                       int64_t off) const;

    /** Execute one instruction; returns false when the run ended. */
    bool step(RunResult &res);

    /**
     * Predecoded threaded dispatch loop with EventBatch delivery; runs
     * to completion (or out of fuel).
     */
    void runThreaded(RunResult &res);

    void execBuiltin(Frame &fr, const Inst &in, RunResult &res);

    /** Corrupt memory per @p spec, recording what happened in @p rec. */
    void fireTamperSpec(const TamperSpec &spec, TamperRecord &rec);
    /** Fire every armed tamper whose atStep has been reached. */
    void fireDueStepTampers();
    /** Fire every armed tamper due at the current input event. */
    void fireDueEventTampers();

    [[noreturn]] void trap(const std::string &why);

    const Module &mod;
    std::shared_ptr<const DecodedProgram> dec;
    Memory mem;
    std::vector<Frame> frames;
    uint64_t sp = 0;

    std::vector<std::string> inputs;
    size_t inputPos = 0;
    uint32_t inputEvents = 0;

    std::vector<ExecObserver *> observers;
    /** The single observer when exactly one is attached (fast path). */
    ExecObserver *soloObs = nullptr;
    /** Any attached observer wants per-instruction events. */
    bool instEventsOn = true;
    obs::Tracer *trc = nullptr;
    uint64_t sessionIndex = 0;
    bool recordTrace = true;
    VmEngine engineKind = VmEngine::Threaded;
    uint64_t fuel = 50'000'000;
    uint64_t steps = 0;
    VmStats stats_;
    std::vector<int64_t> argScratch; ///< reused CallUser arg buffer

    /** addTamper() step specs, sorted by atStep at run() entry. */
    std::vector<TamperSpec> stepTampers;
    size_t stepFired = 0; ///< stepTampers[0..stepFired) have fired
    /** addTamper() input-event specs, sorted by afterInputEvent. */
    std::vector<TamperSpec> eventTampers;
    size_t eventFired = 0; ///< eventTampers[0..eventFired) have fired
    std::vector<TamperRecord> tamperRecords;

    /** Events buffered per block before one onBatch flush. */
    static constexpr uint32_t kBatchCap = 64;

    static constexpr uint64_t stackTop = 0x7fff0000;
    static constexpr uint64_t stackLimit = 0x7000000;
};

} // namespace ipds

#endif // IPDS_VM_VM_H
