#include "vm/vm.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/diag.h"

namespace ipds {

namespace {

/** Internal control-flow exception for runtime faults. */
struct TrapError
{
    std::string msg;
};

/** Internal control-flow exception for the exit() builtin. */
struct ExitCall
{
    int64_t code;
};

} // namespace

Vm::Vm(const Module &prog)
    : Vm(prog, decodeCached(prog))
{
}

Vm::Vm(const Module &prog,
       std::shared_ptr<const DecodedProgram> predecoded)
    : mod(prog), dec(std::move(predecoded))
{
    layoutStatics();
    sp = stackTop;
    frames.reserve(8);
}

void
Vm::layoutStatics()
{
    // Placement comes from the shared predecode layout
    // (computeStaticBases) and the initial bytes from its prebuilt
    // page image, attached copy-on-write: constructing a Vm writes no
    // static data at all. `dec` is held by this Vm, so the image
    // outlives `mem`.
    mem.setImage(&dec->staticImage);
}

uint64_t
Vm::globalBase(ObjectId obj) const
{
    if (obj >= dec->staticBase.size() || dec->staticBase[obj] == 0)
        panic("globalBase: object %u is not a static object", obj);
    return dec->staticBase[obj];
}

uint64_t
Vm::entryLocalAddr(const std::string &name) const
{
    const Function &fn = mod.functions[mod.entry];
    const DecodedFunc &df = dec->funcs[mod.entry];
    std::string full = fn.name + "." + name;
    uint64_t base = stackTop - df.frameSize;
    for (size_t i = 0; i < fn.locals.size(); i++) {
        if (mod.objects[fn.locals[i]].name == full)
            return base + df.localOffset[i];
    }
    panic("entryLocalAddr: no local named '%s' in %s", name.c_str(),
          fn.name.c_str());
}

void
Vm::setInputs(std::vector<std::string> lines)
{
    inputs = std::move(lines);
    inputPos = 0;
}

void
Vm::addObserver(ExecObserver *obs)
{
    observers.push_back(obs);
}

void
Vm::addTamper(const TamperSpec &spec)
{
    if (spec.atStep == 0 && spec.afterInputEvent == 0)
        fatal("Vm::addTamper: a tamper needs a trigger "
              "(atStep > 0 or afterInputEvent > 0)");
    if (spec.atStep > 0)
        stepTampers.push_back(spec);
    else
        eventTampers.push_back(spec);
}

void
Vm::trap(const std::string &why)
{
    throw TrapError{why};
}

uint64_t
Vm::localAddr(const Frame &fr, ObjectId obj, int64_t off) const
{
    const MemObject &o = mod.objects[obj];
    if (o.kind != ObjectKind::Local)
        return dec->staticBase[obj] + static_cast<uint64_t>(off);
    const Function &fn = mod.functions[fr.func];
    for (size_t i = 0; i < fn.locals.size(); i++) {
        if (fn.locals[i] == obj)
            return fr.localBase[i] + static_cast<uint64_t>(off);
    }
    panic("localAddr: object %s not a local of %s",
          o.name.c_str(), fn.name.c_str());
}

void
Vm::pushFrame(FuncId f, const std::vector<int64_t> &args,
              Vreg caller_dst)
{
    const Function &fn = mod.functions[f];
    const DecodedFunc &df = dec->funcs[f];
    Frame fr;
    fr.func = f;
    fr.regs.assign(fn.nextVreg, 0);
    fr.callerDst = caller_dst;

    // Locals lie bottom-up in declaration order (precomputed by the
    // predecoder): a buffer overflow (increasing addresses) runs into
    // later-declared locals and then the caller's frame, as on a real
    // downward-growing stack.
    if (sp < df.frameSize + stackLimit)
        trap("stack overflow in " + fn.name);
    sp -= df.frameSize;
    fr.frameBase = sp;
    fr.localBase.resize(fn.locals.size());
    for (size_t i = 0; i < fn.locals.size(); i++)
        fr.localBase[i] = fr.frameBase + df.localOffset[i];

    // Bind arguments: GetArg reads regs via a shadow copy.
    fr.args = args;

    frames.push_back(std::move(fr));
    stats_.blocks++; // the callee's entry block
    if (soloObs)
        soloObs->onFunctionEnter(f);
    else
        for (auto *obs : observers)
            obs->onFunctionEnter(f);
}

void
Vm::popFrame()
{
    const Frame &fr = frames.back();
    sp += dec->funcs[fr.func].frameSize;
    FuncId f = fr.func;
    frames.pop_back();
    if (soloObs)
        soloObs->onFunctionExit(f);
    else
        for (auto *obs : observers)
            obs->onFunctionExit(f);
}

RunResult
Vm::run()
{
    RunResult res;
    if (mod.entry == kNoFunc)
        panic("Vm::run: module has no entry point");
    if (trc)
        trc->record(obs::kCatSession, obs::TraceKind::SessionBegin,
                    mod.entry, 0, sessionIndex);
    soloObs = observers.size() == 1 ? observers[0] : nullptr;
    instEventsOn = false;
    for (ExecObserver *obs : observers)
        instEventsOn |= obs->wantsInstEvents();
    std::stable_sort(stepTampers.begin(), stepTampers.end(),
                     [](const TamperSpec &a, const TamperSpec &b) {
                         return a.atStep < b.atStep;
                     });
    stepFired = 0;
    std::stable_sort(eventTampers.begin(), eventTampers.end(),
                     [](const TamperSpec &a, const TamperSpec &b) {
                         return a.afterInputEvent < b.afterInputEvent;
                     });
    eventFired = 0;
    try {
        pushFrame(mod.entry, {}, kNoVreg);
        if (engineKind == VmEngine::Threaded) {
            runThreaded(res);
        } else {
            while (!frames.empty()) {
                if (!step(res))
                    break;
            }
        }
    } catch (const TrapError &t) {
        res.exit = ExitKind::Trapped;
        res.trapMessage = t.msg;
    } catch (const ExitCall &e) {
        res.exit = ExitKind::Exited;
        res.exitCode = e.code;
    }
    res.steps = steps;
    stats_.instructions = steps;
    res.inputEventCount = inputEvents;
    res.faultTampers = std::move(tamperRecords);
    tamperRecords.clear();
    if (trc)
        trc->record(obs::kCatSession, obs::TraceKind::SessionEnd,
                    mod.entry, 0, sessionIndex,
                    static_cast<uint32_t>(steps));
    return res;
}

bool
Vm::step(RunResult &res)
{
    if (steps >= fuel) {
        // A step-armed tamper at exactly the fuel boundary must fire
        // before the out-of-fuel bail: both engines check fuel at
        // batch granularity, so the two conditions can trip in the
        // same check, and fuel exhaustion must not mask the tamper.
        fireDueStepTampers();
        res.exit = ExitKind::OutOfFuel;
        return false;
    }
    steps++;

    Frame &fr = frames.back();
    const Function &fn = mod.functions[fr.func];
    const Inst &in = fn.blocks[fr.block].insts[fr.ip];

    uint64_t memAddr = 0;
    uint32_t memSize = 0;
    bool isLoad = false;

    switch (in.op) {
      case Op::ConstInt:
        fr.regs[in.dst] = in.imm;
        fr.ip++;
        break;
      case Op::AddrOf:
        fr.regs[in.dst] = static_cast<int64_t>(
            localAddr(fr, in.object, in.imm));
        fr.ip++;
        break;
      case Op::Load: {
        memAddr = localAddr(fr, in.object, in.imm);
        memSize = static_cast<uint32_t>(in.size);
        isLoad = true;
        fr.regs[in.dst] = in.size == MemSize::I8
            ? static_cast<int64_t>(mem.readByte(memAddr))
            : mem.readI64(memAddr);
        fr.ip++;
        break;
      }
      case Op::LoadInd: {
        memAddr = static_cast<uint64_t>(fr.regs[in.srcA]);
        memSize = static_cast<uint32_t>(in.size);
        isLoad = true;
        fr.regs[in.dst] = in.size == MemSize::I8
            ? static_cast<int64_t>(mem.readByte(memAddr))
            : mem.readI64(memAddr);
        fr.ip++;
        break;
      }
      case Op::Store: {
        memAddr = localAddr(fr, in.object, in.imm);
        memSize = static_cast<uint32_t>(in.size);
        if (in.size == MemSize::I8)
            mem.writeByte(memAddr,
                          static_cast<uint8_t>(fr.regs[in.srcA]));
        else
            mem.writeI64(memAddr, fr.regs[in.srcA]);
        fr.ip++;
        break;
      }
      case Op::StoreInd: {
        memAddr = static_cast<uint64_t>(fr.regs[in.srcA]);
        memSize = static_cast<uint32_t>(in.size);
        if (in.size == MemSize::I8)
            mem.writeByte(memAddr,
                          static_cast<uint8_t>(fr.regs[in.srcB]));
        else
            mem.writeI64(memAddr, fr.regs[in.srcB]);
        fr.ip++;
        break;
      }
      case Op::Bin: {
        int64_t a = fr.regs[in.srcA];
        int64_t b = fr.regs[in.srcB];
        int64_t out = 0;
        switch (in.bin) {
          case BinOp::Add:
            out = static_cast<int64_t>(static_cast<uint64_t>(a) +
                                       static_cast<uint64_t>(b));
            break;
          case BinOp::Sub:
            out = static_cast<int64_t>(static_cast<uint64_t>(a) -
                                       static_cast<uint64_t>(b));
            break;
          case BinOp::Mul:
            out = static_cast<int64_t>(static_cast<uint64_t>(a) *
                                       static_cast<uint64_t>(b));
            break;
          case BinOp::Div:
            if (b == 0)
                trap("division by zero");
            if (a == INT64_MIN && b == -1)
                out = INT64_MIN;
            else
                out = a / b;
            break;
          case BinOp::Rem:
            if (b == 0)
                trap("remainder by zero");
            if (a == INT64_MIN && b == -1)
                out = 0;
            else
                out = a % b;
            break;
          case BinOp::And: out = a & b; break;
          case BinOp::Or: out = a | b; break;
          case BinOp::Xor: out = a ^ b; break;
          case BinOp::Shl:
            out = static_cast<int64_t>(static_cast<uint64_t>(a)
                                       << (b & 63));
            break;
          case BinOp::Shr:
            out = a >> (b & 63);
            break;
        }
        fr.regs[in.dst] = out;
        fr.ip++;
        break;
      }
      case Op::Cmp: {
        int64_t a = fr.regs[in.srcA];
        int64_t b = fr.regs[in.srcB];
        bool r = false;
        switch (in.pred) {
          case Pred::EQ: r = a == b; break;
          case Pred::NE: r = a != b; break;
          case Pred::LT: r = a < b; break;
          case Pred::LE: r = a <= b; break;
          case Pred::GT: r = a > b; break;
          case Pred::GE: r = a >= b; break;
        }
        fr.regs[in.dst] = r ? 1 : 0;
        fr.ip++;
        break;
      }
      case Op::Br: {
        bool taken = fr.regs[in.srcA] != 0;
        if (recordTrace)
            res.branchTrace.push_back({in.pc, taken});
        if (soloObs)
            soloObs->onBranch(fr.func, in.pc, taken);
        else
            for (auto *obs : observers)
                obs->onBranch(fr.func, in.pc, taken);
        fr.block = taken ? in.target : in.fallthrough;
        fr.ip = 0;
        stats_.blocks++;
        break;
      }
      case Op::Jmp:
        fr.block = in.target;
        fr.ip = 0;
        stats_.blocks++;
        break;
      case Op::Call: {
        if (in.builtin != Builtin::None) {
            execBuiltin(fr, in, res);
            fr.ip++;
        } else {
            std::vector<int64_t> args;
            args.reserve(in.args.size());
            for (Vreg a : in.args)
                args.push_back(fr.regs[a]);
            FuncId callee = in.callee;
            Vreg dst = in.dst;
            fr.ip++; // resume after the call on return
            // NOTE: fr is invalidated by pushFrame.
            pushFrame(callee, args, dst);
        }
        break;
      }
      case Op::Ret: {
        int64_t value =
            in.srcA != kNoVreg ? fr.regs[in.srcA] : 0;
        Vreg dst = fr.callerDst;
        popFrame();
        if (frames.empty()) {
            res.exit = ExitKind::Returned;
            res.exitCode = value;
        } else if (dst != kNoVreg) {
            frames.back().regs[dst] = value;
        }
        break;
      }
      case Op::GetArg: {
        size_t idx = static_cast<size_t>(in.imm);
        fr.regs[in.dst] = idx < frames.back().args.size()
            ? frames.back().args[idx] : 0;
        fr.ip++;
        break;
      }
    }

    if (soloObs)
        soloObs->onInst(in, memAddr, memSize, isLoad);
    else
        for (auto *obs : observers)
            obs->onInst(in, memAddr, memSize, isLoad);

    if (stepFired < stepTampers.size() &&
        steps >= stepTampers[stepFired].atStep)
        fireDueStepTampers();
    return !frames.empty();
}

// Computed-goto dispatch (GNU label values, which GCC and Clang
// provide): one indirect jump per opcode, so the branch predictor
// learns per-opcode successor patterns.
#define IPDS_OP(name) L_##name:
#define IPDS_DISPATCH()                                                \
    do {                                                               \
        if (budget == 0)                                               \
            goto checkpoint;                                           \
        budget--;                                                      \
        d = &ops[ip++];                                                \
        goto *kLabels[static_cast<size_t>(d->op)];                     \
    } while (0)

void
Vm::runThreaded(RunResult &res)
{
    // Every local lives above the first label: the dispatch gotos must
    // not jump over an initialization.
    Frame *fr = &frames.back();
    const DecodedFunc *df = &dec->funcs[fr->func];
    const DecodedOp *ops = df->ops.data();
    int64_t *regs = fr->regs.data();
    uint32_t ip = 0;
    const DecodedOp *d = nullptr;
    // One chunk = the ops until the next fuel/tamper/buffer boundary.
    // A single countdown replaces the per-instruction fuel and tamper
    // checks: chunk ends are scheduled exactly at those boundaries, so
    // checkpoint-granularity checks observe the same step counts as
    // the switch engine's per-instruction ones.
    uint64_t chunkSize = 0;
    uint64_t budget = 0;
    uint64_t blk = 0;
    VmInstEvent evBuf[kBatchCap];
    uint32_t nev = 0;
    FuncId batchFunc = kNoFunc;
    ExecObserver *const solo = soloObs;
    const bool anyObs = !observers.empty();

    auto flush = [&]() {
        if (nev == 0)
            return;
        EventBatch b;
        b.func = batchFunc;
        b.ev = evBuf;
        b.n = nev;
        stats_.eventBatchFlushes++;
        if (solo)
            solo->onBatch(b);
        else
            for (auto *obs : observers)
                obs->onBatch(b);
        nev = 0;
    };
    // Instruction events are skipped wholesale when no observer wants
    // them (detector-only deployment): branches remain the only
    // delivered events, mirroring the paper's hardware interface.
    const bool instEv = instEventsOn;
    auto emitInst = [&](uint64_t mem_addr, uint32_t mem_size,
                        bool is_load) {
        if (!instEv)
            return;
        VmInstEvent &e = evBuf[nev++];
        e.inst = d->src;
        e.memAddr = mem_addr;
        e.memSize = mem_size;
        e.isLoad = is_load;
        e.isBranch = false;
        e.taken = false;
        if (nev == kBatchCap)
            flush();
    };
    // Commits the conditional branch in *d: trace entry, one buffered
    // event carrying both the branch and its inst commit, then takes
    // the edge. Shared by the Br handler and the fused
    // compare-and-branch ops.
    auto commitBranch = [&](bool taken) {
        if (recordTrace)
            res.branchTrace.push_back({d->src->pc, taken});
        if (anyObs) {
            VmInstEvent &e = evBuf[nev++];
            e.inst = d->src;
            e.memAddr = 0;
            e.memSize = 0;
            e.isLoad = false;
            e.isBranch = true;
            e.taken = taken;
            batchFunc = fr->func;
            if (nev == kBatchCap)
                flush();
        }
        ip = taken ? d->a : d->b;
        blk++;
    };

    try {
        // Must mirror the DecOp declaration order exactly
        // (static_assert below pins the count).
        static const void *const kLabels[] = {
            &&L_ConstInt, &&L_AddrLocal, &&L_AddrStatic,
            &&L_LoadLoc8, &&L_LoadLoc64, &&L_LoadSt8, &&L_LoadSt64,
            &&L_LoadInd8, &&L_LoadInd64,
            &&L_StoreLoc8, &&L_StoreLoc64, &&L_StoreSt8, &&L_StoreSt64,
            &&L_StoreInd8, &&L_StoreInd64,
            &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Rem,
            &&L_And, &&L_Or, &&L_Xor, &&L_Shl, &&L_Shr,
            &&L_CmpEq, &&L_CmpNe, &&L_CmpLt, &&L_CmpLe, &&L_CmpGt,
            &&L_CmpGe,
            &&L_Br, &&L_Jmp, &&L_CallUser, &&L_CallBuiltin,
            &&L_RetOp, &&L_GetArg,
            &&L_BrCmpEq, &&L_BrCmpNe, &&L_BrCmpLt, &&L_BrCmpLe,
            &&L_BrCmpGt, &&L_BrCmpGe,
        };
        static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                          static_cast<size_t>(DecOp::Count_),
                      "dispatch table out of sync with DecOp");
        IPDS_DISPATCH();

        IPDS_OP(ConstInt) {
            regs[d->dst] = d->imm;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(AddrLocal) {
            regs[d->dst] = static_cast<int64_t>(
                fr->frameBase + static_cast<uint64_t>(d->imm));
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(AddrStatic) {
            regs[d->dst] = d->imm;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadLoc8) {
            uint64_t ad =
                fr->frameBase + static_cast<uint64_t>(d->imm);
            regs[d->dst] = static_cast<int64_t>(mem.readByte(ad));
            emitInst(ad, 1, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadLoc64) {
            uint64_t ad =
                fr->frameBase + static_cast<uint64_t>(d->imm);
            regs[d->dst] = mem.readI64(ad);
            emitInst(ad, 8, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadSt8) {
            uint64_t ad = static_cast<uint64_t>(d->imm);
            regs[d->dst] = static_cast<int64_t>(mem.readByte(ad));
            emitInst(ad, 1, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadSt64) {
            uint64_t ad = static_cast<uint64_t>(d->imm);
            regs[d->dst] = mem.readI64(ad);
            emitInst(ad, 8, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadInd8) {
            uint64_t ad = static_cast<uint64_t>(regs[d->a]);
            regs[d->dst] = static_cast<int64_t>(mem.readByte(ad));
            emitInst(ad, 1, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(LoadInd64) {
            uint64_t ad = static_cast<uint64_t>(regs[d->a]);
            regs[d->dst] = mem.readI64(ad);
            emitInst(ad, 8, true);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreLoc8) {
            uint64_t ad =
                fr->frameBase + static_cast<uint64_t>(d->imm);
            mem.writeByte(ad, static_cast<uint8_t>(regs[d->a]));
            emitInst(ad, 1, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreLoc64) {
            uint64_t ad =
                fr->frameBase + static_cast<uint64_t>(d->imm);
            mem.writeI64(ad, regs[d->a]);
            emitInst(ad, 8, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreSt8) {
            uint64_t ad = static_cast<uint64_t>(d->imm);
            mem.writeByte(ad, static_cast<uint8_t>(regs[d->a]));
            emitInst(ad, 1, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreSt64) {
            uint64_t ad = static_cast<uint64_t>(d->imm);
            mem.writeI64(ad, regs[d->a]);
            emitInst(ad, 8, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreInd8) {
            uint64_t ad = static_cast<uint64_t>(regs[d->a]);
            mem.writeByte(ad, static_cast<uint8_t>(regs[d->b]));
            emitInst(ad, 1, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(StoreInd64) {
            uint64_t ad = static_cast<uint64_t>(regs[d->a]);
            mem.writeI64(ad, regs[d->b]);
            emitInst(ad, 8, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Add) {
            regs[d->dst] = static_cast<int64_t>(
                static_cast<uint64_t>(regs[d->a]) +
                static_cast<uint64_t>(regs[d->b]));
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Sub) {
            regs[d->dst] = static_cast<int64_t>(
                static_cast<uint64_t>(regs[d->a]) -
                static_cast<uint64_t>(regs[d->b]));
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Mul) {
            regs[d->dst] = static_cast<int64_t>(
                static_cast<uint64_t>(regs[d->a]) *
                static_cast<uint64_t>(regs[d->b]));
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Div) {
            int64_t a = regs[d->a];
            int64_t b = regs[d->b];
            if (b == 0)
                trap("division by zero");
            regs[d->dst] =
                (a == INT64_MIN && b == -1) ? INT64_MIN : a / b;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Rem) {
            int64_t a = regs[d->a];
            int64_t b = regs[d->b];
            if (b == 0)
                trap("remainder by zero");
            regs[d->dst] = (a == INT64_MIN && b == -1) ? 0 : a % b;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(And) {
            regs[d->dst] = regs[d->a] & regs[d->b];
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Or) {
            regs[d->dst] = regs[d->a] | regs[d->b];
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Xor) {
            regs[d->dst] = regs[d->a] ^ regs[d->b];
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Shl) {
            regs[d->dst] = static_cast<int64_t>(
                static_cast<uint64_t>(regs[d->a])
                << (regs[d->b] & 63));
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Shr) {
            regs[d->dst] = regs[d->a] >> (regs[d->b] & 63);
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpEq) {
            regs[d->dst] = regs[d->a] == regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpNe) {
            regs[d->dst] = regs[d->a] != regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpLt) {
            regs[d->dst] = regs[d->a] < regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpLe) {
            regs[d->dst] = regs[d->a] <= regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpGt) {
            regs[d->dst] = regs[d->a] > regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CmpGe) {
            regs[d->dst] = regs[d->a] >= regs[d->b] ? 1 : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(Br) {
            commitBranch(regs[d->dst] != 0);
            IPDS_DISPATCH();
        }
        IPDS_OP(Jmp) {
            ip = d->a;
            blk++;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CallUser) {
            // The batch must not span the enter event; the call inst's
            // own event lands in the new batch, matching the
            // per-event order (enter, then the call's onInst).
            flush();
            argScratch.clear();
            for (uint32_t i = 0; i < d->nArgs; i++)
                argScratch.push_back(regs[df->argPool[d->b + i]]);
            fr->ip = ip; // resume after the call on return
            pushFrame(static_cast<FuncId>(d->a), argScratch, d->dst);
            fr = &frames.back();
            df = &dec->funcs[fr->func];
            ops = df->ops.data();
            regs = fr->regs.data();
            ip = 0;
            // d still points into the caller's op array (stable:
            // DecodedProgram is immutable), so the call inst's event
            // can be emitted after the frame switch.
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(CallBuiltin) {
            execBuiltin(*fr, *d->src, res);
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }
        IPDS_OP(RetOp) {
            int64_t value = d->a != kNoVreg ? regs[d->a] : 0;
            Vreg dst = fr->callerDst;
            flush();
            popFrame();
            emitInst(0, 0, false);
            if (frames.empty()) {
                res.exit = ExitKind::Returned;
                res.exitCode = value;
                steps += chunkSize - budget;
                stats_.blocks += blk;
                flush();
                return;
            }
            fr = &frames.back();
            df = &dec->funcs[fr->func];
            ops = df->ops.data();
            regs = fr->regs.data();
            ip = fr->ip;
            if (dst != kNoVreg)
                regs[dst] = value;
            IPDS_DISPATCH();
        }
        IPDS_OP(GetArg) {
            size_t idx = static_cast<size_t>(d->imm);
            regs[d->dst] = idx < fr->args.size() ? fr->args[idx] : 0;
            emitInst(0, 0, false);
            IPDS_DISPATCH();
        }

// Fused compare-and-branch. The cmp half commits first (result still
// written — it may be live past the branch); if the chunk has budget
// left, the paired Br at the next index is consumed inline instead of
// going back through dispatch. At a chunk boundary (budget == 0) the
// pair splits: the checkpoint runs between the two commits and the Br
// then dispatches normally — exactly the interleaving the switch
// engine's per-instruction checks produce.
#define IPDS_OP_BRCMP(name, cmpop)                                     \
        IPDS_OP(BrCmp##name) {                                         \
            const bool cond = regs[d->a] cmpop regs[d->b];             \
            regs[d->dst] = cond ? 1 : 0;                               \
            emitInst(0, 0, false);                                     \
            if (budget != 0) {                                         \
                budget--;                                              \
                d = &ops[ip++];                                        \
                commitBranch(cond);                                    \
            }                                                          \
            IPDS_DISPATCH();                                           \
        }

        IPDS_OP_BRCMP(Eq, ==)
        IPDS_OP_BRCMP(Ne, !=)
        IPDS_OP_BRCMP(Lt, <)
        IPDS_OP_BRCMP(Le, <=)
        IPDS_OP_BRCMP(Gt, >)
        IPDS_OP_BRCMP(Ge, >=)
#undef IPDS_OP_BRCMP

    checkpoint:
        // Only fuel exhaustion and step-armed tampers land here: the
        // event buffer flushes itself at the append sites when full,
        // so chunks are not capped by remaining batch capacity and a
        // typical run re-enters the checkpoint once or twice total.
        steps += chunkSize - budget;
        stats_.blocks += blk;
        blk = 0;
        // A step-armed tamper at exactly the fuel boundary must fire
        // before the out-of-fuel bail (see the matching check in
        // step()).
        if (stepFired < stepTampers.size() &&
            steps >= stepTampers[stepFired].atStep)
            fireDueStepTampers();
        if (steps >= fuel) {
            fr->ip = ip;
            flush();
            res.exit = ExitKind::OutOfFuel;
            return;
        }
        chunkSize = fuel - steps;
        if (stepFired < stepTampers.size() &&
            stepTampers[stepFired].atStep > steps)
            chunkSize = std::min(
                chunkSize, stepTampers[stepFired].atStep - steps);
        budget = chunkSize;
        IPDS_DISPATCH();
    } catch (...) {
        // Trap/exit unwinding: the faulting op counted a step but is
        // not delivered, exactly like the switch engine.
        steps += chunkSize - budget;
        stats_.blocks += blk;
        flush();
        throw;
    }
}

#undef IPDS_OP
#undef IPDS_DISPATCH

void
Vm::fireDueStepTampers()
{
    while (stepFired < stepTampers.size() &&
           steps >= stepTampers[stepFired].atStep) {
        tamperRecords.emplace_back();
        fireTamperSpec(stepTampers[stepFired], tamperRecords.back());
        stepFired++;
    }
}

void
Vm::fireDueEventTampers()
{
    while (eventFired < eventTampers.size() &&
           inputEvents >= eventTampers[eventFired].afterInputEvent) {
        tamperRecords.emplace_back();
        fireTamperSpec(eventTampers[eventFired], tamperRecords.back());
        eventFired++;
    }
}

void
Vm::fireTamperSpec(const TamperSpec &spec, TamperRecord &rec)
{
    uint64_t addr = spec.addr;
    std::vector<uint8_t> bytes = spec.bytes;

    if (spec.randomStackTarget) {
        Rng rng(spec.seed);
        // Candidate targets: every local object of every live frame.
        struct Cand
        {
            uint64_t addr;
            uint32_t size;
            const MemObject *obj;
        };
        std::vector<Cand> cands;
        for (const auto &fr : frames) {
            const Function &fn = mod.functions[fr.func];
            for (size_t i = 0; i < fn.locals.size(); i++) {
                const MemObject &o = mod.objects[fn.locals[i]];
                cands.push_back({fr.localBase[i], o.size, &o});
            }
        }
        if (cands.empty())
            return;
        const Cand &c = cands[rng.below(cands.size())];
        uint32_t width;
        uint32_t off = 0;
        if (c.obj->isArray) {
            width = static_cast<uint32_t>(
                rng.range(1, std::min<uint32_t>(8, c.size)));
            off = static_cast<uint32_t>(
                rng.below(c.size - width + 1));
        } else {
            width = c.size;
        }
        addr = c.addr + off;
        bytes.resize(width);
        // Attack values: a mix of the semantically interesting (0, 1,
        // small) and raw garbage.
        switch (rng.below(4)) {
          case 0:
            std::fill(bytes.begin(), bytes.end(), 0);
            break;
          case 1:
            std::fill(bytes.begin(), bytes.end(), 0);
            bytes[0] = 1;
            break;
          case 2:
            std::fill(bytes.begin(), bytes.end(), 0);
            bytes[0] = static_cast<uint8_t>(rng.below(64));
            break;
          default:
            for (auto &b : bytes)
                b = static_cast<uint8_t>(rng.below(256));
            break;
        }
        rec.objectName = c.obj->name;
    }

    rec.addr = addr;
    rec.oldBytes = mem.readBytes(addr, bytes.size());
    mem.writeBytes(addr, bytes.data(), bytes.size());
    rec.newBytes = std::move(bytes);
}

void
Vm::execBuiltin(Frame &fr, const Inst &in, RunResult &res)
{
    auto arg = [&](size_t i) { return fr.regs[in.args[i]]; };
    auto uarg = [&](size_t i) {
        return static_cast<uint64_t>(fr.regs[in.args[i]]);
    };
    static const std::string kNoMoreInput;
    auto nextInput = [&]() -> const std::string & {
        const std::string &line =
            inputPos < inputs.size() ? inputs[inputPos++]
                                     : kNoMoreInput;
        inputEvents++;
        res.inputEventPcs.push_back(in.pc);
        if (trc)
            trc->record(obs::kCatSession, obs::TraceKind::InputEvent,
                        fr.func, in.pc, inputEvents);
        return line;
    };

    switch (in.builtin) {
      case Builtin::PrintStr:
        mem.readCStrInto(res.output, uarg(0));
        break;
      case Builtin::PrintInt: {
        char buf[24];
        int len = std::snprintf(buf, sizeof buf, "%lld",
                                static_cast<long long>(arg(0)));
        res.output.append(buf, static_cast<size_t>(len));
        break;
      }
      case Builtin::GetInput: {
        const std::string &line = nextInput();
        // The classic unbounded copy: writes however much arrives.
        mem.writeBytes(uarg(0), line.data(), line.size());
        mem.writeByte(uarg(0) + line.size(), 0);
        fireDueEventTampers();
        break;
      }
      case Builtin::GetInputN: {
        const std::string &line = nextInput();
        int64_t n = arg(1);
        if (n > 0) {
            size_t cap = static_cast<size_t>(n - 1);
            size_t len = std::min(line.size(), cap);
            mem.writeBytes(uarg(0), line.data(), len);
            mem.writeByte(uarg(0) + len, 0);
        }
        fireDueEventTampers();
        break;
      }
      case Builtin::InputInt: {
        const std::string &line = nextInput();
        fr.regs[in.dst] = std::strtoll(line.c_str(), nullptr, 10);
        fireDueEventTampers();
        break;
      }
      case Builtin::Strcpy: {
        // The source is read in full BEFORE any write: an overflow
        // can make the regions overlap, and interleaving would then
        // chase the moving terminator. Short strings (the common
        // case, including typical overflow payloads) stage through a
        // stack buffer instead of a heap std::string.
        uint8_t buf[512];
        const size_t len = mem.cstrLen(uarg(1));
        if (len < sizeof buf) {
            mem.readInto(buf, uarg(1), len);
            buf[len] = 0;
            mem.writeBytes(uarg(0), buf, len + 1);
        } else {
            std::string s = mem.readCStr(uarg(1));
            mem.writeBytes(uarg(0), s.data(), s.size());
            mem.writeByte(uarg(0) + s.size(), 0);
        }
        break;
      }
      case Builtin::Strncpy: {
        std::string s = mem.readCStr(uarg(1));
        int64_t n = arg(2);
        for (int64_t i = 0; i < n; i++) {
            uint8_t b = i < static_cast<int64_t>(s.size())
                ? static_cast<uint8_t>(s[i]) : 0;
            mem.writeByte(uarg(0) + i, b);
        }
        break;
      }
      case Builtin::Strcat: {
        // Same read-everything-first discipline as Strcpy.
        const size_t dlen = mem.cstrLen(uarg(0));
        uint8_t buf[512];
        const size_t slen = mem.cstrLen(uarg(1));
        if (slen < sizeof buf) {
            mem.readInto(buf, uarg(1), slen);
            buf[slen] = 0;
            mem.writeBytes(uarg(0) + dlen, buf, slen + 1);
        } else {
            std::string s = mem.readCStr(uarg(1));
            mem.writeBytes(uarg(0) + dlen, s.data(), s.size());
            mem.writeByte(uarg(0) + dlen + s.size(), 0);
        }
        break;
      }
      case Builtin::Strcmp:
        fr.regs[in.dst] = mem.cstrCmp(uarg(0), uarg(1));
        break;
      case Builtin::Strncmp: {
        int64_t n = arg(2);
        int cmpv = 0;
        for (int64_t i = 0; i < n; i++) {
            uint8_t x = mem.readByte(uarg(0) + i);
            uint8_t y = mem.readByte(uarg(1) + i);
            if (x != y) {
                cmpv = x < y ? -1 : 1;
                break;
            }
            if (x == 0)
                break;
        }
        fr.regs[in.dst] = cmpv;
        break;
      }
      case Builtin::Strlen:
        fr.regs[in.dst] =
            static_cast<int64_t>(mem.cstrLen(uarg(0)));
        break;
      case Builtin::Memset: {
        int64_t n = arg(2);
        if (n > 0)
            mem.fillBytes(uarg(0), static_cast<uint8_t>(arg(1)),
                          static_cast<size_t>(n));
        break;
      }
      case Builtin::Memcpy: {
        int64_t n = arg(2);
        auto data = mem.readBytes(uarg(1), static_cast<size_t>(n));
        mem.writeBytes(uarg(0), data.data(), data.size());
        break;
      }
      case Builtin::Memcmp: {
        int64_t n = arg(2);
        int cmpv = 0;
        for (int64_t i = 0; i < n; i++) {
            uint8_t x = mem.readByte(uarg(0) + i);
            uint8_t y = mem.readByte(uarg(1) + i);
            if (x != y) {
                cmpv = x < y ? -1 : 1;
                break;
            }
        }
        fr.regs[in.dst] = cmpv;
        break;
      }
      case Builtin::Atoi: {
        std::string s = mem.readCStr(uarg(0));
        fr.regs[in.dst] = std::strtoll(s.c_str(), nullptr, 10);
        break;
      }
      case Builtin::Exit:
        throw ExitCall{arg(0)};
      case Builtin::Abort:
        trap("abort() called");
      default:
        panic("execBuiltin: unhandled builtin %d",
              static_cast<int>(in.builtin));
    }
}

} // namespace ipds
