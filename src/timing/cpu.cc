#include "timing/cpu.h"

#include <bit>

#include "support/diag.h"

namespace ipds {

namespace {

/** @p cfg, or FatalError naming the field checkTimingConfig rejects. */
const TimingConfig &
checked(const TimingConfig &cfg)
{
    if (auto bad = checkTimingConfig(cfg))
        fatal("CpuModel: invalid timing config: %s", bad->c_str());
    return cfg;
}

uint32_t
log2Of(uint32_t pow2)
{
    return static_cast<uint32_t>(std::countr_zero(pow2));
}

} // namespace

CpuModel::CpuModel(const TimingConfig &c)
    : cfg(checked(c)), dispatchStep(cfg.commitWidth / cfg.issueWidth),
      commitShift(log2Of(cfg.commitWidth)),
      fetchShift(log2Of(cfg.l1i.blockBytes)),
      pageShift(log2Of(cfg.pageBytes)), tlbMask(cfg.tlbEntries - 1),
      // First chunk, then the rest of the L1D block (uint32 product).
      memMissCycles(uint64_t(cfg.memFirstChunk) +
                    cfg.memInterChunk * (cfg.l1d.blockBytes / 8 > 0
                                             ? cfg.l1d.blockBytes / 8 - 1
                                             : 0)),
      l1i(cfg.l1i), l1d(cfg.l1d), l2(cfg.l2),
      // The engine keeps a reference: bind it to our own copy, not to
      // the caller's (possibly temporary) argument.
      bpred(cfg), engine(cfg), tlb(cfg.tlbEntries, ~0ULL),
      ruuLine(cfg.ruuSize, 0), lsqLine(cfg.lsqSize, 0),
      fetchLine(cfg.fetchQueue, 0), reqRing(cfg.requestRingCapacity)
{
    // Ring overflow backpressure: a producer that outruns the
    // commit-point drains hands the oldest chunk straight to the
    // engine at the current cycle instead of aborting; any stall it
    // causes is charged like a queue-full stall.
    reqRing.setOverflowSink([this](const IpdsRequest &rq) {
        ipdsStalls += engine.enqueue(rq, curCycle());
    });
}

std::function<void(const IpdsRequest &)>
CpuModel::requestSink()
{
    return [this](const IpdsRequest &rq) { reqRing.push(rq); };
}

void
CpuModel::setTracer(obs::Tracer *t)
{
    trc = t;
    engine.setTracer(t);
}

void
CpuModel::bindRow()
{
    if (frameDepth < readyRows.size()) {
        std::vector<uint64_t> &r = readyRows[frameDepth];
        row = r.data();
        rowLen = r.size();
    } else {
        row = nullptr;
        rowLen = 0;
    }
}

void
CpuModel::growRow(Vreg v)
{
    if (frameDepth >= readyRows.size())
        readyRows.resize(frameDepth + 1);
    // Grow to a power of two (at least 16 slots): the new slots read 0
    // like slots past the end would, and a row reaches its width in a
    // few steps instead of one per higher vreg written.
    readyRows[frameDepth].resize(
        std::max<uint64_t>(std::bit_ceil(uint64_t(v) + 1), 16));
    bindRow();
}

uint64_t
CpuModel::tlbAccess(uint64_t addr)
{
    uint64_t page = addr >> pageShift;
    uint64_t slot = page & tlbMask;
    if (tlb[slot] == page)
        return 0;
    tlb[slot] = page;
    tlbMissCount++;
    return cfg.tlbMissCycles;
}

uint64_t
CpuModel::loadLatency(uint64_t addr)
{
    uint64_t lat = cfg.l1d.latency + tlbAccess(addr);
    if (l1d.access(addr))
        return lat;
    lat += cfg.l2.latency;
    if (l2.access(addr))
        return lat;
    return lat + memMissCycles;
}

void
CpuModel::onFunctionEnter(FuncId)
{
    frameDepth++;
    bindRow();
}

void
CpuModel::onFunctionExit(FuncId)
{
    if (frameDepth > 0)
        frameDepth--;
    bindRow();
}

void
CpuModel::onBranch(FuncId, uint64_t pc, bool taken)
{
    // Remember the branch; penalties are charged at its onInst commit
    // so that detector requests enqueue at the right cycle.
    branchPending = true;
    pendingPc = pc;
    pendingTaken = taken;
}

namespace {

/** Synthetic library-code burst size for a builtin call. */
uint32_t
builtinBurst(const TimingConfig &cfg, Builtin b)
{
    switch (b) {
      case Builtin::GetInput:
      case Builtin::GetInputN:
      case Builtin::InputInt:
        return cfg.inputCallInsts;
      case Builtin::PrintStr:
      case Builtin::PrintInt:
        return cfg.outputCallInsts;
      case Builtin::Exit:
      case Builtin::Abort:
        return 0;
      default:
        return cfg.stringCallInsts;
    }
}

} // namespace

void
CpuModel::onInst(const Inst &in, uint64_t mem_addr, uint32_t mem_size,
                 bool /* is_load: direction is implied by the op */)
{
    instCore(in, mem_addr, mem_size, kDrainAllSeq);
}

void
CpuModel::onBatch(const EventBatch &b)
{
    for (uint32_t i = 0; i < b.n; i++) {
        const VmInstEvent &e = b.ev[i];
        if (e.isBranch) {
            branchPending = true;
            pendingPc = e.inst->pc;
            pendingTaken = e.taken;
        }
        instCore(*e.inst, e.memAddr, e.memSize, i);
    }
}

void
CpuModel::instCore(const Inst &in, uint64_t mem_addr,
                   uint32_t mem_size, uint32_t drain_seq)
{
    const uint32_t W = cfg.commitWidth;
    nInst++;

    // ---- dispatch ---------------------------------------------------
    uint64_t dp = dispatchTick + dispatchStep;
    dp = std::max(dp, redirectTick);
    // RUU occupancy: dispatch at most ruuSize ahead of commit.
    dp = std::max(dp, ruuLine.front());
    // LSQ occupancy: at most lsqSize memory operations in flight.
    if (mem_size != 0)
        dp = std::max(dp, lsqLine.front());
    // Fetch queue: the front end buffers at most fetchQueue
    // instructions ahead of dispatch (a long stall drains it; the
    // model charges the refill as a dispatch floor).
    dp = std::max(dp, fetchLine.front());
    fetchLine.rotate(dp + W);
    // Instruction fetch: new block -> L1I probe; miss stalls dispatch.
    uint64_t block = in.pc >> fetchShift;
    if (block != lastFetchBlock) {
        lastFetchBlock = block;
        uint64_t pen = tlbAccess(in.pc);
        if (!l1i.access(in.pc)) {
            pen += cfg.l2.latency;
            if (!l2.access(in.pc))
                pen += cfg.memFirstChunk;
        }
        dp += pen * W;
    }
    dispatchTick = dp;

    // ---- issue & execute --------------------------------------------
    uint64_t issue = std::max({dp, srcReady(in.srcA),
                               srcReady(in.srcB)});
    for (Vreg a : in.args)
        issue = std::max(issue, srcReady(a));

    uint64_t latCycles = 1;
    switch (in.op) {
      case Op::Load:
      case Op::LoadInd:
        latCycles = loadLatency(mem_addr);
        break;
      case Op::Store:
      case Op::StoreInd:
        // Stores retire through the store buffer: update tag state
        // but do not stall the dependence chain.
        if (mem_size != 0) {
            tlbAccess(mem_addr);
            if (!l1d.access(mem_addr))
                l2.access(mem_addr);
        }
        latCycles = 1;
        break;
      case Op::Bin:
        if (in.bin == BinOp::Div || in.bin == BinOp::Rem)
            latCycles = 20;
        else if (in.bin == BinOp::Mul)
            latCycles = 3;
        break;
      case Op::Call:
        // Builtins stand for untraced library code.
        if (in.builtin != Builtin::None)
            latCycles = cfg.builtinInstCost;
        break;
      default:
        break;
    }
    uint64_t complete = issue + latCycles * W;
    setReady(in.dst, complete);

    // ---- commit (in order, width-limited) ----------------------------
    uint64_t commit = std::max(lastCommitTick + 1, complete);

    // Branch resolution: mispredicts redirect the front end.
    if (in.op == Op::Br && branchPending) {
        branchPending = false;
        nBranch++;
        if (!bpred.update(pendingPc, pendingTaken))
            redirectTick = std::max(redirectTick,
                                    complete +
                                        cfg.mispredictPenalty * W);
    }

    // IPDS requests triggered by this instruction enqueue at commit;
    // the detector wrote them into the ring inline, we drain in batch.
    if (cfg.ipdsEnabled && reqRing.dueThrough(drain_seq)) {
        uint64_t now = commit >> commitShift;
        bool stalled = false;
        reqRing.drainThrough(drain_seq, [&](const IpdsRequest &rq) {
            uint64_t stall = engine.enqueue(rq, now);
            if (stall) {
                commit += stall * W;
                now = commit >> commitShift;
                ipdsStalls += stall;
                stalled = true;
            }
            if (trc)
                trc->record(obs::kCatQueue,
                            obs::TraceKind::RequestDequeue, rq.func,
                            rq.pc, static_cast<uint64_t>(rq.kind),
                            static_cast<uint32_t>(stall));
        });
        // A full request queue backs the whole pipeline up: commit
        // waits, the window fills, dispatch stops.
        if (stalled)
            dispatchTick = std::max(dispatchTick, commit);
    } else if (!cfg.ipdsEnabled) {
        reqRing.clear();
    }

    // Library/kernel code behind a builtin call: pace dispatch and
    // commit through the synthetic burst. Its branches are unprotected
    // (§5.3) and generate no IPDS requests.
    if (in.op == Op::Call && in.builtin != Builtin::None) {
        uint64_t burst = builtinBurst(cfg, in.builtin);
        commit += burst;
        dispatchTick = std::max(dispatchTick, commit);
        nInst += burst;
    }

    lastCommitTick = commit;
    // The instruction takes the slot its dispatch floor came from.
    ruuLine.rotate(commit);
    if (mem_size != 0)
        lsqLine.rotate(commit);
}

uint64_t
CpuModel::contextSwitch(bool lazy)
{
    uint64_t cycles = engine.contextSwitch(lazy);
    // The whole pipeline waits for the synchronous swap: the switch
    // happens between instructions, so commit and dispatch both move.
    lastCommitTick += cycles * cfg.commitWidth;
    dispatchTick = std::max(dispatchTick, lastCommitTick);
    // The incoming process starts with cold structures of its own;
    // returning to this one refetches its footprint naturally through
    // the (shared, possibly-evicted) cache models.
    lastFetchBlock = ~0ULL;
    return cycles;
}

TimingStats
CpuModel::stats() const
{
    TimingStats s;
    s.instructions = nInst;
    s.cycles = curCycle();
    s.branches = nBranch;
    s.mispredicts = bpred.mispredicts();
    s.l1iMisses = l1i.misses();
    s.l1dMisses = l1d.misses();
    s.l2Misses = l2.misses();
    s.tlbMisses = tlbMissCount;
    s.ipdsStallCycles = ipdsStalls;
    s.ringMaxOccupancy = reqRing.maxOccupancy();
    s.ringDrains = reqRing.drainCount();
    s.ringOverflowFlushes = reqRing.overflowFlushCount();
    s.ringFaultDrops = reqRing.faultDropCount();
    s.ringFaultDups = reqRing.faultDupCount();
    s.engine = engine.stats();
    return s;
}

} // namespace ipds
