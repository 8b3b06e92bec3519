#include "replay/replay.h"

#include <algorithm>
#include <cstring>

#include "obs/export.h"
#include "obs/names.h"
#include "support/diag.h"

namespace ipds {
namespace replay {

void
ReplayShardResult::merge(const ReplayShardResult &o)
{
    det.merge(o.det);
    tim.merge(o.tim);
    fault.merge(o.fault);
    alarms.insert(alarms.end(), o.alarms.begin(), o.alarms.end());
    runs += o.runs;
    steps += o.steps;
    inputEvents += o.inputEvents;
    vmInstructions += o.vmInstructions;
    vmBlocks += o.vmBlocks;
    vmFlushes += o.vmFlushes;
    chunks += o.chunks;
    bytes += o.bytes;
    events += o.events;
    snapshots += o.snapshots;
}

void
exportShardMetrics(const TraceMeta &m, const ReplayShardResult &r,
                   uint64_t traceDropped, obs::MetricsRegistry &reg)
{
    namespace n = obs::names;
    reg.add(reg.counter(n::kSessRuns), r.runs);
    reg.add(reg.counter(n::kSessSteps), r.steps);
    reg.add(reg.counter(n::kSessInputEvents), r.inputEvents);
    reg.add(reg.counter(n::kSessTraceDropped), traceDropped);
    reg.add(reg.counter(n::kVmInstructions), r.vmInstructions);
    reg.add(reg.counter(n::kVmBlocks), r.vmBlocks);
    reg.add(reg.counter(n::kVmEventBatchFlushes), r.vmFlushes);
    if (m.detectorOn())
        obs::exportDetectorStats(r.det, r.alarms.size(), reg);
    if (m.hasTiming)
        obs::exportTimingStats(r.tim, reg);
    if (m.faultCaptured())
        obs::exportFaultStats(r.fault, reg);
}

ReplayReport
replayReport(const TraceMeta &m,
             const std::vector<ReplayShardResult> &shards,
             const ReplayRun &run)
{
    namespace n = obs::names;
    ReplayReport rep;
    obs::MetricsRegistry &reg = rep.metrics;
    for (const ReplayShardResult &r : shards) {
        rep.total.merge(r);
        // The live path's per-shard block, so the shared metrics
        // merge to identical values; the replay-only meters append
        // after.
        obs::MetricsRegistry one;
        exportShardMetrics(m, r, 0, one);
        one.add(one.counter(n::kReplayChunks), r.chunks);
        one.add(one.counter(n::kReplayBytes), r.bytes);
        one.add(one.counter(n::kReplayEvents), r.events);
        one.add(one.counter(n::kReplaySnapshotsWritten), r.snapshots);
        reg.merge(one);
    }
    reg.add(reg.counter(n::kReplayBytes),
            headerBytes(m) + run.indexBytes);
    reg.add(reg.counter(n::kReplaySessions), m.sessions);
    // A replay that reports read no defect; a served stream that
    // fails counts its defect in its tenant's registry instead.
    reg.add(reg.counter(n::kReplayCrcFailures), 0);
    reg.add(reg.counter(n::kReplayTruncatedChunks), 0);
    reg.add(reg.counter(n::kReplayVersionMismatches), 0);
    reg.add(reg.counter(n::kReplayIndexMissing), run.indexMissing);
    reg.add(reg.counter(n::kReplaySeeks), run.seeks);
    reg.add(reg.counter(n::kReplaySnapshotsUsed), run.snapshotsUsed);
    reg.set(reg.gauge(n::kReplayEventsPerSec),
            run.seconds > 0.0
                ? static_cast<uint64_t>(rep.total.events / run.seconds)
                : 0);
    return rep;
}

ReplayEngine::ReplayEngine(const TraceFile &f,
                           const CompiledProgram &p)
    : file_(&f), prog(p), meta_(f.meta())
{
    buildPcIndex();
}

ReplayEngine::ReplayEngine(const TraceMeta &m,
                           const CompiledProgram &p)
    : file_(nullptr), prog(p), meta_(m)
{
    buildPcIndex();
}

void
ReplayEngine::buildPcIndex()
{
    const Module &mod = prog.mod;
    if (meta_.moduleHash != moduleContentHash(mod))
        fatal("trace: recorded from a different program (module "
              "content hash mismatch) — re-record the trace");

    uint64_t lo = ~0ull;
    uint64_t hi = 0;
    for (const Function &fn : mod.functions)
        for (const BasicBlock &bb : fn.blocks)
            for (const Inst &in : bb.insts) {
                lo = std::min(lo, in.pc);
                hi = std::max(hi, in.pc);
            }
    if (lo > hi)
        fatal("trace: program has no instructions");
    basePc = lo;
    pcIndex.assign((hi - lo) / 4 + 1, {});
    for (const Function &fn : mod.functions)
        for (const BasicBlock &bb : fn.blocks)
            for (const Inst &in : bb.insts) {
                PcKind kind = PcKind::Plain;
                if (in.op == Op::Br)
                    kind = PcKind::Branch;
                else if (in.op == Op::Load || in.op == Op::LoadInd ||
                         in.op == Op::Store || in.op == Op::StoreInd)
                    kind = PcKind::Memory;
                pcIndex[(in.pc - basePc) / 4] = {&in, fn.id, kind};
            }
}

void
ReplayEngine::badPc(uint64_t pc)
{
    fatal("trace: record references pc 0x%llx outside the module",
          static_cast<unsigned long long>(pc));
}

ReplayEngine::ShardCursor::ShardCursor(const ReplayEngine &e,
                                       uint32_t shard)
    : eng(e)
{
    const TraceMeta &m = eng.meta_;
    if (shard >= m.shards)
        fatal("replay: shard %u of %u", shard, m.shards);
    begin_ = static_cast<uint32_t>(uint64_t(shard) * m.sessions /
                                   m.shards);
    end_ = static_cast<uint32_t>(uint64_t(shard + 1) * m.sessions /
                                 m.shards);
    expectNext = begin_;
    if (m.hasTiming)
        cpu.emplace(m.timing);
}

ReplayEngine::ShardCursor::ShardCursor(const ReplayEngine &e,
                                       uint32_t begin_session,
                                       uint32_t end_session)
    : eng(e)
{
    const TraceMeta &m = eng.meta_;
    if (begin_session >= end_session || end_session > m.sessions)
        fatal("replay: session span [%u, %u) of %u", begin_session,
              end_session, m.sessions);
    begin_ = begin_session;
    end_ = end_session;
    expectNext = begin_;
    if (m.hasTiming)
        cpu.emplace(m.timing);
}

void
ReplayEngine::ShardCursor::resume(uint32_t session,
                                  const DetectorSnapshot &snap)
{
    if (finished)
        fatal("replay: resume() after finish()");
    if (cpu)
        fatal("replay: mid-session seek is not available for timing "
              "traces (the CPU scoreboard is not snapshotted) — use "
              "--seek-session");
    if (session < begin_ || session >= end_)
        fatal("replay: resume session %u outside span [%u, %u)",
              session, begin_, end_);
    if (open || expectNext != session)
        fatal("replay: resume session %u but cursor expects %u",
              session, expectNext);
    open = true;
    expectNext = session + 1;
    if (eng.meta_.detectorOn()) {
        if (!det)
            det.emplace(eng.prog);
        det->restoreState(snap);
    }
    funcStack.clear();
    funcStack.reserve(snap.activations.size());
    for (const auto &a : snap.activations)
        funcStack.push_back(a.func);
}

void
ReplayEngine::ShardCursor::feed(const ChunkRef &c,
                                const uint8_t *payload)
{
    if (finished)
        fatal("replay: feed() after finish()");
    if (c.session < begin_ || c.session >= end_)
        fatal("replay: chunk for session %u routed to span [%u, %u)",
              c.session, begin_, end_);
    out.chunks++;
    out.bytes += kChunkHeaderBytes + c.payloadLen;
    out.events += c.events;

    const bool detOn = eng.meta_.detectorOn();
    TraceReader r(payload, c.payloadLen);
    uint64_t prevPc = 0;
    uint64_t prevAddr = 0;
    uint64_t remaining = c.events;
    auto take = [&](uint64_t k) {
        if (k > remaining)
            fatal("trace: chunk event count mismatch");
        remaining -= k;
    };
    auto requireOpen = [&] {
        if (!open)
            fatal("trace: event record outside a session");
    };

    while (!r.atEnd()) {
        switch (Tag t = r.tag(); t) {
          case Tag::SessionStart: {
            take(1);
            uint64_t idx = r.var();
            uint8_t ringFault = r.byte();
            uint32_t drop = 0;
            uint32_t dup = 0;
            uint64_t seed = 0;
            if (ringFault) {
                drop = static_cast<uint32_t>(r.var());
                dup = static_cast<uint32_t>(r.var());
                seed = r.var();
            }
            if (open)
                fatal("trace: SessionStart inside an open "
                      "session");
            if (idx != c.session || idx != expectNext)
                fatal("trace: session %llu out of order "
                      "(expected %u)",
                      static_cast<unsigned long long>(idx),
                      expectNext);
            open = true;
            expectNext = static_cast<uint32_t>(idx) + 1;
            if (detOn) {
                // One Detector per cursor, reset() between
                // sessions (the pooled-frames fast path): replay
                // pays decode + detection per event, not a
                // detector rebuild per session.
                if (!det)
                    det.emplace(eng.prog);
                else
                    det->reset();
                if (cpu)
                    det->setRequestRing(&cpu->requestRing());
            }
            if (ringFault) {
                if (!cpu)
                    fatal("trace: ring-fault arming without a "
                          "timing model");
                cpu->requestRing().setFault(drop, dup, seed);
            }
            break;
          }
          case Tag::SessionEnd: {
            take(1);
            uint64_t steps = r.var();
            uint64_t inputEvents = r.var();
            uint64_t memTampers = r.var();
            uint64_t instructions = r.var();
            uint64_t blocks = r.var();
            uint64_t flushes = r.var();
            requireOpen();
            open = false;
            out.runs++;
            out.steps += steps;
            out.inputEvents += inputEvents;
            out.fault.memTampers += memTampers;
            out.vmInstructions += instructions;
            out.vmBlocks += blocks;
            out.vmFlushes += flushes;
            if (det) {
                out.det.merge(det->stats());
                out.alarms.insert(out.alarms.end(),
                                  det->alarms().begin(),
                                  det->alarms().end());
            }
            funcStack.clear();
            break;
          }
          case Tag::FuncEnter: {
            take(1);
            uint64_t f = r.var();
            requireOpen();
            if (f >= eng.prog.mod.functions.size())
                fatal("trace: function id %llu out of range",
                      static_cast<unsigned long long>(f));
            funcStack.push_back(static_cast<FuncId>(f));
            if (det)
                det->onFunctionEnter(static_cast<FuncId>(f));
            if (cpu)
                cpu->onFunctionEnter(static_cast<FuncId>(f));
            break;
          }
          case Tag::FuncExit: {
            take(1);
            uint64_t f = r.var();
            requireOpen();
            if (funcStack.empty() || funcStack.back() != f)
                fatal("trace: unbalanced function exit");
            funcStack.pop_back();
            if (det)
                det->onFunctionExit(static_cast<FuncId>(f));
            if (cpu)
                cpu->onFunctionExit(static_cast<FuncId>(f));
            break;
          }
          case Tag::BranchTaken:
          case Tag::BranchNotTaken: {
            take(1);
            uint64_t pc =
                prevPc + static_cast<uint64_t>(r.svar()) * 4;
            requireOpen();
            const PcEntry &e = eng.at(pc);
            if (e.kind != PcKind::Branch)
                fatal("trace: branch record at non-branch pc");
            if (funcStack.empty() || funcStack.back() != e.func)
                fatal("trace: branch outside its function's "
                      "activation");
            bool taken = t == Tag::BranchTaken;
            if (det)
                det->onBranch(e.func, pc, taken);
            if (cpu) {
                cpu->onBranch(e.func, pc, taken);
                cpu->onInst(*e.inst, 0, 0, false);
            }
            prevPc = pc;
            break;
          }
          case Tag::Inst: {
            take(1);
            uint64_t pc =
                prevPc + static_cast<uint64_t>(r.svar()) * 4;
            requireOpen();
            const PcEntry &e = eng.at(pc);
            if (e.kind != PcKind::Plain)
                fatal("trace: plain record for a branch/memory "
                      "instruction");
            if (cpu)
                cpu->onInst(*e.inst, 0, 0, false);
            prevPc = pc;
            break;
          }
          case Tag::InstRun: {
            uint64_t n = r.var();
            take(n); // also rejects absurd counts up front
            requireOpen();
            for (uint64_t i = 0; i < n; i++) {
                uint64_t pc = prevPc + 4;
                const PcEntry &e = eng.at(pc);
                if (e.kind != PcKind::Plain)
                    fatal("trace: plain record for a "
                          "branch/memory instruction");
                if (cpu)
                    cpu->onInst(*e.inst, 0, 0, false);
                prevPc = pc;
            }
            break;
          }
          case Tag::MemInst: {
            take(1);
            uint64_t pc =
                prevPc + static_cast<uint64_t>(r.svar()) * 4;
            uint64_t addr =
                prevAddr + static_cast<uint64_t>(r.svar());
            requireOpen();
            const PcEntry &e = eng.at(pc);
            if (e.kind != PcKind::Memory)
                fatal("trace: data-access record at a "
                      "non-memory instruction");
            if (cpu)
                cpu->onInst(
                    *e.inst, addr,
                    static_cast<uint32_t>(e.inst->size),
                    e.inst->op == Op::Load ||
                        e.inst->op == Op::LoadInd);
            prevPc = pc;
            prevAddr = addr;
            break;
          }
          case Tag::BsvFlip: {
            take(1);
            uint64_t slot = r.var();
            uint8_t state = r.byte();
            requireOpen();
            if (state > 2)
                fatal("trace: bad BSV state %u", state);
            if (det &&
                det->injectBsvState(
                    static_cast<uint32_t>(slot),
                    static_cast<BsvState>(state)))
                out.fault.bsvFlips++;
            break;
          }
          case Tag::CtxSwitch: {
            take(1);
            uint8_t lazy = r.byte();
            requireOpen();
            if (!cpu)
                fatal("trace: context switch without a timing "
                      "model");
            cpu->contextSwitch(lazy != 0);
            out.fault.ctxSwitches++;
            break;
          }
          case Tag::Snapshot: {
            // Resume metadata, not an event: a cursor that already
            // covers the prefix skips the blob (counted —
            // ipds.replay.snapshots_written must round-trip); only
            // the seek path decodes one.
            if (eng.meta_.version < 2)
                fatal("trace: snapshot record in a v%u trace",
                      eng.meta_.version);
            requireOpen();
            uint64_t len = r.var();
            r.skip(static_cast<size_t>(len));
            out.snapshots++;
            break;
          }
        }
    }
    if (remaining != 0)
        fatal("trace: chunk event count mismatch");
}

void
ReplayEngine::ShardCursor::finish()
{
    if (finished)
        fatal("replay: finish() called twice");
    finished = true;
    if (open)
        fatal("trace: truncated (a session has no end record)");
    if (out.runs != end_ - begin_)
        fatal("trace: span [%u, %u) replayed %llu of %u sessions",
              begin_, end_, static_cast<unsigned long long>(out.runs),
              end_ - begin_);

    if (cpu) {
        out.tim = cpu->stats();
        if (eng.meta_.faultCaptured()) {
            out.fault.ringDrops = cpu->requestRing().faultDropCount();
            out.fault.ringDups = cpu->requestRing().faultDupCount();
        }
    }
}

void
ReplayEngine::replayShard(uint32_t shard, ReplayShardResult &out) const
{
    ShardCursor cur(*this, shard);
    replayChunks(cur, 0, SIZE_MAX, out);
}

void
ReplayEngine::replayChunks(ShardCursor &cur, size_t chunkBegin,
                           size_t chunkEnd, ReplayShardResult &out) const
{
    if (!file_)
        fatal("replay: file replay on a streaming engine");
    const std::vector<ChunkRef> &chunks = file_->chunks();
    chunkEnd = std::min(chunkEnd, chunks.size());
    for (size_t i = chunkBegin; i < chunkEnd; ++i) {
        const ChunkRef &c = chunks[i];
        if (c.session < cur.begin() || c.session >= cur.end())
            continue;
        cur.feed(c, file_->payload(c));
    }
    cur.finish();
    out = std::move(cur.result());
}

void
StreamDecoder::feed(uint64_t at, const uint8_t *p, size_t n)
{
    if (at > received_)
        fatal("transport: resume gap — client offset %llu past the "
              "received stream (%llu)",
              static_cast<unsigned long long>(at),
              static_cast<unsigned long long>(received_));
    const size_t dup =
        static_cast<size_t>(std::min<uint64_t>(received_ - at, n));
    p += dup;
    n -= dup;
    received_ += n;
    while (n > 0 && !carry.empty() && !ended) {
        // Complete the carried structure, copying only its bytes: a
        // header, a chunk, or a whole trailer, which waits only to see
        // whether a byte follows it.
        const size_t want = !engine
            ? kHeaderBytes + 4 * kTimingConfigWords
            : carry.size() < kChunkHeaderBytes ? kChunkHeaderBytes
            : std::memcmp(carry.data(), kIndexTrailerMagic, 8) == 0
            ? kIndexTrailerBytes + 1
            : kChunkHeaderBytes + getU32(carry.data());
        const size_t take = std::min(n, want - carry.size());
        carry.insert(carry.end(), p, p + take);
        p += take;
        n -= take;
        const size_t used = decode(carry.data(), carry.size(), false);
        carry.erase(carry.begin(),
                    carry.begin() + static_cast<ptrdiff_t>(used));
    }
    if (ended) {
        indexBytes += n;
    } else if (n > 0) {
        const size_t used = decode(p, n, false);
        carry.assign(p + used, p + n);
    }
}

size_t
StreamDecoder::decode(const uint8_t *p, size_t n, bool atEnd)
{
    std::string err;
    size_t pos = 0;
    if (!engine) {
        TraceMeta meta;
        const ParseStatus st = parseHeader(p, n, meta, pos, &err);
        if (st == ParseStatus::NeedMore && !atEnd)
            return 0;
        if (st != ParseStatus::Ok)
            reject(st, err);
        engine.emplace(meta, prog); // the foreign-module check throws
        cursor.emplace(*engine, 0);
        shards.resize(meta.shards);
    }
    while (pos < n && !ended) {
        const uint8_t *q = p + pos;
        if (engine->meta().version >= 2) {
            const IndexTail t = parseIndexTail(q, n - pos, atEnd);
            if (t.kind == IndexTail::Kind::NeedMore)
                break;
            if (t.kind == IndexTail::Kind::Reject)
                reject(ParseStatus::Malformed, "bytes after index trailer");
            if (t.kind != IndexTail::Kind::Data) {
                sawFooter |= t.footer;
                indexBytes += t.bytes;
                pos += t.bytes;
                ended = t.kind == IndexTail::Kind::End;
                continue;
            }
        }
        ChunkRef c;
        size_t used = 0;
        const ParseStatus st = parseChunk(q, n - pos, c, used, &err);
        if (st == ParseStatus::NeedMore && !atEnd)
            break;
        if (st != ParseStatus::Ok)
            reject(st, err);
        if (!seekShard(c.session))
            fatal("trace: chunk session %u past the last shard",
                  c.session);
        cursor->feed(c, q + c.payloadOff);
        pos += used;
        sealedChunks_++;
    }
    return pos;
}

bool
StreamDecoder::seekShard(uint32_t session)
{
    while (session >= cursor->end()) {
        cursor->finish();
        shards[shard] = std::move(cursor->result());
        if (++shard == shards.size())
            return false;
        cursor.emplace(*engine, shard);
    }
    return true;
}

void
StreamDecoder::reject(ParseStatus st, const std::string &why)
{
    namespace n = obs::names;
    failure = st == ParseStatus::ChunkCrcMismatch ? n::kReplayCrcFailures
        : st == ParseStatus::TruncatedChunk ? n::kReplayTruncatedChunks
        : st == ParseStatus::VersionSkew    ? n::kReplayVersionMismatches
                                            : nullptr;
    // Only the trace's end makes a NeedMore final.
    fatal("trace: %s%s", why.c_str(),
          st == ParseStatus::TruncatedChunk ? " at stream end" : "");
}

ReplayReport
StreamDecoder::finish(double seconds)
{
    if (!carry.empty())
        decode(carry.data(), carry.size(), true);
    if (!engine)
        reject(ParseStatus::TruncatedChunk, "truncated trace header");
    try {
        seekShard(kIndexSession); // past every shard: seals them all
    } catch (const FatalError &) {
        // A session that never reached its end record: cut short.
        failure = obs::names::kReplayTruncatedChunks;
        throw;
    }
    ReplayRun run;
    run.indexBytes = indexBytes;
    run.indexMissing = !sawFooter;
    run.seconds = seconds;
    return replayReport(engine->meta(), shards, run);
}

} // namespace replay
} // namespace ipds
