#include "obs/session.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "obs/names.h"
#include "replay/replay.h"
#include "replay/snapshot.h"
#include "support/diag.h"
#include "support/threadpool.h"

#include <algorithm>

namespace ipds {

Session::Builder
Session::builder()
{
    return Builder();
}

Session
Session::Builder::build()
{
    if (!o.prog)
        fatal("Session: no program() configured");
    if (o.shards > 256)
        fatal("Session: at most 256 shards (got %u)", o.shards);
    const ExecPlan *exec = o.exec();
    if (o.shards > 1 && exec && !exec->observers.empty())
        fatal("Session: observe() requires a single shard (observers "
              "would be shared across shard threads)");
    if (o.planCount > 1)
        fatal("Session: plans are mutually exclusive — configure "
              "exactly one plan()");
    if (const ReplayPlan *rp = std::get_if<ReplayPlan>(&o.plan)) {
        if (rp->hasSeekSession && rp->hasSeekChunk)
            fatal("Session: ReplayPlan seekSession() and seekChunk() "
                  "are mutually exclusive");
        // Read just the header now, so a bad plan fails at build()
        // instead of mid-replay.
        if (rp->hasSeekChunk &&
            replay::readTraceHeader(rp->path).hasTiming)
            fatal("Session: seekChunk() is not available for timing "
                  "traces (the CPU scoreboard is not snapshotted) — "
                  "use seekSession()");
    }
    if (!o.detectorExplicit && o.useTiming)
        o.detectorOn = o.timingCfg.ipdsEnabled;
    if (exec && exec->hasFault && o.useTiming)
        exec->fault.applyTo(o.timingCfg);
    return Session(std::move(o));
}

Session::Session(Options o)
    : opt(std::move(o))
{}

/** Everything one shard produces; merged in shard order at the join.
 *  `res` holds what a replay of the shard reproduces. */
struct Session::ShardOut
{
    replay::ReplayShardResult res;
    std::vector<obs::TraceEvent> trace;
    uint64_t traceDropped = 0;
    std::optional<RunResult> first; ///< session 0's, in its shard
};

void
Session::runShard(uint32_t shard, ShardOut &out,
                  replay::TraceWriter *capture) const
{
    const ExecPlan &ex = *opt.exec();
    const uint32_t begin = shard * opt.sessions / opt.shards;
    const uint32_t end = (shard + 1) * opt.sessions / opt.shards;

    // Build the tracer, and so its ring, only when a category is on.
    std::optional<obs::Tracer> tracer;
    if (opt.traceCategories != 0) {
        tracer.emplace(opt.traceCategories, opt.traceCapacity);
        tracer->setShard(static_cast<uint8_t>(shard));
    }
    obs::Tracer *trc = tracer ? &*tracer : nullptr;

    std::optional<CpuModel> cpu;
    if (opt.useTiming) {
        cpu.emplace(opt.timingCfg);
        if (trc)
            cpu->setTracer(trc);
    }

    // One predecode shared by every session in the shard; per-run Vm
    // construction then skips the decode cache's validation walk.
    auto dec = decodeCached(opt.prog->mod);

    for (uint32_t s = begin; s < end; s++) {
        Vm vm(opt.prog->mod, dec);
        vm.setInputs(opt.inputs);
        vm.setFuel(opt.fuel);
        vm.setRecordTrace(opt.sessions == 1);
        if (trc)
            vm.setTracer(trc, s);
        for (const TamperSpec &spec : ex.tampers)
            vm.addTamper(spec);

        // Capture brackets the session; when the ring-fault filter is
        // armed below, the same parameters go into the record so
        // replay re-arms it identically.
        if (capture) {
            if (ex.hasFault && cpu)
                capture->beginSession(
                    s, ex.fault.ringDropPermille,
                    ex.fault.ringDupPermille,
                    ex.fault.seed ^ (s * 0x9e3779b97f4a7c15ULL));
            else
                capture->beginSession(s);
        }

        // Detector first: its requests must precede the timing
        // model's commit-point drain of the same instruction.
        Detector det(*opt.prog);
        if (opt.detectorOn) {
            if (cpu)
                det.setRequestRing(&cpu->requestRing());
            if (trc)
                det.setTracer(trc);
        }

        // Snapshot provider: the writer invokes it inside its
        // function-event hooks, where the detector/CpuModel state
        // corresponds exactly to the bytes recorded so far (the
        // recorder attaches last). Re-armed per session so the lambda
        // sees this session's detector.
        if (capture)
            capture->setSnapshotProvider(
                [&](std::vector<uint8_t> &blob) {
                    replay::SnapshotData sd;
                    if (opt.detectorOn) {
                        sd.hasDetector = true;
                        det.captureState(sd.det);
                    }
                    if (cpu) {
                        sd.hasTiming = true;
                        sd.tim = cpu->stats();
                        cpu->ipdsEngine().captureState(sd.engine);
                    }
                    if (!sd.hasDetector && !sd.hasTiming)
                        return; // nothing to resume from
                    replay::encodeSnapshot(sd, blob);
                });

        // Fault injection interposes: the injector is the Vm's only
        // observer and forwards to the same targets in the same
        // order, so faults land at identical commit points in every
        // delivery mode. Per-session salts/seeds keep aggregates a
        // pure function of the session index.
        FaultInjector inj(ex.fault, s);
        if (ex.hasFault) {
            if (trc)
                inj.setTracer(trc);
            if (opt.detectorOn) {
                inj.addTarget(&det);
                inj.addDetector(&det);
            }
            if (cpu) {
                inj.addTarget(&*cpu);
                inj.setCpu(&*cpu);
                cpu->requestRing().setFault(
                    ex.fault.ringDropPermille,
                    ex.fault.ringDupPermille,
                    ex.fault.seed ^ (s * 0x9e3779b97f4a7c15ULL));
            }
            for (ExecObserver *obs : ex.observers)
                inj.addTarget(obs);
            // The recorder is the LAST target, so it sees the stream
            // every real consumer saw; the event sink puts the
            // injector's out-of-band faults into the record at their
            // commit points.
            if (capture) {
                inj.addTarget(capture);
                inj.setEventSink(capture);
            }
            vm.addObserver(&inj);
            for (const TamperSpec &spec :
                 ex.fault.memTamperSpecs(s))
                vm.addTamper(spec);
        } else {
            if (opt.detectorOn)
                vm.addObserver(&det);
            if (cpu)
                vm.addObserver(&*cpu);
            for (ExecObserver *obs : ex.observers)
                vm.addObserver(obs);
            if (capture)
                vm.addObserver(capture);
        }

        RunResult r = vm.run();
        replay::ReplayShardResult &o = out.res;
        // Every fired tamper counts, FaultPlan or not, as the
        // SessionEnd record counts it for a replay.
        const uint64_t firedTampers = r.faultTampers.size();
        if (ex.hasFault)
            o.fault.merge(inj.stats());
        o.fault.memTampers += firedTampers;
        if (capture)
            capture->endSession(r.steps, r.inputEventCount,
                                firedTampers,
                                vm.vmStats().instructions,
                                vm.vmStats().blocks,
                                vm.vmStats().eventBatchFlushes);
        o.runs++;
        o.steps += r.steps;
        o.inputEvents += r.inputEventCount;
        o.vmInstructions += vm.vmStats().instructions;
        o.vmBlocks += vm.vmStats().blocks;
        o.vmFlushes += vm.vmStats().eventBatchFlushes;
        if (opt.detectorOn) {
            o.det.merge(det.stats());
            o.alarms.insert(o.alarms.end(), det.alarms().begin(),
                            det.alarms().end());
        }
        if (s == 0)
            out.first = std::move(r);
    }

    if (cpu) {
        out.res.tim = cpu->stats();
        if (ex.hasFault) {
            out.res.fault.ringDrops =
                cpu->requestRing().faultDropCount();
            out.res.fault.ringDups = cpu->requestRing().faultDupCount();
        }
    }
    if (trc) {
        out.traceDropped = trc->dropped();
        out.trace = trc->events();
    }
}

Session &
Session::run()
{
    total = {};
    firstResult = {};
    registry = {};
    traceLog.clear();
    traceLost = 0;
    if (const ReplayPlan *rp = std::get_if<ReplayPlan>(&opt.plan))
        return runReplay(*rp);

    // What a capture of this run records. Its flags also pick the
    // per-shard metric blocks, as a replay of the capture picks them.
    replay::TraceMeta meta;
    meta.sessions = opt.sessions;
    meta.shards = opt.shards;
    meta.hasTiming = opt.useTiming;
    meta.timing = opt.timingCfg;
    if (opt.useTiming)
        meta.flags |= replay::kFlagFullStream | replay::kFlagTiming;
    if (opt.exec()->hasFault)
        meta.flags |= replay::kFlagFault;
    if (opt.detectorOn)
        meta.flags |= replay::kFlagDetector;

    // Capture: the header is fully known up front, so it streams out
    // first; a single shard then writes chunks straight to the file,
    // while sharded captures buffer per shard and concatenate in
    // shard order at the join (chunk session ids stay monotonic).
    const CapturePlan *cap = std::get_if<CapturePlan>(&opt.plan);
    const bool capturing = cap != nullptr;
    std::ofstream capFile;
    uint64_t capHeaderBytes = 0;
    uint64_t capSnapsWritten = 0;
    std::vector<std::unique_ptr<std::ostringstream>> capBufs;
    std::vector<std::unique_ptr<replay::TraceWriter>> capWriters;
    if (capturing) {
        capFile.open(cap->path,
                     std::ios::binary | std::ios::trunc);
        if (!capFile)
            fatal("Session: cannot open capture file '%s'",
                  cap->path.c_str());
        meta.moduleHash = replay::moduleContentHash(opt.prog->mod);
        std::vector<uint8_t> hdr(replay::headerBytes(meta));
        replay::encodeHeader(meta, hdr.data());
        capFile.write(reinterpret_cast<const char *>(hdr.data()),
                      static_cast<std::streamsize>(hdr.size()));
        capHeaderBytes = hdr.size();
        auto mode = opt.useTiming
            ? replay::TraceWriter::Mode::Full
            : replay::TraceWriter::Mode::BranchesOnly;
        for (uint32_t s = 0; s < opt.shards; s++) {
            std::ostream *sink = &capFile;
            if (opt.shards > 1) {
                capBufs.push_back(
                    std::make_unique<std::ostringstream>());
                sink = capBufs.back().get();
            }
            capWriters.push_back(
                std::make_unique<replay::TraceWriter>(*sink, mode));
            capWriters.back()->snapshotEvery(
                cap->snapEvery);
        }
    }
    auto captureFor = [&](uint32_t s) {
        return capturing ? capWriters[s].get() : nullptr;
    };

    std::vector<ShardOut> outs(opt.shards);
    if (opt.shards == 1 && opt.threads == 1) {
        runShard(0, outs[0], captureFor(0));
    } else {
        ThreadPool pool(opt.threads);
        pool.parallelFor(opt.shards, [&](uint32_t s) {
            runShard(s, outs[s], captureFor(s));
        });
    }

    if (capturing) {
        for (uint32_t s = 0; s < opt.shards; s++)
            capWriters[s]->finish();
        if (opt.shards > 1)
            for (uint32_t s = 0; s < opt.shards; s++) {
                const std::string chunkBytes = capBufs[s]->str();
                capFile.write(chunkBytes.data(),
                              static_cast<std::streamsize>(
                                  chunkBytes.size()));
            }
        // v2 chunk-index footer: each writer's entries carry
        // stream-relative offsets; rebase into file offsets as the
        // shard streams concatenate in shard order behind the header.
        uint64_t fileOff = capHeaderBytes;
        std::vector<replay::ChunkIndexEntry> idx;
        for (uint32_t s = 0; s < opt.shards; s++) {
            for (replay::ChunkIndexEntry e :
                 capWriters[s]->indexEntries()) {
                e.fileOffset += fileOff;
                idx.push_back(e);
            }
            fileOff += capWriters[s]->bytesWritten();
            capSnapsWritten += capWriters[s]->snapshotsWritten();
        }
        std::vector<uint8_t> footer;
        replay::appendIndexFooter(footer, idx.data(), idx.size(),
                                  fileOff);
        capFile.write(reinterpret_cast<const char *>(footer.data()),
                      static_cast<std::streamsize>(footer.size()));
        capFile.close();
        if (!capFile)
            fatal("Session: error writing capture file '%s'",
                  cap->path.c_str());
    }

    // Deterministic join: merge in shard order, independent of which
    // worker ran which shard.
    for (ShardOut &out : outs) {
        total.merge(out.res);
        obs::MetricsRegistry one;
        replay::exportShardMetrics(meta, out.res, out.traceDropped, one);
        registry.merge(one);
        traceLog.insert(traceLog.end(), out.trace.begin(),
                        out.trace.end());
        traceLost += out.traceDropped;
        if (out.first)
            firstResult = std::move(*out.first);
    }
    if (capturing)
        registry.add(
            registry.counter(obs::names::kReplaySnapshotsWritten),
            capSnapsWritten);
    return *this;
}

Session &
Session::runReplay(const ReplayPlan &rp)
{
    const replay::TraceFile tf = replay::TraceFile::load(rp.path);
    replay::ReplayEngine eng(tf, *opt.prog);
    const replay::TraceMeta &m = tf.meta();
    const std::vector<replay::ChunkRef> &chunks = tf.chunks();

    replay::ReplayRun run;
    run.indexBytes = tf.indexBytes();
    run.indexMissing = !tf.hasIndexFooter();

    // Chunks sit in non-decreasing session order (the load rejects
    // any other), so a session's chunks are one contiguous range.
    auto firstChunkOf = [&](uint32_t sess) {
        return static_cast<size_t>(
            std::lower_bound(chunks.begin(), chunks.end(), sess,
                             [](const replay::ChunkRef &c,
                                uint32_t s) {
                                 return c.session < s;
                             }) -
            chunks.begin());
    };

    // Every mode replays contiguous session spans, one result each in
    // session order, and reports them through replayReport(), as a
    // served stream does, so the export shape never forks.
    std::vector<replay::ReplayShardResult> outs;
    auto t0 = std::chrono::steady_clock::now();

    if (rp.hasSeekSession || rp.hasSeekChunk) {
        // ---- seek: one span cursor over the trace tail; earlier
        // chunks are never decoded (the chunk meter proves the skip).
        outs.resize(1);
        run.seeks = 1;
        if (rp.hasSeekSession) {
            uint32_t s = rp.seekSessionIdx;
            if (s >= m.sessions)
                fatal("Session: seekSession(%u) out of range (trace "
                      "has %u sessions)",
                      s, m.sessions);
            replay::ReplayEngine::ShardCursor cur(eng, s, m.sessions);
            eng.replayChunks(cur, firstChunkOf(s), chunks.size(),
                             outs[0]);
        } else {
            if (rp.seekChunkIdx >= chunks.size())
                fatal("Session: seekChunk(%llu) out of range (trace "
                      "has %zu chunks)",
                      static_cast<unsigned long long>(
                          rp.seekChunkIdx),
                      chunks.size());
            if (m.hasTiming)
                fatal("Session: seekChunk() is not available for "
                      "timing traces (the CPU scoreboard is not "
                      "snapshotted) — use seekSession()");
            const size_t k =
                static_cast<size_t>(rp.seekChunkIdx);
            const uint32_t sess = chunks[k].session;
            const size_t sessStart = firstChunkOf(sess);

            // Nearest preceding snapshot-opened chunk of the same
            // session; a damaged snapshot degrades to replaying the
            // session from its start.
            size_t from = sessStart;
            bool resumed = false;
            replay::SnapshotData sd;
            for (size_t i = k + 1; i-- > sessStart;) {
                if (!(chunks[i].flags & replay::kChunkHasSnapshot))
                    continue;
                try {
                    replay::TraceReader r(tf.payload(chunks[i]),
                                          chunks[i].payloadLen);
                    if (r.tag() != replay::Tag::Snapshot)
                        fatal("trace: snapshot flag without a "
                              "snapshot record");
                    uint64_t len = r.var();
                    const uint8_t *blob =
                        r.bytes(static_cast<size_t>(len));
                    replay::decodeSnapshot(
                        blob, static_cast<size_t>(len), sd);
                    from = i;
                    resumed = true;
                } catch (const FatalError &) {
                    // fall back to the session start
                }
                break;
            }

            replay::ReplayEngine::ShardCursor cur(eng, sess,
                                                  m.sessions);
            if (resumed && sd.hasDetector && from > sessStart) {
                cur.resume(sess, sd.det);
                run.snapshotsUsed = 1;
            } else {
                from = sessStart;
            }
            eng.replayChunks(cur, from, chunks.size(), outs[0]);
        }
    } else {
        // ---- full replay on threads() workers. A timing trace
        // splits per capture shard, whose CpuModel carried across its
        // sessions; a detector-only trace into at most one span per
        // worker, each cursor resetting one Detector per session.
        const unsigned workers =
            opt.threads ? opt.threads : ThreadPool::defaultWorkers();
        const uint32_t spans =
            m.hasTiming ? m.shards : std::min(workers, m.sessions);
        auto bound = [&](uint32_t k) {
            return static_cast<uint32_t>(uint64_t(k) * m.sessions /
                                         spans);
        };
        outs.resize(spans);
        ThreadPool pool(std::min(workers, spans));
        pool.parallelFor(spans, [&](uint32_t k) {
            replay::ReplayEngine::ShardCursor cur(eng, bound(k),
                                                  bound(k + 1));
            eng.replayChunks(cur, firstChunkOf(bound(k)),
                             firstChunkOf(bound(k + 1)), outs[k]);
        });
    }
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    replay::ReplayReport rep = replay::replayReport(m, outs, run);
    total = std::move(rep.total);
    registry = std::move(rep.metrics);
    return *this;
}

} // namespace ipds
