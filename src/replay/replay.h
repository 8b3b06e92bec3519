#ifndef IPDS_REPLAY_REPLAY_H
#define IPDS_REPLAY_REPLAY_H

/**
 * @file
 * ReplayEngine: re-detect (and re-time) a recorded trace with no VM in
 * the loop.
 *
 * The engine decodes chunk records back into the per-event observer
 * calls the live run delivered — Detector::onFunctionEnter/Exit/
 * onBranch, CpuModel::onBranch/onInst — against the SAME concrete
 * classes, so alarms, DetectorStats and TimingStats come out
 * bit-identical to the capture run (per-event and batched delivery are
 * already held bit-identical by the vm-diff suite). Out-of-band fault
 * records (BSV flips, context-switch storms, ring-fault arming) are
 * applied at their recorded commit points, so a tamper recorded into a
 * trace is detected identically on replay.
 *
 * Work splits into contiguous session spans. Chunk framing guarantees
 * a chunk never spans sessions, so spans split the file at chunk
 * boundaries, and each span owns one cursor: a CpuModel for timing
 * traces, carried across the span's sessions, and one Detector reset
 * per session. A timing trace splits at the capture's shard
 * boundaries [s*S/K, (s+1)*S/K), as its CpuModel persisted across a
 * shard's sessions; a detector-only trace may split anywhere. Every
 * exported metric adds or maxes, so span results merged in session
 * order give the same report for any split and any worker count.
 *
 * The decode loop lives in ShardCursor, a push-style consumer fed one
 * chunk at a time. Offline replay (replayChunks()) iterates a loaded
 * TraceFile into cursors; StreamDecoder feeds the capture shards'
 * cursors from a served stream's bytes as they arrive (src/serve),
 * ends the trace by the same rule (parseIndexTail) and reports
 * through the same replayReport(), so ingest-time detection is
 * bit-identical to offline replay by construction, not by parallel
 * maintenance.
 *
 * Defensive decoding: the engine validates every PC against the
 * module's instruction index, every function id, and its own shadow
 * call stack BEFORE forwarding to the detector, so a corrupt-but-
 * CRC-valid trace raises FatalError instead of tripping the
 * detector's internal panics.
 */

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/metrics.h"
#include "replay/reader.h"
#include "timing/cpu.h"

namespace ipds {
namespace replay {

/** Everything one replay shard reproduces (plus replay-side meters). */
struct ReplayShardResult
{
    DetectorStats det;
    TimingStats tim;
    FaultStats fault;
    std::vector<Alarm> alarms;

    // Session counters replayed from SessionEnd records.
    uint64_t runs = 0;
    uint64_t steps = 0;
    uint64_t inputEvents = 0;
    uint64_t vmInstructions = 0;
    uint64_t vmBlocks = 0;
    uint64_t vmFlushes = 0;

    // Replay-side meters (ipds.replay.*).
    uint64_t chunks = 0;
    uint64_t bytes = 0;
    uint64_t events = 0;
    uint64_t snapshots = 0; ///< Tag::Snapshot records seen

    /** Fold in @p o, the next sessions in order: stats merge, alarms
     *  append, counters add. */
    void merge(const ReplayShardResult &o);
};

/** How one replay ran, beyond what its shard results carry. */
struct ReplayRun
{
    uint64_t indexBytes = 0; ///< footer chunk + trailer bytes read
    bool indexMissing = true;
    uint64_t seeks = 0, snapshotsUsed = 0;
    double seconds = 0; ///< wall clock, for events_per_sec
};

/** A replay's verdict: its shards merged, and its metric block. */
struct ReplayReport
{
    ReplayShardResult total;
    obs::MetricsRegistry metrics;
};

/**
 * Register one shard's metric block into @p reg: the session and vm
 * counters, then the detector, timing and fault metrics when @p m's
 * flags say the run had them. The live Session join and
 * replayReport() both build every shard's block here, so their
 * shard-order merges register the same names in the same order.
 * @p traceDropped is the shard's tracer loss (0 for a replay).
 */
void exportShardMetrics(const TraceMeta &m, const ReplayShardResult &r,
                        uint64_t traceDropped, obs::MetricsRegistry &reg);

/**
 * Merge @p shards (contiguous session spans, in session order) and
 * build the replay metric block: per span its exportShardMetrics()
 * block, then the ipds.replay.* meters. Offline replay and the served
 * Result both report through it.
 */
ReplayReport replayReport(const TraceMeta &m,
                          const std::vector<ReplayShardResult> &shards,
                          const ReplayRun &run);

class ReplayEngine
{
  public:
    /**
     * @p file and @p prog must outlive the engine. Throws FatalError
     * if the trace was recorded from a different program (module
     * content-hash mismatch).
     */
    ReplayEngine(const TraceFile &file, const CompiledProgram &prog);

    /**
     * Streaming variant: geometry and flags come from an
     * already-parsed header, chunks arrive later through
     * ShardCursor::feed(). @p prog must outlive the engine; @p meta
     * is copied. Same module content-hash check as the file ctor.
     */
    ReplayEngine(const TraceMeta &meta, const CompiledProgram &prog);

    /** Session/shard geometry recorded at capture time. */
    uint32_t sessions() const { return meta_.sessions; }
    uint32_t shards() const { return meta_.shards; }
    const TraceMeta &meta() const { return meta_; }

    /**
     * Replay shard @p shard (sessions [shard*S/K, (shard+1)*S/K))
     * into @p out. Const and self-contained: shards replay
     * concurrently. Throws FatalError on malformed records. Requires
     * the TraceFile ctor (streaming engines use ShardCursor).
     */
    void replayShard(uint32_t shard, ReplayShardResult &out) const;

    /**
     * Push-style decoder for one shard: feed() chunks in file order,
     * then finish() once. The chunk-iteration body of replayShard()
     * and StreamDecoder are the same code path. Holds a
     * reference to the engine; not movable across the engine's
     * lifetime. Throws FatalError on malformed records — after a
     * throw the cursor is poisoned and must be discarded.
     */
    class ShardCursor
    {
      public:
        ShardCursor(const ReplayEngine &eng, uint32_t shard);

        /**
         * Span mode: own sessions [begin_session, end_session)
         * directly instead of a capture shard's partition (offline
         * replay's spans, --seek-session).
         */
        ShardCursor(const ReplayEngine &eng, uint32_t begin_session,
                    uint32_t end_session);

        /** First / one-past-last session this shard owns. */
        uint32_t begin() const { return begin_; }
        uint32_t end() const { return end_; }

        /**
         * Prime the cursor to resume session @p session mid-stream
         * from @p snap (--seek-chunk): the session is opened as if
         * its prefix had been fed, the detector state is restored,
         * and the next feed() may start at any chunk of @p session —
         * typically the snapshot-flagged chunk @p snap was read from.
         * FatalError for timing traces (the CpuModel scoreboard is
         * not part of the snapshot) or when events for @p session
         * were already fed.
         */
        void resume(uint32_t session, const DetectorSnapshot &snap);

        /**
         * Decode one chunk. @p payload points at c.payloadLen bytes
         * (CRC already verified by the framing layer); the chunk's
         * session must be in [begin(), end()) and arrive in
         * non-decreasing session order.
         */
        void feed(const ChunkRef &c, const uint8_t *payload);

        /**
         * Seal the shard: verifies every owned session ran to its
         * end record and harvests timing/fault stats into result().
         */
        void finish();

        ReplayShardResult &result() { return out; }
        const ReplayShardResult &result() const { return out; }

      private:
        const ReplayEngine &eng;
        uint32_t begin_;
        uint32_t end_;
        std::optional<CpuModel> cpu;
        std::optional<Detector> det;
        // Shadow call stack: validated BEFORE the detector sees an
        // event, so corrupt-but-CRC-valid traces fail with FatalError
        // instead of tripping the detector's internal invariants.
        std::vector<FuncId> funcStack;
        bool open = false;
        bool finished = false;
        uint32_t expectNext;
        ReplayShardResult out;
    };

    /**
     * Feed @p cur the chunks in [chunkBegin, chunkEnd) of the loaded
     * file that belong to its sessions, finish it and move its result
     * into @p out: the loop of replayShard(), of an offline replay's
     * span cursor and of a seek (a resumed one).
     */
    void replayChunks(ShardCursor &cur, size_t chunkBegin,
                      size_t chunkEnd, ReplayShardResult &out) const;

  private:
    /** Which record kind may name a pc (set once per instruction). */
    enum class PcKind : uint8_t
    {
        None,   ///< no instruction here
        Plain,  ///< Inst / InstRun
        Branch, ///< BranchTaken / BranchNotTaken
        Memory, ///< MemInst
    };

    struct PcEntry
    {
        const Inst *inst = nullptr;
        FuncId func = kNoFunc;
        PcKind kind = PcKind::None;
    };

    /** Decoded instruction at @p pc; FatalError if out of range. */
    const PcEntry &at(uint64_t pc) const
    {
        // Rotating the byte offset right by 2 maps a misaligned pc
        // (and, by wrap-around, one below basePc) past every index.
        uint64_t i = std::rotr(pc - basePc, 2);
        if (i >= pcIndex.size() || pcIndex[i].kind == PcKind::None)
            badPc(pc);
        return pcIndex[i];
    }

    [[noreturn]] static void badPc(uint64_t pc);

    void buildPcIndex();

    const TraceFile *file_; ///< null for streaming engines
    const CompiledProgram &prog;
    TraceMeta meta_;
    /** Flat (pc - basePc) / 4 index over every instruction. */
    std::vector<PcEntry> pcIndex;
    uint64_t basePc = 0;
};

/**
 * One served trace, decoded as its pieces arrive: each piece goes in
 * at its absolute offset and is parsed where it lies (only a structure
 * cut by a piece's end is copied, into a carry the next piece
 * completes) into the ShardCursor chain of the capture's shard
 * partition. finish() ends the trace by parseIndexTail()'s rule and
 * reports through replayReport(), as offline replay does. No sockets,
 * threads or clocks.
 */
class StreamDecoder
{
  public:
    /** @p prog must outlive the decoder. */
    explicit StreamDecoder(const CompiledProgram &prog) : prog(prog) {}
    StreamDecoder(const StreamDecoder &) = delete;
    StreamDecoder &operator=(const StreamDecoder &) = delete;

    /**
     * Decode @p n bytes that start at trace offset @p at. Bytes before
     * received() (a resumed client re-sends from its last ack) are
     * dropped. A gap past it, like any trace defect, is a FatalError
     * that spends the decoder.
     */
    void feed(uint64_t at, const uint8_t *p, size_t n);

    uint64_t received() const { return received_; }
    /** Bytes and data chunks decoded so far: the resume watermark. */
    uint64_t sealedBytes() const { return received_ - carry.size(); }
    uint64_t sealedChunks() const { return sealedChunks_; }

    /** The trace ended: check its tail, seal every shard and report
     *  (@p seconds of wall clock give events_per_sec). */
    ReplayReport finish(double seconds);

    /** The ipds.replay.* meter of the last defect thrown (crc_failures,
     *  truncated_chunks, version_mismatches), or nullptr. */
    const char *failureCounter() const { return failure; }

  private:
    /** Parse what @p p holds; returns the bytes consumed. */
    size_t decode(const uint8_t *p, size_t n, bool atEnd);
    /** Seal shards until one owns @p session; false past the last. */
    bool seekShard(uint32_t session);
    [[noreturn]] void reject(ParseStatus st, const std::string &why);

    const CompiledProgram &prog;
    std::optional<ReplayEngine> engine; ///< once the header is read
    std::optional<ReplayEngine::ShardCursor> cursor;
    uint32_t shard = 0;
    std::vector<ReplayShardResult> shards;
    std::vector<uint8_t> carry;
    uint64_t received_ = 0, sealedChunks_ = 0, indexBytes = 0;
    bool sawFooter = false;
    bool ended = false; ///< past an impossible footer: all is index
    const char *failure = nullptr;
};

} // namespace replay
} // namespace ipds

#endif // IPDS_REPLAY_REPLAY_H
