#ifndef IPDS_SERVE_SERVER_H
#define IPDS_SERVE_SERVER_H

/**
 * @file
 * The multi-tenant detection service.
 *
 * One Server owns its listeners (AF_UNIX and/or TCP, both sharing
 * one poll loop) and detects recorded trace streams AT INGEST, as
 * the bytes arrive, for many concurrent clients. It is the one way
 * to serve: the ipds_serve daemon, the benches and embedders all
 * drive it directly. It hosts a MULTI-PROGRAM registry: N compiled
 * modules keyed by FNV-1a content hash; the Hello2 handshake routes
 * each stream to its module, unknown hashes are rejected with a
 * typed Error (code unknown_module). Streams that declare a resume
 * token get periodic ChunkAck watermarks and may reconnect after a
 * drop: the server parks the stream for a grace period, dedupes
 * re-sent bytes by absolute trace offset, and the final Result stays
 * bit-identical to an uninterrupted stream.
 * Architecture (DESIGN.md "Detection service"):
 *
 *   clients ──► ingest thread ──► per-stream actor tasks ──► tenants
 *              (poll + framing)     (ThreadPool::submit)     (merge)
 *
 *  - ONE ingest thread owns every socket: it accepts connections,
 *    decodes the wire framing (serve/wire.h), and appends TraceData
 *    payload segments to the owning stream's queue. It never touches
 *    trace decoding, so a slow decode cannot stall accept/read.
 *  - Each stream is an ACTOR: at most one worker task processes its
 *    queue at a time (chunks decode strictly in arrival order), while
 *    different streams decode concurrently on the shared ThreadPool.
 *    A stream decodes through one replay::StreamDecoder: the
 *    ShardCursor loop, end-of-trace rule and report that offline
 *    replay runs, so ingest-time alarms, DetectorStats and per-tenant
 *    metrics are bit-identical to a ReplayPlan over the same bytes
 *    (modulo the transport-only ipds.tenant.* meters and the
 *    events_per_sec gauge, which measures wall-clock).
 *  - Admission control mirrors the RequestRing design: bounded
 *    per-stream queue; when a client outruns its actor the server
 *    PAUSES reading that one socket (counted, ipds.serve.
 *    backpressure_stalls) and resumes when the actor drains — the
 *    slow client backs up on its own socket, never deadlocks the
 *    server, never starves other tenants.
 *  - Cross-thread signalling is a self-pipe: actors post
 *    done/fail/resume messages; requestStop() posts stop. The ingest
 *    thread is the only writer to any socket.
 *
 * Failure taxonomy is the reader's retry-vs-reject contract end to
 * end: a connection drop mid-stream or a trace that ends mid-chunk is
 * truncation, a chunk CRC mismatch is corruption and a header of
 * another format version a version mismatch; each fails its stream
 * and adds 1 to the tenant's ipds.replay.truncated_chunks,
 * crc_failures or version_mismatches. A frame CRC mismatch is
 * corruption too (an Error frame naming "CRC"; counted in
 * ipds.serve.frame_crc_failures), an oversized frame is rejected
 * before buffering, and a foreign-module trace is rejected by the
 * same content-hash check offline replay applies.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/program.h"
#include "inject/fault.h"
#include "ipds/detector.h"
#include "obs/metrics.h"
#include "serve/wire.h"
#include "timing/cpu.h"

namespace ipds {
namespace serve {

struct ServerConfig
{
    /** AF_UNIX listener path ("" = no unix listener). */
    std::string socketPath;
    /**
     * TCP listener: IPv4 address to bind ("" = no TCP listener;
     * "0.0.0.0" for all interfaces). Both listeners may be active at
     * once, sharing the poll loop and actor pool.
     */
    std::string tcpHost;
    /** TCP port (0 = ephemeral; read back with boundTcpPort()). */
    uint16_t tcpPort = 0;
    /** Worker pool size, including none spare (0 = one per core). */
    unsigned threads = 0;
    /** Reject frames larger than this before buffering. */
    size_t maxFrameBytes = wire::kDefaultMaxFrameBytes;
    /** Per-stream ingest segments in flight before pausing reads. */
    size_t pendingChunkCap = 64;
    /**
     * Send a ChunkAck after this many newly sealed chunks on streams
     * that declared a resume token (Hello v2). The ack is the
     * client's re-feed watermark after a reconnect.
     */
    uint64_t ackEveryChunks = 4;
    /**
     * How long a dropped resumable stream stays parked awaiting a
     * reconnect before it is failed as truncated.
     */
    uint64_t resumeGraceMs = 30000;
    /**
     * Shutdown drain: rounds of 10ms flush attempts for queued reply
     * bytes before they are dropped (and counted in
     * ipds.serve.dropped_reply_bytes).
     */
    unsigned shutdownDrainRounds = 100;
};

/** FNV-1a offset basis: the alarmDigest() of an empty alarm list. */
inline constexpr uint64_t kAlarmDigestSeed = 0xcbf29ce484222325ull;

/**
 * FNV-1a digest of an alarm list (order-sensitive, like the list).
 * Seeding it with an earlier digest continues that digest:
 * alarmDigest(b, alarmDigest(a)) == alarmDigest(a followed by b).
 */
uint64_t alarmDigest(const std::vector<Alarm> &alarms,
                     uint64_t h = kAlarmDigestSeed);

/** One tenant's aggregate, merged over its completed streams. */
struct TenantSnapshot
{
    std::string name;
    uint64_t streams = 0;
    /** Alarms over every completed stream, and their alarmDigest()
     *  with streams in completion order (shard order within one). */
    uint64_t alarms = 0;
    uint64_t alarmDigest = kAlarmDigestSeed;
    DetectorStats det;
    TimingStats tim;
    FaultStats fault;
    /** Replay-shaped metrics + ipds.tenant.* transport meters. */
    obs::MetricsRegistry reg;
};

class Server
{
  public:
    /** Empty registry; registerModule() before start(). */
    explicit Server(ServerConfig cfg);
    /** Convenience: registry of one. @p prog must outlive the server. */
    Server(const CompiledProgram &prog, ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Add @p prog to the module registry, keyed by its FNV-1a content
     * hash (replay::moduleContentHash). Each Hello2 routes its stream
     * to the module matching its hash. Must be called before start();
     * @p prog must outlive the server. Re-registering the same hash is
     * a no-op.
     */
    void registerModule(const CompiledProgram &prog);

    /**
     * Bind the configured listeners and start the ingest thread.
     * FatalError if neither listener is configured, the registry is
     * empty, or a bind fails. An existing unix socket file is
     * replaced.
     */
    void start();

    /** Bound TCP port after start() (resolves tcpPort == 0). */
    uint16_t boundTcpPort() const;

    /** Ask the ingest loop to shut down. Thread-safe, idempotent. */
    void requestStop();

    /**
     * Block until @p n streams FINISHED (completed + failed) since
     * start(), or the server stopped.
     */
    void waitForStreams(uint64_t n);

    /** requestStop() + join the ingest thread. Idempotent. */
    void stopAndJoin();

    /**
     * Streams finished since start(). A stream is counted (and merged
     * into snapshot()) before its Result/Error frame is sent, so a
     * client holding its verdict always sees itself counted.
     */
    uint64_t streamsCompleted() const;
    uint64_t streamsFailed() const;

    /** Per-tenant aggregates, sorted by tenant name. */
    std::vector<TenantSnapshot> snapshot() const;

    /** The /statsz text: server section + per-tenant sections. */
    std::string statszText() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace serve
} // namespace ipds

#endif // IPDS_SERVE_SERVER_H
