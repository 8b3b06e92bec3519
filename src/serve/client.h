#ifndef IPDS_SERVE_CLIENT_H
#define IPDS_SERVE_CLIENT_H

/**
 * @file
 * Blocking client for the detection service: connect, name your
 * tenant, stream a recorded trace, read the verdict.
 *
 *   serve::Client c;
 *   c.connect("/tmp/ipds.sock");      // or c.connectTcp(host, port)
 *   c.helloV2("tenant-a", replay::moduleContentHash(prog.mod));
 *   c.sendTraceFile("run.ipds");
 *   serve::StreamResult r = c.end();
 *   if (!r.ok) ...            // server rejected the stream
 *   if (r.alarms > 0) ...     // detection fired at ingest
 *
 * The client is intentionally dumb: it frames bytes (serve/wire.h)
 * and parses the server's text report. All detection intelligence is
 * server-side; the trace bytes travel unmodified, so what the server
 * detects is exactly what offline replay of the same file detects.
 * One Client is one connection; not thread-safe.
 *
 * RECONNECT/RESUME: helloV2() declares a resume token. The server
 * then acks its sealed watermark (ChunkAck) every few chunks; the
 * client retains the unacked tail of the trace. When the connection
 * drops mid-stream, the client redials (bounded exponential
 * backoff), replays Hello2 with the resume flag and the last acked
 * (offset, chunks) watermark, and re-feeds from there. The server
 * dedupes the overlap, so the final Result is bit-identical to an
 * uninterrupted stream.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.h"

namespace ipds {
namespace serve {

/** Parsed Result/Error report for one streamed trace. */
struct StreamResult
{
    bool ok = false;          ///< stream accepted and fully detected
    bool malformed = false;   ///< Result frame missing required keys
    uint64_t sessions = 0;    ///< sessions the server replayed
    uint64_t alarms = 0;      ///< alarms raised at ingest
    uint64_t alarmDigest = 0; ///< order-sensitive FNV digest
    std::string errorCode;    ///< typed Error slug ("" on Result)
    std::string text;         ///< full report (metrics text after ok)
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to the server's unix socket. FatalError on failure. */
    void connect(const std::string &socketPath);

    /** Connect to the server's TCP listener (IPv4 dotted quad). */
    void connectTcp(const std::string &host, uint16_t port);

    /**
     * Open a stream with the versioned hello: route to the module
     * whose FNV-1a content hash is @p moduleHash and enable
     * reconnect/resume. @p resumeToken identifies the stream across
     * reconnects (0 = choose a random one).
     */
    void helloV2(const std::string &tenant, uint64_t moduleHash,
                 uint64_t resumeToken = 0);

    /** Reconnect attempts per drop and the base backoff (doubled per
     *  attempt). Defaults: 8 attempts, 10 ms. */
    void reconnectPolicy(unsigned attempts, unsigned backoffMs);

    /**
     * Stream raw trace bytes, split into TraceData frames of at most
     * @p frameBytes payload (0 = 64 KiB; must not exceed the
     * server's frame cap).
     */
    void sendTraceBytes(const uint8_t *p, size_t bytes,
                        size_t frameBytes = 0);

    /** sendTraceBytes() over a whole trace file. */
    void sendTraceFile(const std::string &path,
                       size_t frameBytes = 0);

    /**
     * Close the stream (StreamEnd) and block for the server's
     * Result/Error report. FatalError only on transport failure —
     * a rejected stream returns ok = false with the diagnostic in
     * text (and the typed slug in errorCode).
     */
    StreamResult end();

    /** Fetch the server's /statsz text (StatsReq/Stats). */
    std::string statsz();

    /** Send pre-encoded bytes verbatim (tests: malformed frames). */
    void sendRaw(const std::vector<uint8_t> &bytes);

    /**
     * Test/bench hook: sever the connection as a network drop would,
     * keeping all resume state. The next send on a helloV2 stream
     * reconnects and resumes.
     */
    void abortConnection();

    void close();
    bool connected() const { return fd >= 0; }

    /** Successful reconnect+resume handshakes so far. */
    uint64_t reconnects() const { return reconnectCount; }
    /** The server's last acked sealed byte offset (resume streams). */
    uint64_t lastAckedBytes() const { return pendingBase; }

  private:
    void doConnect();
    /** False when the peer closed (latched); FatalError otherwise. */
    bool writeAll(const uint8_t *p, size_t bytes);
    /** Block for the next frame; payload copied into @p payload. */
    wire::FrameType readFrame(std::vector<uint8_t> &payload);
    /** readFrame that returns false on connection loss. */
    bool tryReadFrame(wire::FrameType &t,
                      std::vector<uint8_t> &payload);
    void handleAck(uint64_t bytes, uint64_t chunks);
    void applyAheadAck();
    /** Consume any frames already readable without blocking. */
    void drainAcks();
    /** Send pending bytes from sendPos; reconnects on drops. */
    void pump();
    /** Redial + Hello2(resume) + rewind sendPos. FatalError when the
     *  attempts run out. */
    void reconnectAndResume();
    bool sendStreamEnd();

    int fd = -1;
    wire::FrameDecoder dec;

    // Dial target (for redials).
    bool tcpMode = false;
    std::string target; ///< socket path or IPv4 host
    uint16_t tcpPort = 0;

    bool peerClosed = false; ///< latched: later writes are no-ops
    bool rxClosed = false;   ///< read side saw EOF/reset: drained dry

    // Resume state (helloV2 streams only).
    bool resumeOn = false;
    std::string tenantName;
    uint64_t modHash = 0;
    uint64_t token = 0;
    size_t frameBytesUsed = 64 * 1024;
    unsigned maxAttempts = 8;
    unsigned backoffBaseMs = 10;
    uint64_t reconnectCount = 0;
    // Retained unacked trace tail: bytes [pendingBase, pendingBase +
    // pending.size()); sendPos is the next absolute offset to send.
    std::vector<uint8_t> pending;
    uint64_t pendingBase = 0;
    uint64_t sendPos = 0;
    uint64_t ackChunksEcho = 0; ///< chunk count paired w/ pendingBase
    // An ack ahead of sendPos (server sealed re-sent bytes we have
    // not re-reached yet); applied once sendPos catches up so the
    // (offset, chunks) resume pair always comes from one ChunkAck.
    bool aheadValid = false;
    uint64_t aheadBytes = 0, aheadChunks = 0;
    // A Result/Error that arrived while sending (e.g. the stream
    // finished while parked); end() consumes it.
    bool haveEarly = false;
    wire::FrameType earlyType = wire::FrameType::Result;
    std::vector<uint8_t> earlyPayload;
};

} // namespace serve
} // namespace ipds

#endif // IPDS_SERVE_CLIENT_H
