#include "serve/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/export.h"
#include "obs/names.h"
#include "replay/replay.h"
#include "support/diag.h"
#include "support/threadpool.h"

namespace ipds {
namespace serve {

namespace n = obs::names;
using Clock = std::chrono::steady_clock;

/** Pending connections each listener queues before accept(). */
constexpr int kListenBacklog = 16;

uint64_t
alarmDigest(const std::vector<Alarm> &alarms, uint64_t h)
{
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Alarm &a : alarms) {
        mix(a.func);
        mix(a.pc);
        mix(a.actualTaken ? 1 : 0);
        mix(static_cast<uint64_t>(a.expected));
        mix(a.branchIndex);
    }
    return h;
}

namespace {

/** Self-pipe messages: actors -> ingest thread. */
enum class Msg : uint8_t
{
    Done = 1,   ///< stream finished OK: send its Result frame
    Fail = 2,   ///< stream rejected: send its Error frame, close
    Resume = 3, ///< queue drained: re-enable POLLIN on the conn
    Stop = 4,   ///< requestStop(): shut the ingest loop down
    Ack = 5,    ///< sealed watermark advanced: send a ChunkAck
};

/** One TraceData payload (or the end-of-stream marker). */
struct Segment
{
    std::vector<uint8_t> bytes;
    Clock::time_point enq;
    bool eof = false;
    /** Absolute trace offset of bytes[0] (the resume dedup key). */
    uint64_t absStart = 0;
};

/** Per-stream state. The ingest thread frames; one actor decodes. */
struct Stream
{
    explicit Stream(const CompiledProgram &prog) : dec(prog) {}

    std::string tenant;
    Clock::time_point started;

    // Routing + resume identity. Written once at Hello (before any
    // segment is queued — the queue mutex is the fence), read-only
    // after.
    uint64_t moduleHash = 0;
    bool resumable = false; ///< client declared a resume token
    uint64_t resumeToken = 0;

    // Ingest-thread-only transport state.
    uint64_t rxPos = 0; ///< abs trace offset of the next TraceData
    Clock::time_point parkDeadline{}; ///< while parked for resume
    bool resultSent = false; ///< Result/Error delivered (dedup)

    // Actor-only decode state (the actor invariant — at most one
    // scheduled task per stream — is the only lock it needs).
    replay::StreamDecoder dec;
    uint64_t lastAckChunks = 0; ///< sealed chunks at the last ack

    // Shared queue + flags (guarded by m).
    std::mutex m;
    std::deque<Segment> q;
    bool scheduled = false;
    bool pausedByServer = false;
    bool failed = false;
    bool finished = false;
    uint32_t connId = 0; ///< 0 while parked (acks have no target)
    // Sealed watermark, published by the actor for the ingest
    // thread's ChunkAck frames and resume-attach validation.
    uint64_t pubSealedBytes = 0;
    uint64_t pubSealedChunks = 0;
    uint64_t pubAbsNext = 0;

    // Written by the finishing actor before it posts Done/Fail; read
    // by the ingest thread after (the self-pipe is the fence).
    std::string reportText;

    // Transport meters (ingest thread until finish, then published).
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t stalls = 0;
};

struct Conn
{
    int fd = -1;
    uint32_t id = 0;
    std::unique_ptr<wire::FrameDecoder> dec;
    std::vector<uint8_t> outbuf;
    size_t outOff = 0;
    std::shared_ptr<Stream> stream;
    bool paused = false;  ///< POLLIN off (admission control)
    bool closing = false; ///< flush outbuf, then close
};

struct TenantState
{
    uint64_t streams = 0;
    // Served alarms are folded into a count and a running digest, not
    // kept: a long-lived server's memory must not grow with them.
    uint64_t alarms = 0;
    uint64_t alarmDigest = kAlarmDigestSeed;
    DetectorStats det;
    TimingStats tim;
    FaultStats fault;
    obs::MetricsRegistry reg; ///< replay-shaped, merged per stream
    uint64_t frames = 0;
    uint64_t bytes = 0;
    uint64_t stalls = 0;

    /** reg plus the ipds.tenant.* meters. */
    obs::MetricsRegistry registry() const
    {
        obs::MetricsRegistry r = reg;
        r.add(r.counter(n::kTenantStreams), streams);
        r.add(r.counter(n::kTenantFrames), frames);
        r.add(r.counter(n::kTenantBytes), bytes);
        r.add(r.counter(n::kTenantBackpressureStalls), stalls);
        r.add(r.counter(n::kTenantAlarms), alarms);
        return r;
    }
};

void
setNonBlock(int fd)
{
    int fl = fcntl(fd, F_GETFL, 0);
    if (fl >= 0)
        fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

} // namespace

struct Server::Impl
{
    ServerConfig cfg;

    // Module registry: immutable once start() runs, so actors read it
    // without a lock.
    std::unordered_map<uint64_t, const CompiledProgram *> modules;

    int listenFd = -1;
    int tcpFd = -1;
    uint16_t tcpBoundPort = 0;
    int pipeRd = -1;
    int pipeWr = -1;
    std::thread ingest;
    bool started = false;
    bool joined = false;
    std::atomic<std::thread::id> ingestTid{};

    // Ingest-thread-only state.
    std::unordered_map<uint32_t, Conn> conns;
    uint32_t nextConnId = 1;
    std::deque<std::pair<Msg, uint32_t>> selfMsgs;
    /** Dropped resumable streams awaiting a reconnect, by token. */
    std::unordered_map<uint64_t, std::shared_ptr<Stream>> parked;
    /** Tokens owned by a live or parked stream (collision guard). */
    std::unordered_set<uint64_t> activeTokens;
    /** Shutdown in progress: closeConn fails instead of parking. */
    bool draining = false;

    // Shared state.
    mutable std::mutex mtx;
    std::condition_variable cv;
    bool stopped = false; ///< ingest loop exited
    uint64_t completed = 0;
    uint64_t failedStreams = 0;
    /** Verdicts whose Done/Fail is already posted: what
     *  waitForStreams() counts (see postVerdict). */
    uint64_t settled = 0;
    std::map<std::string, TenantState> tenants;
    obs::MetricsRegistry reg;
    obs::MetricHandle hAccepted, hCompleted, hFailed, hFrames,
        hBytes, hFrameCrc, hOversized, hBadFrames, hStalls, hResumes,
        hReconnects, hResumedChunks, hUnknownModule, hAcceptErrors,
        hDroppedReply, hMaxActive, hLatency;

    // Declared LAST: ~Impl destroys members in reverse order, and
    // ~ThreadPool drains in-flight stream actors that still lock mtx
    // and touch tenants and reg — the pool must go first, while all
    // of that shared state is still alive.
    ThreadPool pool;

    explicit Impl(ServerConfig c)
        : cfg(std::move(c)), pool(cfg.threads)
    {
        hAccepted = reg.counter(n::kServeStreamsAccepted);
        hCompleted = reg.counter(n::kServeStreamsCompleted);
        hFailed = reg.counter(n::kServeStreamsFailed);
        hFrames = reg.counter(n::kServeFramesIn);
        hBytes = reg.counter(n::kServeBytesIn);
        hFrameCrc = reg.counter(n::kServeFrameCrcFailures);
        hOversized = reg.counter(n::kServeOversizedFrames);
        hBadFrames = reg.counter(n::kServeBadFrames);
        hStalls = reg.counter(n::kServeBackpressureStalls);
        hResumes = reg.counter(n::kServeResumes);
        hReconnects = reg.counter(n::kServeReconnects);
        hResumedChunks = reg.counter(n::kServeResumedChunks);
        hUnknownModule = reg.counter(n::kServeUnknownModule);
        hAcceptErrors = reg.counter(n::kServeAcceptErrors);
        hDroppedReply = reg.counter(n::kServeDroppedReplyBytes);
        hMaxActive = reg.gauge(n::kServeMaxActiveStreams);
        hLatency = reg.histogram(n::kServeIngestLatencyHist);
        if (cfg.maxFrameBytes == 0)
            cfg.maxFrameBytes = wire::kDefaultMaxFrameBytes;
        if (cfg.pendingChunkCap == 0)
            cfg.pendingChunkCap = 64;
        if (cfg.ackEveryChunks == 0)
            cfg.ackEveryChunks = 4;
    }

    // ---- self-pipe ---------------------------------------------------

    void postMsg(Msg t, uint32_t connId)
    {
        if (std::this_thread::get_id() == ingestTid.load()) {
            // The ingest thread is the pipe's only reader, so a
            // blocked write here would deadlock it — and actors DO
            // run on it (submit() is inline with a 1-worker pool).
            // Queue locally instead; the loop drains selfMsgs at
            // the top of every iteration, before the pipe.
            selfMsgs.emplace_back(t, connId);
            return;
        }
        uint8_t b[5];
        b[0] = static_cast<uint8_t>(t);
        replay::putU32(b + 1, connId);
        for (;;) {
            // <= PIPE_BUF, so the write is atomic: 5 bytes or none.
            ssize_t rc = write(pipeWr, b, sizeof b);
            if (rc == static_cast<ssize_t>(sizeof b))
                return;
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                // Full pipe (thousands of unread messages). A
                // dropped Done/Resume would hang that client
                // forever, so wait for the ingest thread to drain —
                // unless it already exited, in which case nobody
                // reads the pipe and the message is moot (results
                // were merged before Done is ever posted).
                {
                    std::lock_guard<std::mutex> lk(mtx);
                    if (stopped)
                        return;
                }
                pollfd p{pipeWr, POLLOUT, 0};
                poll(&p, 1, 10);
                continue;
            }
            return; // EBADF/EPIPE teardown race: nothing to signal
        }
    }

    // ---- actor side --------------------------------------------------

    void runActor(const std::shared_ptr<Stream> &s)
    {
        for (;;) {
            Segment seg;
            bool resume = false;
            uint32_t resumeConn = 0;
            bool skip;
            {
                std::lock_guard<std::mutex> lk(s->m);
                if (s->q.empty()) {
                    s->scheduled = false;
                    return;
                }
                seg = std::move(s->q.front());
                s->q.pop_front();
                if (s->pausedByServer &&
                    s->q.size() <= cfg.pendingChunkCap / 2) {
                    s->pausedByServer = false;
                    resume = true;
                    resumeConn = s->connId;
                }
                skip = s->failed || s->finished;
            }
            if (resume && resumeConn != 0)
                postMsg(Msg::Resume, resumeConn);

            if (!skip) {
                try {
                    if (seg.eof)
                        finishStream(s);
                    else
                        ingestSegment(*s, seg);
                } catch (const FatalError &e) {
                    const char *w = e.what();
                    failStream(s, w,
                               std::strncmp(w, "transport:", 10) == 0
                                   ? wire::ErrorCode::Transport
                                   : wire::ErrorCode::Trace,
                               s->dec.failureCounter());
                }
                uint64_t us = static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(Clock::now() -
                                                   seg.enq)
                        .count());
                std::lock_guard<std::mutex> lk(mtx);
                reg.observe(hLatency, us);
            }
        }
    }

    /** Decode one segment, then publish the sealed watermark and ack
     *  it at the configured cadence: a reconnecting client re-feeds
     *  from it. */
    void ingestSegment(Stream &s, const Segment &seg)
    {
        s.dec.feed(seg.absStart, seg.bytes.data(), seg.bytes.size());
        if (!s.resumable)
            return;
        bool ack = false;
        uint32_t ackConn = 0;
        {
            std::lock_guard<std::mutex> lk(s.m);
            s.pubAbsNext = s.dec.received();
            s.pubSealedBytes = s.dec.sealedBytes();
            s.pubSealedChunks = s.dec.sealedChunks();
            if (s.pubSealedChunks - s.lastAckChunks >=
                cfg.ackEveryChunks) {
                s.lastAckChunks = s.pubSealedChunks;
                ack = true;
                ackConn = s.connId;
            }
        }
        if (ack && ackConn != 0)
            postMsg(Msg::Ack, ackConn);
    }

    void finishStream(const std::shared_ptr<Stream> &s)
    {
        const double secs =
            std::chrono::duration<double>(Clock::now() - s->started)
                .count();
        replay::ReplayReport rep = s->dec.finish(secs);
        const std::vector<Alarm> &alarms = rep.total.alarms;
        std::string report = strprintf(
            "ok 1\ntenant %s\nsessions %llu\nalarms %llu\n"
            "alarm_digest 0x%016llx\n",
            s->tenant.c_str(),
            static_cast<unsigned long long>(rep.total.runs),
            static_cast<unsigned long long>(alarms.size()),
            static_cast<unsigned long long>(alarmDigest(alarms)));
        report += rep.metrics.toText();
        land(s, std::move(report), &rep, nullptr);
    }

    /**
     * Post a stream's Done/Fail, then settle it for waitForStreams().
     * A waiter may call requestStop() the moment its count trips, and
     * messages are ordered — settling after the post guarantees the
     * ingest thread sends this stream's Result/Error frame before it
     * can ever see Stop.
     */
    void postVerdict(Msg t, uint32_t connId)
    {
        postMsg(t, connId);
        std::lock_guard<std::mutex> lk(mtx);
        settled++;
        cv.notify_all();
    }

    /** Fail @p s with a typed Error, counted under @p counter. */
    void failStream(const std::shared_ptr<Stream> &s,
                    const std::string &why, wire::ErrorCode code,
                    const char *counter)
    {
        land(s, wire::taggedError(code, why), nullptr, counter);
    }

    /**
     * Land @p s's verdict, once: @p rep for a Result, or a failure
     * counted under @p counter, the ipds.replay.* meter of its defect
     * (a chunk CRC, a truncation, a version skew) or nullptr. The
     * tenant aggregate and the stream count land BEFORE Done/Fail is
     * posted: the Result or Error frame is the client's signal that
     * the stream landed, so snapshot(), statsz and streamsCompleted()
     * read after it must already see it.
     */
    void land(const std::shared_ptr<Stream> &s, std::string text,
              const replay::ReplayReport *rep, const char *counter)
    {
        uint64_t frames, bytes, stalls;
        uint32_t connId;
        {
            std::lock_guard<std::mutex> lk(s->m);
            if (s->failed || s->finished)
                return;
            (rep ? s->finished : s->failed) = true;
            s->reportText = std::move(text);
            frames = s->frames;
            bytes = s->bytes;
            stalls = s->stalls;
            connId = s->connId;
        }
        {
            std::lock_guard<std::mutex> lk(mtx);
            TenantState &t = tenants[s->tenant];
            t.frames += frames;
            t.bytes += bytes;
            t.stalls += stalls;
            if (counter)
                t.reg.add(t.reg.counter(counter));
            if (rep) {
                const std::vector<Alarm> &alarms = rep->total.alarms;
                t.streams++;
                t.det.merge(rep->total.det);
                t.tim.merge(rep->total.tim);
                t.fault.merge(rep->total.fault);
                t.alarms += alarms.size();
                t.alarmDigest = alarmDigest(alarms, t.alarmDigest);
                t.reg.merge(rep->metrics);
            }
            (rep ? completed : failedStreams)++;
            reg.add(rep ? hCompleted : hFailed);
        }
        postVerdict(rep ? Msg::Done : Msg::Fail, connId);
    }

    // ---- ingest thread -----------------------------------------------

    void sendFrameBytes(Conn &c, wire::FrameType t, const uint8_t *p,
                        size_t n)
    {
        wire::appendFrame(c.outbuf, t, p, n);
        flushOut(c);
    }

    void sendFrame(Conn &c, wire::FrameType t, const std::string &text)
    {
        sendFrameBytes(
            c, t, reinterpret_cast<const uint8_t *>(text.data()),
            text.size());
    }

    /** Write as much of outbuf as the socket takes (rest on POLLOUT). */
    void flushOut(Conn &c)
    {
        while (c.outOff < c.outbuf.size()) {
            // MSG_NOSIGNAL: a client that drops mid-reply must give
            // EPIPE, never SIGPIPE the whole server.
            ssize_t w = ::send(c.fd, c.outbuf.data() + c.outOff,
                               c.outbuf.size() - c.outOff,
                               MSG_NOSIGNAL);
            if (w > 0) {
                c.outOff += static_cast<size_t>(w);
                continue;
            }
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            // Peer vanished mid-write: drop the rest (counted so an
            // operator can see replies that never landed), close
            // below.
            {
                std::lock_guard<std::mutex> lk(mtx);
                reg.add(hDroppedReply, c.outbuf.size() - c.outOff);
            }
            c.closing = true;
            c.outOff = c.outbuf.size();
            return;
        }
        c.outbuf.clear();
        c.outOff = 0;
    }

    void closeConn(uint32_t id)
    {
        auto it = conns.find(id);
        if (it == conns.end())
            return;
        if (it->second.stream) {
            // A dropped client mid-stream: a stream that declared a
            // resume token is PARKED for the grace period (the
            // client may reconnect and re-feed from the last ack);
            // anything else is a failed stream — with the actor
            // path's one-transition guard so a stream that already
            // finished/failed is not re-counted.
            std::shared_ptr<Stream> s = it->second.stream;
            bool active;
            {
                std::lock_guard<std::mutex> lk(s->m);
                active = !s->failed && !s->finished;
                s->connId = 0; // detach: acks have no target now
            }
            if (s->resumable && !s->resultSent && !draining) {
                s->parkDeadline =
                    Clock::now() +
                    std::chrono::milliseconds(cfg.resumeGraceMs);
                parked[s->resumeToken] = s;
            } else if (active) {
                failStream(s,
                           "transport: connection dropped "
                           "mid-stream (truncated)",
                           wire::ErrorCode::Transport,
                           n::kReplayTruncatedChunks);
            }
        }
        close(it->second.fd);
        conns.erase(it);
    }

    void noteBadFrame(bool crc, bool oversized)
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (crc)
            reg.add(hFrameCrc);
        else if (oversized)
            reg.add(hOversized);
        else
            reg.add(hBadFrames);
    }

    void rejectConn(Conn &c, wire::ErrorCode code,
                    const std::string &why, bool crc, bool oversized)
    {
        noteBadFrame(crc, oversized);
        sendError(c, code, why);
    }

    /** Typed Error frame + close, without the bad-frame meters. */
    void sendError(Conn &c, wire::ErrorCode code,
                   const std::string &why)
    {
        sendFrame(c, wire::FrameType::Error,
                  wire::taggedError(code, why));
        c.closing = true;
    }

    void handleFrame(Conn &c, const wire::Frame &f)
    {
        {
            std::lock_guard<std::mutex> lk(mtx);
            reg.add(hFrames);
            reg.add(hBytes,
                    wire::kFrameHeaderBytes + f.payloadLen);
        }
        switch (f.type) {
          case wire::FrameType::Hello2:
            handleHello2(c, f);
            break;
          case wire::FrameType::TraceData:
          case wire::FrameType::StreamEnd: {
            if (!c.stream) {
                rejectConn(c, wire::ErrorCode::Protocol,
                           "protocol: no Hello", false, false);
                return;
            }
            std::shared_ptr<Stream> s = c.stream;
            Segment seg;
            seg.enq = Clock::now();
            if (f.type == wire::FrameType::StreamEnd) {
                seg.eof = true;
            } else {
                seg.bytes.assign(f.payload,
                                 f.payload + f.payloadLen);
                seg.absStart = s->rxPos;
                s->rxPos += f.payloadLen;
            }
            bool schedule = false;
            bool stalled = false;
            {
                std::lock_guard<std::mutex> lk(s->m);
                s->frames++;
                s->bytes += wire::kFrameHeaderBytes + f.payloadLen;
                s->q.push_back(std::move(seg));
                if (!s->scheduled) {
                    s->scheduled = true;
                    schedule = true;
                }
                if (s->q.size() >= cfg.pendingChunkCap &&
                    !c.paused) {
                    s->pausedByServer = true;
                    c.paused = true;
                    s->stalls++;
                    stalled = true;
                }
            }
            if (stalled) {
                std::lock_guard<std::mutex> lk(mtx);
                reg.add(hStalls);
            }
            // Outside s->m: with a single-worker pool submit() runs
            // the actor inline on this thread, and it takes s->m.
            if (schedule)
                pool.submit([this, s] { runActor(s); });
            break;
          }
          case wire::FrameType::StatsReq:
            sendFrame(c, wire::FrameType::Stats, statszLocked());
            break;
          default:
            rejectConn(c, wire::ErrorCode::Protocol,
                       "protocol: unexpected frame type", false,
                       false);
            break;
        }
    }

    /** Attach a fresh stream to @p c (a first-attach Hello2). */
    void openStream(Conn &c, std::string tenant,
                    const CompiledProgram *prog, uint64_t moduleHash,
                    uint64_t resumeToken)
    {
        c.stream = std::make_shared<Stream>(*prog);
        c.stream->connId = c.id;
        c.stream->tenant = std::move(tenant);
        c.stream->started = Clock::now();
        c.stream->moduleHash = moduleHash;
        c.stream->resumeToken = resumeToken;
        c.stream->resumable = resumeToken != 0;
        if (resumeToken != 0)
            activeTokens.insert(resumeToken);
        std::lock_guard<std::mutex> lk(mtx);
        reg.add(hAccepted);
        uint64_t active = 0;
        for (const auto &kv : conns)
            if (kv.second.stream)
                active++;
        reg.setMax(hMaxActive, active);
    }

    void handleHello2(Conn &c, const wire::Frame &f)
    {
        if (c.stream) {
            rejectConn(c, wire::ErrorCode::Protocol,
                       "protocol: duplicate Hello", false, false);
            return;
        }
        wire::HelloV2 h;
        if (!wire::decodeHello2(f.payload, f.payloadLen, h)) {
            rejectConn(c, wire::ErrorCode::Protocol,
                       "protocol: malformed Hello2", false, false);
            return;
        }
        if (h.resume) {
            attachResume(c, h);
            return;
        }
        auto mit = modules.find(h.moduleHash);
        if (mit == modules.end()) {
            // Typed reject; the connection carried a well-formed
            // frame, so the bad-frame meters stay untouched and no
            // tenant aggregate is created.
            {
                std::lock_guard<std::mutex> lk(mtx);
                reg.add(hUnknownModule);
            }
            sendError(c, wire::ErrorCode::UnknownModule,
                      strprintf("serve: module %016llx is not "
                                "registered",
                                static_cast<unsigned long long>(
                                    h.moduleHash)));
            return;
        }
        if (h.resumeToken != 0 &&
            (activeTokens.count(h.resumeToken) ||
             parked.count(h.resumeToken))) {
            rejectConn(c, wire::ErrorCode::Protocol,
                       "protocol: resume token already in use",
                       false, false);
            return;
        }
        openStream(c, std::move(h.tenant), mit->second, h.moduleHash,
                   h.resumeToken);
    }

    void attachResume(Conn &c, const wire::HelloV2 &h)
    {
        auto pit = parked.find(h.resumeToken);
        if (pit == parked.end()) {
            sendError(c, wire::ErrorCode::UnknownResume,
                      "serve: unknown or expired resume token");
            return;
        }
        std::shared_ptr<Stream> s = pit->second;
        if (s->tenant != h.tenant || s->moduleHash != h.moduleHash) {
            sendError(c, wire::ErrorCode::UnknownResume,
                      "serve: resume token does not match the "
                      "stream's tenant/module");
            return;
        }
        bool finished, failed;
        uint64_t pubBytes, pubChunks, pubNext;
        {
            std::lock_guard<std::mutex> lk(s->m);
            finished = s->finished;
            failed = s->failed;
            pubBytes = s->pubSealedBytes;
            pubChunks = s->pubSealedChunks;
            pubNext = s->pubAbsNext;
        }
        if (!finished && !failed && h.resumeOffset > pubNext) {
            // The client claims bytes this server never received.
            // Leave the stream parked (an honest retry with a real
            // watermark can still attach within the grace period).
            sendError(c, wire::ErrorCode::UnknownResume,
                      "serve: resume offset past the received "
                      "stream");
            return;
        }
        parked.erase(pit);
        {
            std::lock_guard<std::mutex> lk(s->m);
            s->connId = c.id;
            s->pausedByServer = false;
        }
        c.stream = s;
        s->rxPos = h.resumeOffset;
        {
            std::lock_guard<std::mutex> lk(mtx);
            reg.add(hReconnects);
            if (pubChunks >= h.resumeChunks)
                reg.add(hResumedChunks, pubChunks - h.resumeChunks);
        }
        // A stream that reached its verdict while parked gets it
        // now; the selfMsgs queue keeps the ingest thread the only
        // frame writer and resultSent dedupes against the actor's
        // own (dropped) Done/Fail post.
        if (finished || failed) {
            selfMsgs.emplace_back(finished ? Msg::Done : Msg::Fail,
                                  c.id);
            return;
        }
        // First frame back is the watermark the re-feed is judged
        // against.
        std::vector<uint8_t> ack =
            wire::encodeChunkAck(pubBytes, pubChunks);
        sendFrameBytes(c, wire::FrameType::ChunkAck, ack.data(),
                       ack.size());
    }

    void readConn(Conn &c)
    {
        uint8_t buf[16384];
        for (;;) {
            ssize_t r = read(c.fd, buf, sizeof buf);
            if (r > 0) {
                c.dec->append(buf, static_cast<size_t>(r));
                wire::Frame f;
                for (;;) {
                    wire::DecodeStatus st = c.dec->next(f);
                    if (st == wire::DecodeStatus::Frame) {
                        handleFrame(c, f);
                        if (c.closing)
                            return;
                        continue;
                    }
                    if (st == wire::DecodeStatus::NeedMore)
                        break;
                    const bool crc =
                        st == wire::DecodeStatus::CrcMismatch;
                    const bool oversized =
                        st == wire::DecodeStatus::Oversized;
                    const char *why =
                        crc ? "frame CRC mismatch"
                            : oversized ? "oversized frame"
                                        : "bad frame";
                    if (c.stream) {
                        // One Error frame per connection: the
                        // Msg::Fail path sends it (with reportText)
                        // and closes; rejectConn's immediate frame
                        // would make it two.
                        noteBadFrame(crc, oversized);
                        failStream(c.stream,
                                   std::string("transport: ") + why,
                                   wire::ErrorCode::Transport, nullptr);
                    } else {
                        rejectConn(c, wire::ErrorCode::Transport,
                                   std::string("transport: ") + why,
                                   crc, oversized);
                    }
                    return;
                }
                if (c.paused)
                    return; // admission control: stop reading
                continue;
            }
            if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            if (r < 0 && errno == EINTR)
                continue;
            // EOF (or hard error). A partial frame here is the
            // "connection drop mid-frame" failure path.
            closeConn(c.id);
            return;
        }
    }

    void handleMsg(Msg t, uint32_t connId, bool &stopSeen)
    {
        if (t == Msg::Stop) {
            stopSeen = true;
            return;
        }
        auto it = conns.find(connId);
        if (it == conns.end())
            return;
        Conn &c = it->second;
        switch (t) {
          case Msg::Resume: {
            if (c.paused) {
                c.paused = false;
                std::lock_guard<std::mutex> lk(mtx);
                reg.add(hResumes);
            }
            break;
          }
          case Msg::Ack: {
            if (!c.stream || c.stream->resultSent)
                break;
            uint64_t b, k;
            {
                std::lock_guard<std::mutex> lk(c.stream->m);
                b = c.stream->pubSealedBytes;
                k = c.stream->pubSealedChunks;
            }
            std::vector<uint8_t> p = wire::encodeChunkAck(b, k);
            sendFrameBytes(c, wire::FrameType::ChunkAck, p.data(),
                           p.size());
            break;
          }
          case Msg::Done:
          case Msg::Fail: {
            if (c.stream && c.stream->resultSent)
                break; // resume race: verdict already delivered
            std::string report;
            if (c.stream) {
                c.stream->resultSent = true;
                if (c.stream->resumeToken != 0)
                    activeTokens.erase(c.stream->resumeToken);
                std::lock_guard<std::mutex> lk(c.stream->m);
                report = c.stream->reportText;
            }
            sendFrame(c,
                      t == Msg::Done ? wire::FrameType::Result
                                     : wire::FrameType::Error,
                      report);
            if (t == Msg::Fail)
                c.closing = true;
            else
                c.stream.reset(); // stream done; conn may StatsReq
            break;
          }
          default:
            break;
        }
    }

    void ingestLoop()
    {
        ingestTid.store(std::this_thread::get_id());
        bool stopSeen = false;
        std::vector<pollfd> pfds;
        std::vector<uint32_t> ids;
        while (!stopSeen) {
            // Messages this thread posted to itself (inline actors,
            // failStream from the read path). Drained before pfds
            // are built so a Fail's closing flag masks POLLIN for
            // the same iteration, and before the pipe so Done keeps
            // its posted-before-Stop ordering.
            while (!selfMsgs.empty()) {
                std::pair<Msg, uint32_t> m = selfMsgs.front();
                selfMsgs.pop_front();
                handleMsg(m.first, m.second, stopSeen);
            }
            if (stopSeen)
                break;
            // Parked streams whose resume grace ran out fail as
            // truncation — exactly what a non-resumable drop gets.
            if (!parked.empty()) {
                Clock::time_point now = Clock::now();
                for (auto it = parked.begin();
                     it != parked.end();) {
                    if (now >= it->second->parkDeadline) {
                        std::shared_ptr<Stream> s = it->second;
                        activeTokens.erase(it->first);
                        it = parked.erase(it);
                        failStream(s,
                                   "transport: resume grace "
                                   "expired after a dropped "
                                   "connection (truncated)",
                                   wire::ErrorCode::Transport,
                                   n::kReplayTruncatedChunks);
                    } else {
                        ++it;
                    }
                }
            }
            pfds.clear();
            ids.clear();
            pfds.push_back({pipeRd, POLLIN, 0});
            std::vector<int> lfds;
            if (listenFd >= 0)
                lfds.push_back(listenFd);
            if (tcpFd >= 0)
                lfds.push_back(tcpFd);
            for (int lfd : lfds)
                pfds.push_back({lfd, POLLIN, 0});
            for (auto &kv : conns) {
                short ev = 0;
                if (!kv.second.paused && !kv.second.closing)
                    ev |= POLLIN;
                if (kv.second.outOff < kv.second.outbuf.size())
                    ev |= POLLOUT;
                if (ev == 0 && kv.second.closing)
                    ev = POLLOUT; // wake to close
                pfds.push_back({kv.second.fd, ev, 0});
                ids.push_back(kv.first);
            }
            // Finite timeout only while a parked stream's grace
            // deadline needs watching.
            if (poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                     parked.empty() ? -1 : 50) < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (pfds[0].revents & POLLIN) {
                uint8_t b[5 * 64];
                ssize_t r = read(pipeRd, b, sizeof b);
                for (ssize_t i = 0; i + 5 <= r; i += 5)
                    handleMsg(static_cast<Msg>(b[i]),
                              replay::getU32(b + i + 1), stopSeen);
            }
            for (size_t li = 0; li < lfds.size(); li++) {
                if (!(pfds[1 + li].revents & POLLIN))
                    continue;
                const int lfd = lfds[li];
                const bool isTcp = lfd == tcpFd;
                for (;;) {
                    int fd = accept(lfd, nullptr, nullptr);
                    if (fd < 0) {
                        if (errno == EINTR ||
                            errno == ECONNABORTED)
                            continue; // transient; keep draining
                        if (errno == EAGAIN ||
                            errno == EWOULDBLOCK)
                            break; // backlog drained
                        // EMFILE/ENFILE/…: count it — a silently
                        // abandoned drain reads as "no connections",
                        // which is exactly how fd exhaustion hides.
                        // poll() is level-triggered, so the backlog
                        // is retried next iteration.
                        {
                            std::lock_guard<std::mutex> lk(mtx);
                            reg.add(hAcceptErrors);
                        }
                        break;
                    }
                    setNonBlock(fd);
                    if (isTcp) {
                        int one = 1;
                        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY,
                                   &one, sizeof one);
                    }
                    Conn c;
                    c.fd = fd;
                    c.id = nextConnId++;
                    c.dec = std::make_unique<wire::FrameDecoder>(
                        cfg.maxFrameBytes);
                    conns.emplace(c.id, std::move(c));
                }
            }
            for (size_t i = 0; i < ids.size(); i++) {
                auto it = conns.find(ids[i]);
                if (it == conns.end())
                    continue;
                Conn &c = it->second;
                short re = pfds[i + 1 + lfds.size()].revents;
                if (re & POLLOUT)
                    flushOut(c);
                if (c.closing && c.outOff >= c.outbuf.size()) {
                    closeConn(c.id);
                    continue;
                }
                if (re & POLLIN)
                    readConn(c); // may erase the conn
                it = conns.find(ids[i]);
                if (it != conns.end() &&
                    (re & (POLLHUP | POLLERR)) &&
                    !(re & POLLIN))
                    closeConn(ids[i]);
            }
        }
        // Shutdown: parked streams cannot survive the server — fail
        // them now so their meters land and waiters see the count.
        draining = true;
        {
            std::unordered_map<uint64_t, std::shared_ptr<Stream>>
                still = std::move(parked);
            parked.clear();
            activeTokens.clear();
            for (auto &kv : still)
                failStream(kv.second,
                           "transport: server stopped before the "
                           "stream could resume (truncated)",
                           wire::ErrorCode::Transport,
                           n::kReplayTruncatedChunks);
        }
        // Best-effort drain of queued replies — a Result/Error frame
        // that hit EAGAIN just before Stop must still reach its
        // client before the socket closes.
        for (unsigned round = 0; round < cfg.shutdownDrainRounds;
             round++) {
            bool pending = false;
            for (auto &kv : conns) {
                Conn &c = kv.second;
                if (c.outOff >= c.outbuf.size())
                    continue;
                pollfd p{c.fd, POLLOUT, 0};
                poll(&p, 1, 10);
                flushOut(c);
                if (c.outOff < c.outbuf.size())
                    pending = true;
            }
            if (!pending)
                break;
        }
        // Whatever the drain could not deliver is dropped — counted,
        // never silent: an operator diffing statsz must be able to
        // see replies that never landed.
        {
            uint64_t leftover = 0;
            for (auto &kv : conns)
                if (kv.second.outOff < kv.second.outbuf.size())
                    leftover +=
                        kv.second.outbuf.size() - kv.second.outOff;
            if (leftover > 0) {
                std::lock_guard<std::mutex> lk(mtx);
                reg.add(hDroppedReply, leftover);
            }
            for (auto &kv : conns) // closeConn must not re-count
                kv.second.outOff = kv.second.outbuf.size();
        }
        // Then close every socket; in-flight actors finish on the
        // pool (their late Done/Fail messages land in a pipe nobody
        // reads, which is fine — results are already merged).
        std::vector<uint32_t> all;
        for (auto &kv : conns)
            all.push_back(kv.first);
        for (uint32_t id : all)
            closeConn(id);
        closeListeners();
        std::lock_guard<std::mutex> lk(mtx);
        stopped = true;
        cv.notify_all();
    }

    /** Close the listeners, removing the unix socket file. */
    void closeListeners()
    {
        if (listenFd >= 0) {
            close(listenFd);
            listenFd = -1;
            unlink(cfg.socketPath.c_str());
        }
        if (tcpFd >= 0) {
            close(tcpFd);
            tcpFd = -1;
        }
    }

    // ---- statsz ------------------------------------------------------

    std::string statszLocked() const
    {
        std::lock_guard<std::mutex> lk(mtx);
        std::string out = "# ipds_serve statsz\n";
        out += reg.toText();
        for (const auto &kv : tenants) {
            out += strprintf("# tenant %s\n", kv.first.c_str());
            out += kv.second.registry().toText();
        }
        return out;
    }
};

Server::Server(ServerConfig cfg)
    : impl(std::make_unique<Impl>(std::move(cfg)))
{}

Server::Server(const CompiledProgram &prog, ServerConfig cfg)
    : Server(std::move(cfg))
{
    registerModule(prog);
}

void
Server::registerModule(const CompiledProgram &prog)
{
    Impl &im = *impl;
    if (im.started)
        fatal("serve: registerModule() after start()");
    im.modules.emplace(replay::moduleContentHash(prog.mod), &prog);
}

uint16_t
Server::boundTcpPort() const
{
    return impl->tcpBoundPort;
}

Server::~Server()
{
    stopAndJoin();
    int rd = impl->pipeRd;
    int wr = impl->pipeWr;
    // Destroy Impl FIRST: its ThreadPool drains queued actors, and a
    // draining actor may still postMsg — the pipe fds must outlive
    // the pool, so they close last.
    impl.reset();
    if (rd >= 0)
        close(rd);
    if (wr >= 0)
        close(wr);
}

void
Server::start()
{
    Impl &im = *impl;
    if (im.started)
        fatal("serve: start() called twice");
    if (im.cfg.socketPath.empty() && im.cfg.tcpHost.empty())
        fatal("serve: no listener configured (socketPath or "
              "tcpHost)");
    if (im.modules.empty())
        fatal("serve: no module registered");

    if (!im.cfg.socketPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (im.cfg.socketPath.size() >= sizeof addr.sun_path)
            fatal("serve: socket path too long: '%s'",
                  im.cfg.socketPath.c_str());
        std::memcpy(addr.sun_path, im.cfg.socketPath.c_str(),
                    im.cfg.socketPath.size() + 1);

        int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("serve: socket(): %s", std::strerror(errno));
        unlink(im.cfg.socketPath.c_str());
        if (bind(fd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof addr) < 0) {
            int e = errno;
            close(fd);
            fatal("serve: cannot bind '%s': %s",
                  im.cfg.socketPath.c_str(), std::strerror(e));
        }
        if (listen(fd, kListenBacklog) < 0) {
            int e = errno;
            close(fd);
            fatal("serve: listen(): %s", std::strerror(e));
        }
        setNonBlock(fd);
        im.listenFd = fd;
    }

    if (!im.cfg.tcpHost.empty()) {
        auto bail = [&im](const char *what, int e) {
            im.closeListeners();
            fatal("serve: %s: %s", what, std::strerror(e));
        };
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(im.cfg.tcpPort);
        if (inet_pton(AF_INET, im.cfg.tcpHost.c_str(),
                      &addr.sin_addr) != 1) {
            im.closeListeners();
            fatal("serve: bad TCP address '%s' (IPv4 dotted quad "
                  "expected)",
                  im.cfg.tcpHost.c_str());
        }
        int fd = socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            bail("socket()", errno);
        int one = 1;
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (bind(fd, reinterpret_cast<sockaddr *>(&addr),
                 sizeof addr) < 0) {
            int e = errno;
            close(fd);
            bail("cannot bind TCP listener", e);
        }
        if (listen(fd, kListenBacklog) < 0) {
            int e = errno;
            close(fd);
            bail("listen()", e);
        }
        sockaddr_in bound{};
        socklen_t blen = sizeof bound;
        if (getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                        &blen) == 0)
            im.tcpBoundPort = ntohs(bound.sin_port);
        setNonBlock(fd);
        im.tcpFd = fd;
    }

    int p[2];
    if (pipe(p) < 0) {
        int e = errno;
        im.closeListeners();
        fatal("serve: pipe(): %s", std::strerror(e));
    }
    im.pipeRd = p[0];
    im.pipeWr = p[1];
    setNonBlock(im.pipeWr);

    im.started = true;
    im.ingest = std::thread([&im] { im.ingestLoop(); });
}

void
Server::requestStop()
{
    if (impl->started)
        impl->postMsg(Msg::Stop, 0);
}

void
Server::waitForStreams(uint64_t n)
{
    Impl &im = *impl;
    std::unique_lock<std::mutex> lk(im.mtx);
    im.cv.wait(lk, [&] {
        return im.stopped || im.settled >= n;
    });
}

void
Server::stopAndJoin()
{
    Impl &im = *impl;
    if (!im.started || im.joined)
        return;
    requestStop();
    im.ingest.join();
    im.joined = true;
}

uint64_t
Server::streamsCompleted() const
{
    std::lock_guard<std::mutex> lk(impl->mtx);
    return impl->completed;
}

uint64_t
Server::streamsFailed() const
{
    std::lock_guard<std::mutex> lk(impl->mtx);
    return impl->failedStreams;
}

std::vector<TenantSnapshot>
Server::snapshot() const
{
    std::lock_guard<std::mutex> lk(impl->mtx);
    std::vector<TenantSnapshot> out;
    for (const auto &kv : impl->tenants) {
        TenantSnapshot s;
        s.name = kv.first;
        s.streams = kv.second.streams;
        s.alarms = kv.second.alarms;
        s.alarmDigest = kv.second.alarmDigest;
        s.det = kv.second.det;
        s.tim = kv.second.tim;
        s.fault = kv.second.fault;
        s.reg = kv.second.registry();
        out.push_back(std::move(s));
    }
    return out; // std::map iteration is already name-sorted
}

std::string
Server::statszText() const
{
    return impl->statszLocked();
}

} // namespace serve
} // namespace ipds
