#include "serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/diag.h"

namespace ipds {
namespace serve {

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
Client::abortConnection()
{
    close();
}

void
Client::doConnect()
{
    int s;
    if (tcpMode) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(tcpPort);
        if (inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1)
            fatal("client: bad TCP address '%s' (IPv4 dotted quad "
                  "expected)",
                  target.c_str());
        s = socket(AF_INET, SOCK_STREAM, 0);
        if (s < 0)
            fatal("client: socket(): %s", std::strerror(errno));
        if (::connect(s, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            int e = errno;
            ::close(s);
            fatal("client: cannot connect %s:%u: %s", target.c_str(),
                  unsigned(tcpPort), std::strerror(e));
        }
        int one = 1;
        setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    } else {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (target.size() >= sizeof addr.sun_path)
            fatal("client: socket path too long: '%s'",
                  target.c_str());
        std::memcpy(addr.sun_path, target.c_str(),
                    target.size() + 1);
        s = socket(AF_UNIX, SOCK_STREAM, 0);
        if (s < 0)
            fatal("client: socket(): %s", std::strerror(errno));
        if (::connect(s, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) < 0) {
            int e = errno;
            ::close(s);
            fatal("client: cannot connect '%s': %s", target.c_str(),
                  std::strerror(e));
        }
    }
    fd = s;
    peerClosed = false;
    rxClosed = false;
    dec = wire::FrameDecoder();
}

void
Client::connect(const std::string &socketPath)
{
    if (fd >= 0)
        fatal("client: already connected");
    tcpMode = false;
    target = socketPath;
    doConnect();
}

void
Client::connectTcp(const std::string &host, uint16_t port)
{
    if (fd >= 0)
        fatal("client: already connected");
    tcpMode = true;
    target = host;
    tcpPort = port;
    doConnect();
}

void
Client::reconnectPolicy(unsigned attempts, unsigned backoffMs)
{
    maxAttempts = attempts;
    backoffBaseMs = backoffMs;
}

bool
Client::writeAll(const uint8_t *p, size_t bytes)
{
    if (fd < 0 || peerClosed)
        return false;
    size_t off = 0;
    while (off < bytes) {
        // MSG_NOSIGNAL: a server that rejects the stream closes its
        // end while we may still be sending — that must surface as
        // EPIPE, not kill the process with SIGPIPE.
        ssize_t w = ::send(fd, p + off, bytes - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (w == 0 || (w < 0 && (errno == EPIPE ||
                                 errno == ECONNRESET))) {
            // The peer hung up (a 0-byte send is the same condition,
            // not a fatal error with whatever errno was left over).
            // Latch it: every later write is a no-op, and any
            // verdict the server sent before closing is still
            // buffered for readFrame() to report.
            peerClosed = true;
            return false;
        }
        fatal("client: write failed: %s", std::strerror(errno));
    }
    return true;
}

void
Client::sendRaw(const std::vector<uint8_t> &bytes)
{
    if (fd < 0)
        fatal("client: not connected");
    writeAll(bytes.data(), bytes.size());
}

void
Client::helloV2(const std::string &tenant, uint64_t moduleHash,
                uint64_t resumeToken)
{
    if (fd < 0)
        fatal("client: not connected");
    if (resumeToken == 0) {
        std::random_device rd;
        do {
            resumeToken = (uint64_t(rd()) << 32) | uint64_t(rd());
        } while (resumeToken == 0);
    }
    resumeOn = true;
    tenantName = tenant;
    modHash = moduleHash;
    token = resumeToken;
    pending.clear();
    pendingBase = 0;
    sendPos = 0;
    ackChunksEcho = 0;
    aheadValid = false;
    haveEarly = false;

    wire::HelloV2 h;
    h.resume = false;
    h.tenant = tenant;
    h.moduleHash = moduleHash;
    h.resumeToken = resumeToken;
    std::vector<uint8_t> p = wire::encodeHello2(h);
    std::vector<uint8_t> f = wire::encodeFrame(
        wire::FrameType::Hello2, p.data(), p.size());
    if (!writeAll(f.data(), f.size()))
        reconnectAndResume();
}

void
Client::handleAck(uint64_t bytes, uint64_t chunks)
{
    if (bytes > sendPos) {
        // The server sealed re-sent bytes we have not re-reached yet
        // (it kept decoding queued segments while we were gone).
        // Hold the pair until sendPos catches up — trimming now
        // would drop bytes still scheduled for (re-)send.
        aheadValid = true;
        aheadBytes = bytes;
        aheadChunks = chunks;
        return;
    }
    if (bytes <= pendingBase)
        return; // stale
    pending.erase(pending.begin(),
                  pending.begin() +
                      static_cast<ptrdiff_t>(bytes - pendingBase));
    pendingBase = bytes;
    ackChunksEcho = chunks;
}

void
Client::applyAheadAck()
{
    if (aheadValid && aheadBytes <= sendPos) {
        aheadValid = false;
        handleAck(aheadBytes, aheadChunks);
    }
}

void
Client::drainAcks()
{
    if (fd < 0)
        return;
    uint8_t buf[16384];
    for (;;) {
        wire::Frame f;
        wire::DecodeStatus st = dec.next(f);
        if (st == wire::DecodeStatus::Frame) {
            if (f.type == wire::FrameType::ChunkAck) {
                uint64_t b, k;
                if (wire::decodeChunkAck(f.payload, f.payloadLen, b,
                                         k))
                    handleAck(b, k);
            } else if (f.type == wire::FrameType::Result ||
                       f.type == wire::FrameType::Error) {
                haveEarly = true;
                earlyType = f.type;
                earlyPayload.assign(f.payload,
                                    f.payload + f.payloadLen);
            }
            continue;
        }
        if (st != wire::DecodeStatus::NeedMore)
            fatal("client: malformed server frame");
        ssize_t r = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
        if (r > 0) {
            dec.append(buf, static_cast<size_t>(r));
            continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (r < 0 && errno == EINTR)
            continue;
        // EOF/reset: nothing more will ever arrive on this socket.
        peerClosed = true;
        rxClosed = true;
        return;
    }
}

void
Client::reconnectAndResume()
{
    if (!resumeOn)
        fatal("client: connection lost (no resume token declared)");
    // The drop may be a REJECT, not a network failure: the server
    // sends its final Error (typed) and closes. Drain the old socket
    // for that verdict before redialing — reconnecting past it would
    // retry a stream the server already refused.
    if (fd >= 0) {
        for (int spins = 0; spins < 20 && !haveEarly && !rxClosed;
             spins++) {
            drainAcks();
            if (haveEarly || rxClosed || fd < 0)
                break;
            pollfd p{};
            p.fd = fd;
            p.events = POLLIN;
            if (::poll(&p, 1, 10) < 0 && errno != EINTR)
                break;
        }
        if (haveEarly)
            return; // callers consume the verdict instead
    }
    unsigned backoff = backoffBaseMs;
    for (unsigned attempt = 0; attempt < maxAttempts; attempt++) {
        close();
        if (backoff > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
        if (backoff < 1000)
            backoff *= 2;
        try {
            doConnect();
        } catch (const FatalError &) {
            continue; // server not back yet
        }
        wire::HelloV2 h;
        h.resume = true;
        h.tenant = tenantName;
        h.moduleHash = modHash;
        h.resumeToken = token;
        h.resumeOffset = pendingBase;
        h.resumeChunks = ackChunksEcho;
        std::vector<uint8_t> p = wire::encodeHello2(h);
        std::vector<uint8_t> f = wire::encodeFrame(
            wire::FrameType::Hello2, p.data(), p.size());
        if (!writeAll(f.data(), f.size()))
            continue;
        // Re-feed everything the server never acked. Its dedup drops
        // whatever actually landed before the drop.
        sendPos = pendingBase;
        aheadValid = false;
        reconnectCount++;
        return;
    }
    fatal("client: could not reconnect after %u attempts",
          maxAttempts);
}

void
Client::pump()
{
    std::vector<uint8_t> f;
    while (sendPos < pendingBase + pending.size()) {
        if (haveEarly)
            return; // the server already delivered a verdict
        if (fd < 0 || peerClosed) {
            reconnectAndResume();
            continue;
        }
        const size_t off =
            static_cast<size_t>(sendPos - pendingBase);
        const size_t n = std::min(frameBytesUsed,
                                  pending.size() - off);
        f.clear();
        wire::appendFrame(f, wire::FrameType::TraceData,
                          pending.data() + off, n);
        if (!writeAll(f.data(), f.size())) {
            reconnectAndResume();
            continue;
        }
        sendPos += n;
        drainAcks();
        applyAheadAck();
    }
}

void
Client::sendTraceBytes(const uint8_t *p, size_t bytes,
                       size_t frameBytes)
{
    if (frameBytes == 0)
        frameBytes = 64 * 1024;
    if (resumeOn) {
        frameBytesUsed = frameBytes;
        pending.insert(pending.end(), p, p + bytes);
        pump();
        return;
    }
    std::vector<uint8_t> f;
    for (size_t off = 0; off < bytes; off += frameBytes) {
        size_t n = std::min(frameBytes, bytes - off);
        f.clear();
        wire::appendFrame(f, wire::FrameType::TraceData, p + off, n);
        if (!writeAll(f.data(), f.size()))
            return; // peer closed; readFrame() reports its verdict
    }
}

void
Client::sendTraceFile(const std::string &path, size_t frameBytes)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("client: cannot open trace '%s'", path.c_str());
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        fatal("client: read error on '%s'", path.c_str());
    sendTraceBytes(bytes.data(), bytes.size(), frameBytes);
}

bool
Client::tryReadFrame(wire::FrameType &t,
                     std::vector<uint8_t> &payload)
{
    if (fd < 0)
        return false;
    wire::Frame f;
    uint8_t buf[16384];
    for (;;) {
        wire::DecodeStatus st = dec.next(f);
        if (st == wire::DecodeStatus::Frame) {
            t = f.type;
            payload.assign(f.payload, f.payload + f.payloadLen);
            return true;
        }
        if (st != wire::DecodeStatus::NeedMore)
            fatal("client: malformed server frame");
        ssize_t r = read(fd, buf, sizeof buf);
        if (r > 0) {
            dec.append(buf, static_cast<size_t>(r));
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        return false; // EOF or reset
    }
}

wire::FrameType
Client::readFrame(std::vector<uint8_t> &payload)
{
    for (;;) {
        wire::FrameType t;
        if (!tryReadFrame(t, payload))
            fatal("client: connection closed by server%s",
                  dec.buffered() ? " mid-frame (truncated)" : "");
        if (t == wire::FrameType::ChunkAck) {
            uint64_t b, k;
            if (wire::decodeChunkAck(payload.data(), payload.size(),
                                     b, k)) {
                handleAck(b, k);
                applyAheadAck();
            }
            continue; // acks are bookkeeping, not the reply
        }
        return t;
    }
}

namespace {

/**
 * "key value" line scanner over the server's text report. Found-ness
 * is the return value — a missing key must never parse as a
 * legitimate zero.
 */
bool
reportField(const std::string &text, const std::string &key,
            uint64_t &out, int base = 10)
{
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        if (text.compare(pos, key.size(), key) == 0 &&
            pos + key.size() < eol &&
            text[pos + key.size()] == ' ') {
            out = std::strtoull(
                text.c_str() + pos + key.size() + 1, nullptr, base);
            return true;
        }
        pos = eol + 1;
    }
    return false;
}

} // namespace

bool
Client::sendStreamEnd()
{
    std::vector<uint8_t> f =
        wire::encodeTextFrame(wire::FrameType::StreamEnd, "");
    return writeAll(f.data(), f.size());
}

StreamResult
Client::end()
{
    std::vector<uint8_t> payload;
    wire::FrameType t = wire::FrameType::Result;
    if (resumeOn) {
        if (!haveEarly)
            sendStreamEnd(); // on failure the loop below resumes
        for (;;) {
            if (haveEarly) {
                t = earlyType;
                payload = std::move(earlyPayload);
                haveEarly = false;
                break;
            }
            if (fd < 0 || peerClosed) {
                reconnectAndResume();
                pump();
                sendStreamEnd();
                continue;
            }
            if (!tryReadFrame(t, payload)) {
                peerClosed = true;
                continue; // dropped while waiting: resume above
            }
            if (t == wire::FrameType::ChunkAck) {
                uint64_t b, k;
                if (wire::decodeChunkAck(payload.data(),
                                         payload.size(), b, k)) {
                    handleAck(b, k);
                    applyAheadAck();
                }
                continue;
            }
            break;
        }
    } else {
        sendStreamEnd(); // peer-closed no-op is fine: verdict below
        t = readFrame(payload);
    }

    StreamResult r;
    r.text.assign(payload.begin(), payload.end());
    if (t == wire::FrameType::Result) {
        uint64_t ok = 0;
        const bool fOk = reportField(r.text, "ok", ok);
        const bool fSess =
            reportField(r.text, "sessions", r.sessions);
        const bool fAl = reportField(r.text, "alarms", r.alarms);
        const bool fDig =
            reportField(r.text, "alarm_digest", r.alarmDigest, 16);
        if (!fOk || !fSess || !fAl || !fDig) {
            // A Result that does not carry the full contract is a
            // protocol defect, not a clean zero-alarm stream.
            r.ok = false;
            r.malformed = true;
        } else {
            r.ok = ok == 1;
        }
    } else if (t == wire::FrameType::Error) {
        r.ok = false;
        r.errorCode = wire::parseErrorCode(r.text);
    } else {
        fatal("client: unexpected frame type %u from server",
              static_cast<unsigned>(t));
    }
    return r;
}

std::string
Client::statsz()
{
    std::vector<uint8_t> f =
        wire::encodeTextFrame(wire::FrameType::StatsReq, "");
    writeAll(f.data(), f.size());
    std::vector<uint8_t> payload;
    wire::FrameType t = readFrame(payload);
    if (t != wire::FrameType::Stats)
        fatal("client: expected Stats frame, got %u",
              static_cast<unsigned>(t));
    return std::string(payload.begin(), payload.end());
}

} // namespace serve
} // namespace ipds
