/**
 * @file
 * TCP transport, reconnect/resume and the multi-program registry
 * (`ctest -L service-tcp`).
 *
 * The tentpole guarantee under test: a stream killed mid-transfer
 * and resumed over TCP produces a final Result BIT-IDENTICAL to the
 * uninterrupted stream and to offline replay of the same trace —
 * the server dedups re-sent bytes by absolute offset, so every trace
 * byte enters the detector exactly once no matter how many times the
 * connection dropped.
 *
 * Around it: Hello v2 routing across a registry of several compiled
 * programs (unknown hashes rejected with a typed Error, other
 * tenants' aggregates untouched), unix + TCP listeners sharing one
 * server, resume-grace expiry, and the bounded shutdown drain's
 * dropped-reply accounting.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/program.h"
#include "inject/fault.h"
#include "obs/names.h"
#include "obs/session.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/diag.h"
#include "vm/vm.h"

#include "metric_lines.h"

using namespace ipds;
using testutil::metricLines;

namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "ipds_tcp_" + name;
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

/** Same correlated-privilege-flag program the service suite uses. */
const char *kLoopProgram = R"(
void main() {
    int role;
    int req;
    role = 0;
    if (input_int() == 42) {
        role = 1;
    }
    req = 0;
    while (req < 4) {
        if (role == 1) {
            print_str("p\n");
        } else {
            print_str("n\n");
        }
        input_int();
        req = req + 1;
    }
}
)";

/** A second, distinct program — a different registry entry. */
const char *kGateProgram = R"(
void main() {
    int lvl;
    lvl = input_int();
    if (lvl > 2) {
        print_str("hi\n");
    } else {
        print_str("lo\n");
    }
    if (lvl > 2) {
        print_str("hi2\n");
    } else {
        print_str("lo2\n");
    }
}
)";

const std::vector<std::string> kLoopInputs{"7", "1", "2", "3", "4"};

std::string
capture(const CompiledProgram &prog,
        const std::vector<std::string> &inputs,
        const std::string &name, uint32_t sessions, bool tamper)
{
    std::string path = tmpPath(name + ".trc");
    Session::Builder b = Session::builder();
    b.program(prog).inputs(inputs).sessions(sessions);
    ExecPlan exec;
    if (tamper) {
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.afterInputEvent = 2;
        spec.addr = Vm(prog.mod).entryLocalAddr("role");
        spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};
        exec.addTamper(spec);
    }
    b.plan(CapturePlan(path).exec(exec));
    b.build().run();
    return path;
}

uint64_t
counterOf(const std::string &statsz, const std::string &name)
{
    std::istringstream in(statsz);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string k;
        uint64_t v = 0;
        ls >> k >> v;
        if (k == name)
            return v;
    }
    return 0;
}

} // namespace

// ------------------------------------------------------ TCP transport

TEST(TcpService, StreamOverTcpMatchesOfflineReplayBitForBit)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    std::string path =
        capture(prog, kLoopInputs, "ident", 3, /*tamper=*/true);

    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    off.run();
    ASSERT_TRUE(off.alarmed());

    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1"; // TCP only: no unix listener at all
    cfg.tcpPort = 0;           // ephemeral
    cfg.threads = 2;
    serve::Server srv(prog, cfg);
    srv.start();
    ASSERT_GT(srv.boundTcpPort(), 0);

    serve::Client c;
    c.connectTcp("127.0.0.1", srv.boundTcpPort());
    c.helloV2("tenant-a", replay::readTraceHeader(path).moduleHash);
    c.sendTraceFile(path, 64);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_EQ(r.sessions, 3u);
    EXPECT_EQ(r.alarms, off.alarms().size());
    EXPECT_EQ(r.alarmDigest, serve::alarmDigest(off.alarms()));
    EXPECT_EQ(metricLines(r.text), metricLines(off.metricsText()));
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_TRUE(snap[0].det == off.detectorStats());
    std::remove(path.c_str());
}

TEST(TcpService, KilledAndResumedStreamIsBitIdenticalToUninterrupted)
{
    // THE acceptance test: abort the connection several times
    // mid-transfer; the resumed stream's Result must match both the
    // uninterrupted stream and offline replay bit for bit.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    std::string path =
        capture(prog, kLoopInputs, "resume", 6, /*tamper=*/true);
    std::vector<uint8_t> bytes = readBytes(path);
    uint64_t hash = replay::readTraceHeader(path).moduleHash;

    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    off.run();
    ASSERT_TRUE(off.alarmed());

    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1";
    cfg.threads = 2;
    cfg.ackEveryChunks = 1; // ack every sealed chunk: tight watermark
    serve::Server srv(prog, cfg);
    srv.start();

    // Uninterrupted reference stream, same server.
    serve::Client smooth;
    smooth.connectTcp("127.0.0.1", srv.boundTcpPort());
    smooth.helloV2("smooth", hash);
    smooth.sendTraceBytes(bytes.data(), bytes.size(), 256);
    serve::StreamResult rs = smooth.end();
    ASSERT_TRUE(rs.ok) << rs.text;

    // Interrupted stream: kill the connection at several offsets,
    // with small frames so drops land mid-trace-structure.
    serve::Client bumpy;
    bumpy.connectTcp("127.0.0.1", srv.boundTcpPort());
    bumpy.helloV2("bumpy", hash);
    const size_t third = bytes.size() / 3;
    bumpy.sendTraceBytes(bytes.data(), third, 256);
    bumpy.abortConnection(); // drop #1: between sends
    bumpy.sendTraceBytes(bytes.data() + third, third, 256);
    bumpy.abortConnection(); // drop #2
    bumpy.sendTraceBytes(bytes.data() + 2 * third,
                         bytes.size() - 2 * third, 256);
    bumpy.abortConnection(); // drop #3: all data sent, before end()
    serve::StreamResult rb = bumpy.end();
    srv.stopAndJoin();

    ASSERT_TRUE(rb.ok) << rb.text;
    EXPECT_GE(bumpy.reconnects(), 3u);
    EXPECT_GT(bumpy.lastAckedBytes(), 0u);

    // Bit-identity three ways: resumed == uninterrupted == offline.
    EXPECT_EQ(rb.sessions, rs.sessions);
    EXPECT_EQ(rb.alarms, rs.alarms);
    EXPECT_EQ(rb.alarmDigest, rs.alarmDigest);
    EXPECT_EQ(metricLines(rb.text), metricLines(rs.text));
    EXPECT_EQ(rb.alarmDigest, serve::alarmDigest(off.alarms()));
    EXPECT_EQ(metricLines(rb.text), metricLines(off.metricsText()));

    // Both tenants aggregated identically server-side.
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 2u); // name-sorted: bumpy, smooth
    EXPECT_EQ(snap[0].name, "bumpy");
    EXPECT_TRUE(snap[0].det == snap[1].det);
    EXPECT_EQ(snap[0].alarmDigest, snap[1].alarmDigest);

    std::string statsz = srv.statszText();
    EXPECT_GE(counterOf(statsz, obs::names::kServeReconnects), 3u)
        << statsz;
    std::remove(path.c_str());
}

TEST(TcpService, ReconnectStormAtOddOffsetsStaysBitIdentical)
{
    // A drop between every slice, with slice edges at odd byte
    // offsets that never line up with trace chunk or frame
    // boundaries — every resume re-feeds from mid-structure.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    std::string path =
        capture(prog, kLoopInputs, "storm", 20, /*tamper=*/true);
    std::vector<uint8_t> bytes = readBytes(path);
    uint64_t hash = replay::readTraceHeader(path).moduleHash;
    std::remove(path.c_str());

    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1";
    cfg.threads = 2;
    cfg.ackEveryChunks = 2;
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client smooth;
    smooth.connectTcp("127.0.0.1", srv.boundTcpPort());
    smooth.helloV2("smooth", hash);
    smooth.sendTraceBytes(bytes.data(), bytes.size(), 512);
    serve::StreamResult rs = smooth.end();
    ASSERT_TRUE(rs.ok) << rs.text;

    serve::Client bumpy;
    bumpy.connectTcp("127.0.0.1", srv.boundTcpPort());
    bumpy.helloV2("bumpy", hash);
    size_t off = 0;
    size_t slice = bytes.size() / 11 + 3; // deliberately odd-sized
    while (off < bytes.size()) {
        size_t n = std::min(slice, bytes.size() - off);
        bumpy.sendTraceBytes(bytes.data() + off, n, 512);
        off += n;
        bumpy.abortConnection();
    }
    serve::StreamResult rb = bumpy.end();
    srv.stopAndJoin();

    ASSERT_TRUE(rb.ok) << rb.text;
    EXPECT_GE(bumpy.reconnects(), 10u);
    EXPECT_EQ(rb.alarmDigest, rs.alarmDigest);
    EXPECT_EQ(rb.sessions, rs.sessions);
    EXPECT_EQ(metricLines(rb.text), metricLines(rs.text));
}

// ------------------------------------------------ module registry

TEST(TcpService, TwoModulesTwoTenantsOneServerRouteByHash)
{
    CompiledProgram loop = compileAndAnalyze(kLoopProgram, "tcp_loop");
    CompiledProgram gate = compileAndAnalyze(kGateProgram, "tcp_gate");
    std::string loopTrc =
        capture(loop, kLoopInputs, "mr_loop", 2, /*tamper=*/true);
    std::string gateTrc =
        capture(gate, {"5"}, "mr_gate", 2, /*tamper=*/false);

    Session offLoop = Session::builder()
                          .program(loop)
                          .plan(ReplayPlan(loopTrc))
                          .build();
    offLoop.run();
    Session offGate = Session::builder()
                          .program(gate)
                          .plan(ReplayPlan(gateTrc))
                          .build();
    offGate.run();

    // One server, both listeners live, registry of two programs.
    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("mr.sock");
    cfg.tcpHost = "127.0.0.1";
    cfg.threads = 2;
    serve::Server srv(cfg);
    srv.registerModule(loop);
    srv.registerModule(gate);
    srv.start();

    // Tenant "alice" streams the loop trace over TCP; tenant "bob"
    // the gate trace over the unix socket — routed by module hash.
    serve::Client a;
    a.connectTcp("127.0.0.1", srv.boundTcpPort());
    a.helloV2("alice", replay::readTraceHeader(loopTrc).moduleHash);
    a.sendTraceFile(loopTrc, 128);
    serve::StreamResult ra = a.end();

    serve::Client b;
    b.connect(cfg.socketPath);
    b.helloV2("bob", replay::readTraceHeader(gateTrc).moduleHash);
    b.sendTraceFile(gateTrc, 128);
    serve::StreamResult rbob = b.end();
    srv.stopAndJoin();

    ASSERT_TRUE(ra.ok) << ra.text;
    ASSERT_TRUE(rbob.ok) << rbob.text;
    EXPECT_EQ(ra.alarmDigest, serve::alarmDigest(offLoop.alarms()));
    EXPECT_EQ(metricLines(ra.text), metricLines(offLoop.metricsText()));
    EXPECT_EQ(rbob.alarms, 0u);
    EXPECT_EQ(rbob.alarmDigest, serve::alarmDigest(offGate.alarms()));
    EXPECT_EQ(metricLines(rbob.text),
              metricLines(offGate.metricsText()));

    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "alice");
    EXPECT_EQ(snap[1].name, "bob");
    std::remove(loopTrc.c_str());
    std::remove(gateTrc.c_str());
}

TEST(TcpService, UnknownModuleHashIsATypedErrorAndIsolated)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    std::string path =
        capture(prog, kLoopInputs, "um", 2, /*tamper=*/true);
    uint64_t hash = replay::readTraceHeader(path).moduleHash;

    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1";
    serve::Server srv(prog, cfg);
    srv.start();

    // A good tenant's stream first.
    serve::Client good;
    good.connectTcp("127.0.0.1", srv.boundTcpPort());
    good.helloV2("good", hash);
    good.sendTraceFile(path, 128);
    serve::StreamResult rg = good.end();
    ASSERT_TRUE(rg.ok) << rg.text;

    // A stream naming a hash the registry does not hold: typed
    // Error, and the client's resume machinery must NOT retry past
    // the reject.
    serve::Client bad;
    bad.connectTcp("127.0.0.1", srv.boundTcpPort());
    bad.reconnectPolicy(3, 1);
    bad.helloV2("bad", hash ^ 0xdeadbeefULL);
    bad.sendTraceFile(path, 128);
    serve::StreamResult rb = bad.end();
    srv.stopAndJoin();

    EXPECT_FALSE(rb.ok);
    EXPECT_EQ(rb.errorCode, "unknown_module") << rb.text;
    EXPECT_NE(rb.text.find("not registered"), std::string::npos)
        << rb.text;
    EXPECT_EQ(bad.reconnects(), 0u);

    // The reject left the good tenant's aggregates untouched — and
    // never opened a stream, so the failure counters stay clean too.
    EXPECT_EQ(srv.streamsCompleted(), 1u);
    EXPECT_EQ(srv.streamsFailed(), 0u);
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "good");
    EXPECT_EQ(snap[0].alarmDigest, rg.alarmDigest);
    std::string statsz = srv.statszText();
    EXPECT_EQ(counterOf(statsz, obs::names::kServeUnknownModule), 1u)
        << statsz;
    std::remove(path.c_str());
}

// ------------------------------------------------ resume edge cases

TEST(TcpService, ResumeGraceExpiryFailsTheStreamAsTruncation)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    std::string path =
        capture(prog, kLoopInputs, "grace", 2, /*tamper=*/false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1";
    cfg.resumeGraceMs = 50; // expire almost immediately
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    c.connectTcp("127.0.0.1", srv.boundTcpPort());
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    c.sendTraceBytes(bytes.data(), bytes.size() / 2, 128);
    c.abortConnection();
    // Never comes back: the park deadline passes, the stream fails
    // as truncated (exactly what a v1 drop reports).
    srv.waitForStreams(1);
    srv.stopAndJoin();
    EXPECT_EQ(srv.streamsCompleted(), 0u);
    EXPECT_EQ(srv.streamsFailed(), 1u);
}

TEST(TcpService, UnknownResumeTokenIsATypedError)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    serve::ServerConfig cfg;
    cfg.tcpHost = "127.0.0.1";
    serve::Server srv(prog, cfg);
    srv.start();

    // Hand-built resume Hello2 for a token the server never saw.
    serve::wire::HelloV2 h;
    h.resume = true;
    h.tenant = "ghost";
    h.moduleHash = 1; // irrelevant: the token lookup fails first
    h.resumeToken = 0x1234;
    std::vector<uint8_t> p = serve::wire::encodeHello2(h);
    serve::Client c;
    c.connectTcp("127.0.0.1", srv.boundTcpPort());
    c.sendRaw(serve::wire::encodeFrame(
        serve::wire::FrameType::Hello2, p.data(), p.size()));
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "unknown_resume") << r.text;
}

// ------------------------------------------------ shutdown drain

TEST(TcpService, BoundedShutdownDrainCountsDroppedReplyBytes)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "tcp_loop");
    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("drain.sock");
    cfg.shutdownDrainRounds = 1; // one 10ms flush round, then drop
    serve::Server srv(prog, cfg);
    srv.start();

    // Flood the server with StatsReq and never read a byte of the
    // replies: the conn outbuf backs up far past what the kernel
    // socket buffer can absorb.
    serve::Client c;
    c.connect(cfg.socketPath);
    std::vector<uint8_t> reqs;
    for (int i = 0; i < 5000; i++)
        serve::wire::appendFrame(reqs, serve::wire::FrameType::StatsReq,
                                 nullptr, 0);
    c.sendRaw(reqs);
    // Let the ingest thread consume the requests and queue replies.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    srv.stopAndJoin();

    std::string statsz = srv.statszText();
    EXPECT_GT(counterOf(statsz, obs::names::kServeDroppedReplyBytes),
              0u)
        << statsz;
}
