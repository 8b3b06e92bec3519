/**
 * @file
 * Detection-service suite (`ctest -L service`).
 *
 * The tentpole guarantee under test: a trace streamed to ipds_serve
 * over the framed transport is detected AT INGEST bit-identically to
 * offline replay of the same file — same alarms, same DetectorStats,
 * same metric lines (modulo the wall-clock events_per_sec gauge and
 * the transport-only ipds.tenant.* meters).
 *
 * Around it, the failure taxonomy of the transport (the reader
 * satellite's retry-vs-reject contract lifted to the wire): partial
 * frame at connection drop is truncation, frame/chunk CRC mismatch is
 * corruption, an oversized frame is rejected before buffering, and a
 * slow client is paused — counted, never deadlocked, never able to
 * starve other tenants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
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
#include "timing/config.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

#include "metric_lines.h"

using namespace ipds;
using testutil::metricLines;

namespace {

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "ipds_serve_" + name;
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** The replay suite's correlated-privilege-flag program: tampering
 *  `role` after input #2 walks an infeasible path every iteration. */
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

const std::vector<std::string> kLoopInputs{"7", "1", "2", "3", "4"};

/** Capture a trace through the public facade; returns its path. */
std::string
capture(const CompiledProgram &prog, const std::string &name,
        uint32_t sessions, bool timing, bool tamper = false)
{
    std::string path = tmpPath(name + ".trc");
    Session::Builder b = Session::builder();
    b.program(prog).inputs(kLoopInputs).sessions(sessions);
    if (timing)
        b.timing(table1Config());
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

/** Connect with retries — the server thread may still be binding. */
void
connectRetry(serve::Client &c, const std::string &sock)
{
    for (int i = 0;; i++) {
        try {
            c.connect(sock);
            return;
        } catch (const FatalError &) {
            if (i > 200)
                throw;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    }
}

/**
 * Open a stream that fails at once when its connection drops: a Hello2
 * whose resume token is 0, the wire's "no resume" value. helloV2()
 * always declares a token, and the server parks a dropped resumable
 * stream for the resume grace period instead.
 */
void
helloNoResume(serve::Client &c, const std::string &tenant,
              const CompiledProgram &prog)
{
    serve::wire::HelloV2 h;
    h.tenant = tenant;
    h.moduleHash = replay::moduleContentHash(prog.mod);
    std::vector<uint8_t> p = serve::wire::encodeHello2(h);
    c.sendRaw(serve::wire::encodeFrame(serve::wire::FrameType::Hello2,
                                       p.data(), p.size()));
}

/** Value of counter @p name on a /statsz page (0 when absent). */
uint64_t
statszCounter(const std::string &statsz, const std::string &name)
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

/** A tenant's ipds.replay.{crc_failures, truncated_chunks,
 *  version_mismatches} in snapshot() and in /statsz, which must agree. */
std::vector<uint64_t>
failureCounts(const serve::Server &srv, const std::string &tenant)
{
    const char *names[] = {obs::names::kReplayCrcFailures,
                           obs::names::kReplayTruncatedChunks,
                           obs::names::kReplayVersionMismatches};
    const std::string statsz = srv.statszText();
    const size_t at = statsz.find("# tenant " + tenant + "\n");
    if (at == std::string::npos) {
        ADD_FAILURE() << "no /statsz section for tenant " << tenant;
        return {};
    }
    const size_t next = statsz.find("# tenant ", at + 1);
    const std::string section = statsz.substr(
        at, next == std::string::npos ? next : next - at);
    std::vector<uint64_t> out;
    for (const serve::TenantSnapshot &t : srv.snapshot())
        if (t.name == tenant)
            for (const char *name : names) {
                obs::MetricHandle h = t.reg.find(name);
                uint64_t v = h == obs::kNoMetric ? 0 : t.reg.value(h);
                EXPECT_EQ(v, statszCounter(section, name)) << name;
                out.push_back(v);
            }
    return out;
}

} // namespace

// ------------------------------------------ truncation vs corruption

TEST(ReaderContract, HeaderTruncationIsRetryableNotCorrupt)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "hdr", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    replay::TraceMeta meta;
    size_t consumed = 0;
    std::string err;

    // Too short: NeedMore — the streaming alias for TruncatedChunk —
    // means "wait for bytes", never "reject".
    EXPECT_EQ(replay::parseHeader(bytes.data(), 10, meta, consumed,
                                  &err),
              replay::ParseStatus::NeedMore);
    EXPECT_EQ(replay::ParseStatus::NeedMore,
              replay::ParseStatus::TruncatedChunk);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;

    // Complete: Ok, consumed = the header size.
    EXPECT_EQ(replay::parseHeader(bytes.data(), bytes.size(), meta,
                                  consumed, &err),
              replay::ParseStatus::Ok);
    EXPECT_EQ(consumed, replay::headerBytes(meta));

    // Corrupt (a moduleHash byte — covered by the header CRC, past
    // the magic/version prefix): CRC mismatch is a reject, not a
    // retry.
    std::vector<uint8_t> bad = bytes;
    bad[13] ^= 0x40;
    EXPECT_EQ(replay::parseHeader(bad.data(), bad.size(), meta,
                                  consumed, &err),
              replay::ParseStatus::ChunkCrcMismatch);
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(ReaderContract, ChunkTruncationCorruptionAndMalformedLengths)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "chk", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    replay::TraceMeta meta;
    size_t consumed = 0;
    std::string err;
    ASSERT_EQ(replay::parseHeader(bytes.data(), bytes.size(), meta,
                                  consumed, &err),
              replay::ParseStatus::Ok);
    const uint8_t *chunk = bytes.data() + consumed;
    size_t avail = bytes.size() - consumed;
    ASSERT_GT(avail, replay::kChunkHeaderBytes);

    // The capture now ends with the v2 index footer + trailer; this
    // test frames the first data chunk only.
    avail = replay::kChunkHeaderBytes + replay::getU32(chunk);
    ASSERT_LE(avail, bytes.size() - consumed);

    replay::ChunkRef ref;
    size_t used = 0;

    // Short header and short payload: both NeedMore.
    EXPECT_EQ(replay::parseChunk(chunk, 7, ref, used, &err),
              replay::ParseStatus::NeedMore);
    EXPECT_EQ(replay::parseChunk(chunk, avail - 3, ref, used, &err),
              replay::ParseStatus::NeedMore);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;

    // Complete: Ok, payload offset relative to the chunk start.
    ASSERT_EQ(replay::parseChunk(chunk, avail, ref, used, &err),
              replay::ParseStatus::Ok);
    EXPECT_EQ(used, avail);
    EXPECT_EQ(ref.payloadOff, replay::kChunkHeaderBytes);

    // Payload corruption: CRC mismatch, defect offset points at the
    // payload, not at zero.
    std::vector<uint8_t> bad(chunk, chunk + avail);
    bad[replay::kChunkHeaderBytes + 2] ^= 0x01;
    EXPECT_EQ(replay::parseChunk(bad.data(), bad.size(), ref, used,
                                 &err),
              replay::ParseStatus::ChunkCrcMismatch);
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;

    // An impossible declared length must be Malformed, not NeedMore:
    // a corrupt length would otherwise stall a streaming ingest
    // forever waiting for bytes that never come.
    std::vector<uint8_t> huge(chunk, chunk + avail);
    replay::putU32(huge.data(), 0xFFFFFFFFu);
    EXPECT_EQ(replay::parseChunk(huge.data(), huge.size(), ref, used,
                                 &err),
              replay::ParseStatus::Malformed);
}

TEST(ReaderContract, ValidateDistinguishesTruncationFromCorruption)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "val", 2, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    // The trailer's last 8 bytes locate the index footer — everything
    // before it is data chunks.
    const size_t footerOff = static_cast<size_t>(
        replay::getU64(bytes.data() + bytes.size() - 8));

    // Cut mid-chunk: truncation tallies, CRC stays clean.
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + footerOff - 5);
    replay::ValidateResult vr = replay::TraceFile::validateBytes(cut);
    EXPECT_FALSE(vr.ok);
    EXPECT_EQ(vr.truncatedChunks, 1u);
    EXPECT_EQ(vr.crcFailures, 0u);

    // Flip a payload byte: corruption tallies, truncation stays clean.
    std::vector<uint8_t> bad = bytes;
    bad[footerOff - 5] ^= 0x10;
    vr = replay::TraceFile::validateBytes(bad);
    EXPECT_EQ(vr.crcFailures, 1u);
    EXPECT_EQ(vr.truncatedChunks, 0u);

    // Cut inside the index itself: advisory — the scan recomputes the
    // index, so the file stays valid with the defect tallied.
    std::vector<uint8_t> idxCut(bytes.begin(), bytes.end() - 5);
    vr = replay::TraceFile::validateBytes(idxCut);
    EXPECT_TRUE(vr.ok) << vr.error;
    EXPECT_GE(vr.indexDefects, 1u);
}

// --------------------------------------------------- frame envelope

TEST(Wire, RoundTripAndSplitDelivery)
{
    std::vector<uint8_t> payload;
    for (int i = 0; i < 300; i++)
        payload.push_back(static_cast<uint8_t>(i * 7));
    std::vector<uint8_t> enc;
    serve::wire::appendFrame(enc, serve::wire::FrameType::TraceData,
                             payload.data(), payload.size());
    serve::wire::appendFrame(enc, serve::wire::FrameType::StreamEnd,
                             nullptr, 0);

    // Byte-at-a-time delivery: one NeedMore per missing byte, then
    // both frames intact.
    serve::wire::FrameDecoder dec;
    serve::wire::Frame f;
    int frames = 0;
    for (uint8_t b : enc) {
        dec.append(&b, 1);
        while (dec.next(f) == serve::wire::DecodeStatus::Frame) {
            if (++frames == 1) {
                ASSERT_EQ(f.payloadLen, payload.size());
                EXPECT_EQ(0, std::memcmp(f.payload, payload.data(),
                                         payload.size()));
            }
        }
    }
    EXPECT_EQ(frames, 2);
    EXPECT_TRUE(dec.atFrameBoundary());
}

TEST(Wire, RejectStatusesAreSticky)
{
    serve::wire::Frame f;
    {
        serve::wire::FrameDecoder dec;
        std::vector<uint8_t> junk(20, 0x5a);
        dec.append(junk.data(), junk.size());
        EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::BadMagic);
        // Sticky: even appending a valid frame cannot revive it.
        std::vector<uint8_t> ok = serve::wire::encodeTextFrame(
            serve::wire::FrameType::Result, "t");
        dec.append(ok.data(), ok.size());
        EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::BadMagic);
    }
    {
        serve::wire::FrameDecoder dec(64); // tiny negotiated max
        std::vector<uint8_t> big(256, 1);
        std::vector<uint8_t> enc = serve::wire::encodeFrame(
            serve::wire::FrameType::TraceData, big.data(), big.size());
        dec.append(enc.data(), enc.size());
        EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::Oversized);
    }
    {
        serve::wire::FrameDecoder dec;
        std::vector<uint8_t> enc = serve::wire::encodeTextFrame(
            serve::wire::FrameType::Result, "tenant");
        enc[serve::wire::kFrameHeaderBytes + 1] ^= 0x80;
        dec.append(enc.data(), enc.size());
        EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::CrcMismatch);
    }
    {
        serve::wire::FrameDecoder dec;
        std::vector<uint8_t> enc = serve::wire::encodeTextFrame(
            serve::wire::FrameType::Result, "t");
        enc[4] = 0x7f; // unknown frame type
        dec.append(enc.data(), enc.size());
        EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::BadType);
    }
}

TEST(Wire, CompactionEraseKeepsAPartialFrameDecodable)
{
    // The decoder compacts its buffer on append() once the consumed
    // prefix passes 4 KiB — via erase() when a partial frame is still
    // buffered. The erased prefix must not shift the partial frame's
    // bytes out from under the next decode.
    auto mkFrame = [](int idx) {
        std::vector<uint8_t> payload(600);
        for (size_t i = 0; i < payload.size(); i++)
            payload[i] = static_cast<uint8_t>(idx * 31 + i);
        return serve::wire::encodeFrame(
            serve::wire::FrameType::TraceData, payload.data(),
            payload.size());
    };

    serve::wire::FrameDecoder dec;
    serve::wire::Frame f;
    // Eight full frames (8 * 616 bytes) and the first half of a
    // ninth, consumed as one batch: consumed ends at 4928 (> 4096)
    // with the partial ninth still pending.
    std::vector<uint8_t> batch;
    for (int i = 0; i < 8; i++) {
        std::vector<uint8_t> fr = mkFrame(i);
        batch.insert(batch.end(), fr.begin(), fr.end());
    }
    std::vector<uint8_t> ninth = mkFrame(8);
    batch.insert(batch.end(), ninth.begin(),
                 ninth.begin() + static_cast<long>(ninth.size() / 2));
    dec.append(batch.data(), batch.size());
    for (int i = 0; i < 8; i++) {
        ASSERT_EQ(dec.next(f), serve::wire::DecodeStatus::Frame);
        ASSERT_EQ(f.payloadLen, 600u);
        EXPECT_EQ(f.payload[0], static_cast<uint8_t>(i * 31)) << i;
    }
    EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::NeedMore);
    EXPECT_FALSE(dec.atFrameBoundary());

    // This append triggers the erase-compaction (consumed 4928 > 4096
    // and > half the buffer). The ninth frame must come out intact.
    dec.append(ninth.data() + ninth.size() / 2,
               ninth.size() - ninth.size() / 2);
    ASSERT_EQ(dec.next(f), serve::wire::DecodeStatus::Frame);
    ASSERT_EQ(f.payloadLen, 600u);
    for (size_t i = 0; i < 600; i++)
        ASSERT_EQ(f.payload[i], static_cast<uint8_t>(8 * 31 + i)) << i;
    EXPECT_EQ(dec.next(f), serve::wire::DecodeStatus::NeedMore);
    EXPECT_TRUE(dec.atFrameBoundary());
}

TEST(Wire, OddSizedChopsAcrossCompactionsKeepEveryPayloadIntact)
{
    // Long-haul: 200 frames of varied sizes delivered in odd-sized
    // chops that never align with frame boundaries, so the decoder
    // crosses both compaction paths (full-consume clear and the
    // erase-with-partial-frame) many times. Every payload byte must
    // survive; payload views are only read before the next append(),
    // per the documented contract.
    std::vector<uint8_t> stream;
    std::vector<std::vector<uint8_t>> expect;
    for (int i = 0; i < 200; i++) {
        std::vector<uint8_t> payload((i * 97) % 1500 + 1);
        for (size_t j = 0; j < payload.size(); j++)
            payload[j] = static_cast<uint8_t>(i + 7 * j);
        expect.push_back(payload);
        serve::wire::appendFrame(stream,
                                 serve::wire::FrameType::TraceData,
                                 payload.data(), payload.size());
    }

    serve::wire::FrameDecoder dec;
    serve::wire::Frame f;
    size_t got = 0, pos = 0;
    int chop = 1;
    while (pos < stream.size()) {
        size_t n = std::min(static_cast<size_t>(chop),
                            stream.size() - pos);
        chop = chop % 613 + 7; // 7, 14, ... never a frame multiple
        dec.append(stream.data() + pos, n);
        pos += n;
        while (dec.next(f) == serve::wire::DecodeStatus::Frame) {
            ASSERT_LT(got, expect.size());
            ASSERT_EQ(f.payloadLen, expect[got].size()) << got;
            ASSERT_EQ(0, std::memcmp(f.payload, expect[got].data(),
                                     f.payloadLen))
                << got;
            got++;
        }
    }
    EXPECT_EQ(got, expect.size());
    EXPECT_TRUE(dec.atFrameBoundary());
}

// ------------------------------------------------ ingest bit-identity

TEST(Service, StreamDetectionMatchesOfflineReplayBitForBit)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path =
        capture(prog, "ident", 3, false, /*tamper=*/true);

    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    off.run();
    ASSERT_TRUE(off.alarmed());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("ident.sock");
    cfg.threads = 2;
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("tenant-a", replay::moduleContentHash(prog.mod));
    // Tiny frames: the trace header itself spans several frames, so
    // ingest exercises the NeedMore path on every boundary.
    c.sendTraceFile(path, 64);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_EQ(r.sessions, 3u);
    EXPECT_EQ(r.alarms, off.alarms().size());
    EXPECT_EQ(r.alarmDigest, serve::alarmDigest(off.alarms()));
    // Every metric line but the wall-clock gauge matches offline.
    EXPECT_EQ(metricLines(r.text), metricLines(off.metricsText()));

    // The server-side aggregate carries the same alarms in order.
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "tenant-a");
    EXPECT_EQ(snap[0].alarmDigest, serve::alarmDigest(off.alarms()));
    EXPECT_TRUE(snap[0].det == off.detectorStats());
    std::remove(path.c_str());
}

TEST(Service, TimingTraceStreamsBitIdentically)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "timing", 2, /*timing=*/true);

    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(path))
                      .build();
    off.run();

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("timing.sock");
    serve::Server srv(prog, cfg);
    srv.start();
    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    c.sendTraceFile(path);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_EQ(metricLines(r.text), metricLines(off.metricsText()));
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_TRUE(snap[0].tim == off.timingStats());
    std::remove(path.c_str());
}

TEST(Service, FourConcurrentStreamsTwoTenants)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string clean = capture(prog, "conc_clean", 2, false);
    std::string dirty =
        capture(prog, "conc_dirty", 2, false, /*tamper=*/true);

    Session offClean =
        Session::builder().program(prog).plan(ReplayPlan(clean))
            .build();
    offClean.run();
    Session offDirty =
        Session::builder().program(prog).plan(ReplayPlan(dirty))
            .build();
    offDirty.run();
    ASSERT_FALSE(offClean.alarmed());
    ASSERT_TRUE(offDirty.alarmed());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("conc.sock");
    cfg.threads = 4;
    serve::Server srv(prog, cfg);
    srv.start();

    // 4 simultaneous client threads, 2 per tenant; tenant "alice"
    // streams clean traces, tenant "bob" alarmed ones.
    std::atomic<int> okCount{0}, alarmTotal{0};
    auto stream = [&](const char *tenant, const std::string &file) {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2(tenant, replay::moduleContentHash(prog.mod));
        c.sendTraceFile(file, 128);
        serve::StreamResult r = c.end();
        if (r.ok)
            okCount++;
        alarmTotal += static_cast<int>(r.alarms);
    };
    std::vector<std::thread> ts;
    ts.emplace_back(stream, "alice", clean);
    ts.emplace_back(stream, "alice", clean);
    ts.emplace_back(stream, "bob", dirty);
    ts.emplace_back(stream, "bob", dirty);
    for (auto &t : ts)
        t.join();
    srv.waitForStreams(4);
    srv.stopAndJoin();

    EXPECT_EQ(okCount.load(), 4);
    EXPECT_EQ(srv.streamsCompleted(), 4u);
    EXPECT_EQ(srv.streamsFailed(), 0u);
    EXPECT_EQ(alarmTotal.load(),
              2 * static_cast<int>(offDirty.alarms().size()));

    // Tenants aggregate separately, sorted by name.
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "alice");
    EXPECT_EQ(snap[0].streams, 2u);
    EXPECT_EQ(snap[0].alarms, 0u);
    EXPECT_EQ(snap[1].name, "bob");
    EXPECT_EQ(snap[1].streams, 2u);
    EXPECT_EQ(snap[1].alarms, 2 * offDirty.alarms().size());
    // The tenant's running digest equals the digest of its streams'
    // alarm lists concatenated in completion order.
    std::vector<Alarm> both = offDirty.alarms();
    both.insert(both.end(), offDirty.alarms().begin(),
                offDirty.alarms().end());
    EXPECT_EQ(snap[1].alarmDigest, serve::alarmDigest(both));

    // The /statsz page names both tenants and the transport meters.
    std::string statsz = srv.statszText();
    EXPECT_NE(statsz.find("# tenant alice"), std::string::npos);
    EXPECT_NE(statsz.find("# tenant bob"), std::string::npos);
    EXPECT_NE(statsz.find(obs::names::kTenantStreams),
              std::string::npos);
    EXPECT_NE(statsz.find(obs::names::kServeFramesIn),
              std::string::npos);
    std::remove(clean.c_str());
    std::remove(dirty.c_str());
}

TEST(Service, PaperWorkloadsStreamedConcurrentlyMatchOfflineReplay)
{
    // Each of the ten paper workloads: two clients stream the same
    // multi-session trace at once, and each gets offline replay's
    // verdict and metric lines.
    for (const Workload &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        std::string path = tmpPath("paper_" + wl.name + ".trc");
        Session::builder()
            .program(prog)
            .inputs(wl.benignInputs)
            .sessions(4)
            .plan(CapturePlan(path))
            .build()
            .run();
        Session off =
            Session::builder().program(prog).plan(ReplayPlan(path))
                .build();
        off.run();

        serve::ServerConfig cfg;
        cfg.socketPath = tmpPath("paper_" + wl.name + ".sock");
        cfg.threads = 2;
        serve::Server srv(prog, cfg);
        srv.start();
        std::vector<serve::StreamResult> results(2);
        std::vector<std::thread> ts;
        for (size_t i = 0; i < results.size(); i++)
            ts.emplace_back([&, i] {
                try {
                    serve::Client c;
                    connectRetry(c, cfg.socketPath);
                    c.helloV2("tenant" + std::to_string(i),
                              replay::moduleContentHash(prog.mod));
                    c.sendTraceFile(path, 512);
                    results[i] = c.end();
                } catch (const FatalError &e) {
                    results[i].text = e.what();
                }
            });
        for (auto &t : ts)
            t.join();
        srv.waitForStreams(results.size());
        srv.stopAndJoin();

        EXPECT_EQ(srv.streamsFailed(), 0u) << wl.name;
        for (const serve::StreamResult &r : results) {
            ASSERT_TRUE(r.ok) << wl.name << ": " << r.text;
            EXPECT_EQ(r.sessions, 4u) << wl.name;
            EXPECT_EQ(r.alarmDigest, serve::alarmDigest(off.alarms()))
                << wl.name;
            EXPECT_EQ(metricLines(r.text),
                      metricLines(off.metricsText()))
                << wl.name;
        }
        std::remove(path.c_str());
    }
}

TEST(Service, DestroyWhileStreamsStillDecoding)
{
    // Regression: destroying the Server while stream actors are
    // still decoding on the pool. ~Impl must join the pool BEFORE
    // the shared state those actors touch (mtx, tenants, registry,
    // latency ring) is destroyed — member order, caught by ASan if
    // it regresses.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "dtor", 2, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    for (int round = 0; round < 8; round++) {
        serve::ServerConfig cfg;
        cfg.socketPath = tmpPath("dtor.sock");
        cfg.threads = 4;
        std::vector<std::thread> ts;
        {
            serve::Server srv(prog, cfg);
            srv.start();
            for (int i = 0; i < 4; i++)
                ts.emplace_back([&, i] {
                    try {
                        serve::Client c;
                        connectRetry(c, cfg.socketPath);
                        helloNoResume(c, "t" + std::to_string(i),
                                      prog);
                        c.sendTraceBytes(bytes.data(), bytes.size(),
                                         64);
                        c.end(); // server may stop mid-stream
                    } catch (const FatalError &) {
                        // expected for streams cut off by the stop
                    }
                });
            // As soon as ONE stream lands, tear the server down —
            // the other three are (likely) still mid-decode.
            srv.waitForStreams(1);
        }
        for (auto &t : ts)
            t.join();
    }
}

TEST(Service, InterleavedTenantsOnTheSameWireStaySeparate)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string clean = capture(prog, "il_clean", 1, false);
    std::string dirty =
        capture(prog, "il_dirty", 1, false, /*tamper=*/true);
    std::vector<uint8_t> cleanBytes = readBytes(clean);
    std::vector<uint8_t> dirtyBytes = readBytes(dirty);
    std::remove(clean.c_str());
    std::remove(dirty.c_str());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("il.sock");
    serve::Server srv(prog, cfg);
    srv.start();

    // Two connections alternate tiny sends, so the server's ingest
    // loop sees the tenants' bytes interleaved at frame granularity.
    serve::Client a, b;
    connectRetry(a, cfg.socketPath);
    connectRetry(b, cfg.socketPath);
    a.helloV2("alice", replay::moduleContentHash(prog.mod));
    b.helloV2("bob", replay::moduleContentHash(prog.mod));
    size_t offA = 0, offB = 0;
    const size_t step = 48;
    while (offA < cleanBytes.size() || offB < dirtyBytes.size()) {
        if (offA < cleanBytes.size()) {
            size_t n = std::min(step, cleanBytes.size() - offA);
            a.sendTraceBytes(cleanBytes.data() + offA, n, n);
            offA += n;
        }
        if (offB < dirtyBytes.size()) {
            size_t n = std::min(step, dirtyBytes.size() - offB);
            b.sendTraceBytes(dirtyBytes.data() + offB, n, n);
            offB += n;
        }
    }
    serve::StreamResult ra = a.end();
    serve::StreamResult rb = b.end();
    srv.stopAndJoin();

    ASSERT_TRUE(ra.ok) << ra.text;
    ASSERT_TRUE(rb.ok) << rb.text;
    EXPECT_EQ(ra.alarms, 0u);
    EXPECT_GT(rb.alarms, 0u);
}

TEST(Service, EveryGoldenMutantGetsOfflineReplaysVerdict)
{
    // Every truncation, single-bit flip and repeated tail of the v2
    // golden trace, served and replayed offline: both accept or both
    // reject, and where both accept their metric lines match. The
    // frame size varies, so every structure is cut at many points.
    // Offline, the mutant also replays on two threads (same verdict,
    // same metric lines) and from seekSession(0) (same verdict): all
    // three load through one scan of the chunk headers.
    const std::vector<uint8_t> golden =
        readBytes(std::string(IPDS_TEST_DATA_DIR) + "/golden_v2.trc");
    ASSERT_GT(golden.size(), replay::kIndexTrailerBytes);
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    const size_t indexTail = golden.size() -
        replay::getU64(golden.data() + golden.size() - 8);

    // Each mutant streams as tenant "cut", "flip" or "repeat".
    struct Mutant
    {
        std::string tenant, what;
        std::vector<uint8_t> bytes;
    };
    std::vector<Mutant> mutants;
    for (size_t n = 0; n < golden.size(); n++)
        mutants.push_back(
            {"cut", "cut to " + std::to_string(n) + " bytes",
             std::vector<uint8_t>(golden.begin(), golden.begin() + n)});
    for (size_t bit = 0; bit < 8 * golden.size(); bit++) {
        std::vector<uint8_t> m = golden;
        m[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        mutants.push_back(
            {"flip", "bit " + std::to_string(bit) + " flipped", m});
    }
    for (size_t k = 1; k <= indexTail; k++) {
        std::vector<uint8_t> m = golden;
        m.insert(m.end(), golden.end() - k, golden.end());
        mutants.push_back(
            {"repeat", "last " + std::to_string(k) + " bytes repeated",
             m});
    }

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("mutants.sock");
    serve::Server srv(prog, cfg);
    srv.start();
    const std::string path = tmpPath("mutant.trc");
    const size_t frameBytes[] = {0, 1, 5, 16, 17, 64};
    // The offline verdict on the mutant file, and its metric lines
    // when it accepts.
    auto replayOffline = [&](unsigned threads, const ReplayPlan &plan,
                             std::string &lines) {
        try {
            Session off = Session::builder()
                              .program(prog)
                              .threads(threads)
                              .plan(plan)
                              .build();
            off.run();
            lines = metricLines(off.metricsText());
            return true;
        } catch (const FatalError &) {
            return false;
        }
    };
    size_t disagree = 0, accepted = 0, rejectedCuts = 0;
    for (size_t i = 0; i < mutants.size(); i++) {
        const std::vector<uint8_t> &m = mutants[i].bytes;
        writeBytes(path, m);
        std::string offLines, twoLines, seekLines;
        const bool offOk = replayOffline(1, ReplayPlan(path), offLines);
        const bool twoOk = replayOffline(2, ReplayPlan(path), twoLines);
        const bool seekOk =
            replayOffline(1, ReplayPlan(path).seekSession(0), seekLines);
        if (twoOk != offOk || twoLines != offLines) {
            disagree++;
            ADD_FAILURE() << mutants[i].what << ": one thread "
                          << (offOk ? "accepts" : "rejects")
                          << ", two threads "
                          << (twoOk ? "accept:\n" : "reject:\n")
                          << twoLines;
        }
        if (seekOk != offOk) {
            disagree++;
            ADD_FAILURE() << mutants[i].what << ": offline "
                          << (offOk ? "accepts" : "rejects")
                          << ", seekSession(0) "
                          << (seekOk ? "accepts" : "rejects");
        }

        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2(mutants[i].tenant,
                  replay::moduleContentHash(prog.mod), i + 1);
        c.sendTraceBytes(m.data(), m.size(), frameBytes[i % 6]);
        serve::StreamResult r = c.end();
        accepted += r.ok && offOk;
        rejectedCuts += !r.ok && mutants[i].tenant == "cut";
        if (r.ok != offOk || (r.ok && metricLines(r.text) != offLines)) {
            disagree++;
            ADD_FAILURE() << mutants[i].what << ": offline "
                          << (offOk ? "accepts" : "rejects")
                          << ", served:\n" << r.text;
        }
    }
    srv.stopAndJoin();
    std::remove(path.c_str());
    EXPECT_EQ(disagree, 0u) << "of " << mutants.size() << " mutants";
    // Index-tail defects are advisory, so some mutants must replay.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, mutants.size());
    // Every rejected cut is one truncation; each of the 32 flips of
    // the header's version word is a version mismatch; a repeated
    // tail is none of the three.
    EXPECT_GT(rejectedCuts, 0u);
    EXPECT_EQ(failureCounts(srv, "cut"),
              (std::vector<uint64_t>{0, rejectedCuts, 0}));
    const std::vector<uint64_t> flips = failureCounts(srv, "flip");
    ASSERT_EQ(flips.size(), 3u);
    EXPECT_GT(flips[0], 0u);
    EXPECT_EQ(flips[2], 32u);
    EXPECT_EQ(failureCounts(srv, "repeat"),
              (std::vector<uint64_t>{0, 0, 0}));
}

// ------------------------------------------------- failure taxonomy

TEST(Service, PartialFrameAtDropFailsTheStreamAsTruncation)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "drop", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("drop.sock");
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    connectRetry(c, cfg.socketPath);
    helloNoResume(c, "t", prog);
    // A full TraceData frame, then HALF of another: drop mid-frame.
    std::vector<uint8_t> wireBytes;
    serve::wire::appendFrame(wireBytes,
                             serve::wire::FrameType::TraceData,
                             bytes.data(), bytes.size() / 2);
    std::vector<uint8_t> second = serve::wire::encodeFrame(
        serve::wire::FrameType::TraceData,
        bytes.data() + bytes.size() / 2,
        bytes.size() - bytes.size() / 2);
    wireBytes.insert(wireBytes.end(), second.begin(),
                     second.begin() +
                         static_cast<long>(second.size() / 2));
    c.sendRaw(wireBytes);
    c.close();

    srv.waitForStreams(1);
    srv.stopAndJoin();
    EXPECT_EQ(srv.streamsCompleted(), 0u);
    EXPECT_EQ(srv.streamsFailed(), 1u);
    EXPECT_NE(srv.statszText().find("ipds.serve.streams_failed"),
              std::string::npos);
    EXPECT_EQ(failureCounts(srv, "t"),
              (std::vector<uint64_t>{0, 1, 0}));
}

TEST(Service, OversizedFrameIsRejectedBeforeBuffering)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("big.sock");
    cfg.maxFrameBytes = 1024;
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    std::vector<uint8_t> big(4096, 0xab);
    c.sendRaw(serve::wire::encodeFrame(
        serve::wire::FrameType::TraceData, big.data(), big.size()));
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_EQ(srv.streamsFailed(), 1u);
    EXPECT_EQ(statszCounter(srv.statszText(),
                            obs::names::kServeOversizedFrames),
              1u);
}

TEST(Service, FrameCrcMismatchRejectsTheStream)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "fcrc", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("fcrc.sock");
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    std::vector<uint8_t> frame = serve::wire::encodeFrame(
        serve::wire::FrameType::TraceData, bytes.data(), bytes.size());
    frame[serve::wire::kFrameHeaderBytes + 20] ^= 0x04;
    c.sendRaw(frame);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.text.find("CRC"), std::string::npos) << r.text;
    EXPECT_EQ(srv.streamsFailed(), 1u);
}

TEST(Service, ChunkCrcMismatchInsideValidFramesRejectsTheStream)
{
    // The frame CRC is clean — the corruption is in the carried trace
    // chunk, caught by the SAME check offline replay applies.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "ccrc", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());
    // One more input: a header of a later format version (read before
    // the header CRC, so it is a version mismatch, not corruption).
    std::vector<uint8_t> skewed = bytes;
    replay::putU32(skewed.data() + 8, replay::kTraceVersion + 1);
    // Payload byte of the last data chunk (the trailer's last 8 bytes
    // locate the index footer — corrupting past it would only degrade
    // the advisory index, not reject the stream).
    bytes[static_cast<size_t>(
              replay::getU64(bytes.data() + bytes.size() - 8)) -
          5] ^= 0x10;

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("ccrc.sock");
    serve::Server srv(prog, cfg);
    srv.start();
    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    c.sendTraceBytes(bytes.data(), bytes.size());
    serve::StreamResult r = c.end();
    serve::Client cs;
    connectRetry(cs, cfg.socketPath);
    cs.helloV2("skew", replay::moduleContentHash(prog.mod));
    cs.sendTraceBytes(skewed.data(), skewed.size());
    serve::StreamResult rs = cs.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.text.find("CRC"), std::string::npos) << r.text;
    EXPECT_FALSE(rs.ok);
    EXPECT_EQ(rs.errorCode, "trace") << rs.text;
    EXPECT_NE(rs.text.find("format version"), std::string::npos)
        << rs.text;
    // Each counted in its tenant's replay meters: {crc_failures,
    // truncated_chunks, version_mismatches}.
    EXPECT_EQ(failureCounts(srv, "t"),
              (std::vector<uint64_t>{1, 0, 0}));
    EXPECT_EQ(failureCounts(srv, "skew"),
              (std::vector<uint64_t>{0, 0, 1}));
}

TEST(Service, TruncatedTraceAtCleanFrameBoundaryIsTruncation)
{
    // All frames arrive intact and the client closes cleanly — but
    // the trace inside ends mid-chunk. TruncatedChunk, not CRC.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "tr", 1, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());
    // Cut into the last data chunk, not the advisory index tail.
    bytes.resize(static_cast<size_t>(
                     replay::getU64(bytes.data() + bytes.size() - 8)) -
                 5);

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("tr.sock");
    serve::Server srv(prog, cfg);
    srv.start();
    serve::Client c;
    connectRetry(c, cfg.socketPath);
    helloNoResume(c, "t", prog);
    c.sendTraceBytes(bytes.data(), bytes.size());
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.text.find("truncated"), std::string::npos) << r.text;
    EXPECT_EQ(r.text.find("CRC"), std::string::npos) << r.text;
    EXPECT_EQ(failureCounts(srv, "t"),
              (std::vector<uint64_t>{0, 1, 0}));
}

TEST(Service, ForeignModuleTraceIsRejected)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    const char *other =
        "void main() { if (input_int() == 1) { print_str(\"y\\n\"); } }";
    CompiledProgram otherProg = compileAndAnalyze(other, "other");
    std::string path = tmpPath("foreign.trc");
    Session::builder()
        .program(otherProg)
        .inputs({"1"})
        .plan(CapturePlan(path))
        .build()
        .run();

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("foreign.sock");
    serve::Server srv(prog, cfg);
    srv.start();
    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    c.sendTraceFile(path);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.text.find("different program"), std::string::npos)
        << r.text;
    std::remove(path.c_str());
}

TEST(Service, SlowClientIsPausedCountedAndNeverDeadlocked)
{
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "slow", 40, false);
    std::vector<uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("slow.sock");
    cfg.pendingChunkCap = 1; // admission control at its tightest
    cfg.threads = 1;         // and a single worker, worst case
    serve::Server srv(prog, cfg);
    srv.start();

    serve::Client c;
    connectRetry(c, cfg.socketPath);
    c.helloV2("t", replay::moduleContentHash(prog.mod));
    c.sendTraceBytes(bytes.data(), bytes.size(), 64);
    serve::StreamResult r = c.end();
    srv.stopAndJoin();

    // The stream completes — backpressure pauses the socket, it never
    // wedges the server — and the stall accounting shows it happened.
    ASSERT_TRUE(r.ok) << r.text;
    EXPECT_EQ(r.sessions, 40u);
    std::string statsz = srv.statszText();
    uint64_t stalls =
        statszCounter(statsz, obs::names::kServeBackpressureStalls);
    uint64_t resumes = statszCounter(statsz, obs::names::kServeResumes);
    EXPECT_GT(stalls, 0u) << statsz;
    EXPECT_EQ(stalls, resumes) << statsz;
}

TEST(Service, RetiredHelloTypeIsATransportErrorAndIsolated)
{
    // Frame type 1 was the v1 Hello. It is retired, not reused: the
    // decoder rejects it as a bad frame, the client gets a typed
    // transport Error, and another tenant's concurrent stream still
    // lands bit-identically to offline replay.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string dirty =
        capture(prog, "retired", 2, false, /*tamper=*/true);
    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(dirty))
                      .build();
    off.run();
    ASSERT_TRUE(off.alarmed());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("retired.sock");
    cfg.threads = 2;
    serve::Server srv(prog, cfg);
    srv.start();

    serve::StreamResult good;
    std::thread alice([&] {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2("alice", replay::moduleContentHash(prog.mod));
        c.sendTraceFile(dirty, 64);
        good = c.end();
    });
    serve::StreamResult bad;
    try {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.sendRaw(serve::wire::encodeTextFrame(
            static_cast<serve::wire::FrameType>(1), "mallory"));
        bad = c.end();
    } catch (...) {
        alice.join();
        throw;
    }
    alice.join();
    srv.stopAndJoin();

    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, "transport") << bad.text;
    EXPECT_EQ(statszCounter(srv.statszText(),
                            obs::names::kServeBadFrames),
              1u);
    ASSERT_TRUE(good.ok) << good.text;
    EXPECT_EQ(good.alarmDigest, serve::alarmDigest(off.alarms()));
    // The rejected connection never opened a stream or a tenant.
    EXPECT_EQ(srv.streamsCompleted(), 1u);
    EXPECT_EQ(srv.streamsFailed(), 0u);
    auto snap = srv.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "alice");
    std::remove(dirty.c_str());
}

TEST(Service, ImpossibleTimingHeaderIsATraceErrorAndIsolated)
{
    // commitWidth 0 in a timing header's block (outside the header
    // CRC) once killed the whole server with SIGFPE. It must fail only
    // its own stream, with a typed trace error, while another tenant's
    // concurrent stream lands bit-identically to offline replay.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string timing = capture(prog, "imp_timing", 2, /*timing=*/true);
    std::vector<uint8_t> bytes = readBytes(timing);
    std::remove(timing.c_str());
    uint8_t *block = bytes.data() + replay::kHeaderBytes;
    uint32_t words[replay::kTimingConfigWords];
    for (uint32_t i = 0; i < replay::kTimingConfigWords; ++i)
        words[i] = replay::getU32(block + 4 * i);
    TimingConfig tc = replay::unpackTimingConfig(words);
    tc.commitWidth = 0;
    replay::packTimingConfig(tc, words);
    for (uint32_t i = 0; i < replay::kTimingConfigWords; ++i)
        replay::putU32(block + 4 * i, words[i]);

    std::string dirty =
        capture(prog, "imp_dirty", 2, false, /*tamper=*/true);
    Session off = Session::builder()
                      .program(prog)
                      .plan(ReplayPlan(dirty))
                      .build();
    off.run();
    ASSERT_TRUE(off.alarmed());

    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("imp.sock");
    cfg.threads = 2;
    serve::Server srv(prog, cfg);
    srv.start();

    serve::StreamResult good;
    std::thread alice([&] {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2("alice", replay::moduleContentHash(prog.mod));
        c.sendTraceFile(dirty, 64);
        good = c.end();
    });
    serve::StreamResult bad;
    try {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        helloNoResume(c, "mallory", prog);
        c.sendTraceBytes(bytes.data(), bytes.size());
        bad = c.end();
    } catch (...) {
        alice.join();
        throw;
    }
    alice.join();
    srv.stopAndJoin();

    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, "trace") << bad.text;
    EXPECT_NE(bad.text.find("commitWidth"), std::string::npos)
        << bad.text;
    ASSERT_TRUE(good.ok) << good.text;
    EXPECT_EQ(good.alarmDigest, serve::alarmDigest(off.alarms()));
    EXPECT_EQ(srv.streamsCompleted(), 1u);
    EXPECT_EQ(srv.streamsFailed(), 1u);
    std::remove(dirty.c_str());
}

// ------------------------------------------------- shutdown

TEST(Service, RequestStopUnblocksAnOpenEndedWait)
{
    // ipds_serve's signal handler stops the server from another
    // thread while main() waits on an open-ended stream count.
    CompiledProgram prog = compileAndAnalyze(kLoopProgram, "svc_loop");
    std::string path = capture(prog, "stop", 1, false);
    serve::ServerConfig cfg;
    cfg.socketPath = tmpPath("stop.sock");
    serve::Server srv(prog, cfg);
    srv.start();

    std::atomic<bool> returned{false};
    std::thread waiter([&] {
        srv.waitForStreams(UINT64_MAX);
        returned = true;
    });
    try {
        serve::Client c;
        connectRetry(c, cfg.socketPath);
        c.helloV2("t", replay::moduleContentHash(prog.mod));
        c.sendTraceFile(path);
        serve::StreamResult r = c.end();
        EXPECT_TRUE(r.ok) << r.text;
    } catch (...) {
        srv.requestStop();
        waiter.join();
        throw;
    }
    EXPECT_FALSE(returned.load()); // one stream does not satisfy it

    srv.requestStop();
    waiter.join();
    EXPECT_TRUE(returned.load());
    srv.stopAndJoin();
    EXPECT_EQ(srv.streamsCompleted(), 1u);
    std::remove(path.c_str());
}
