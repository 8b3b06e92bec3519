/**
 * @file
 * Detection-service ablation: ingest throughput and latency for the
 * multi-tenant server (src/serve/) fed by concurrent clients.
 *
 * Each workload records a multi-session trace once through a
 * CapturePlan, replays it offline for the baseline verdict, then
 * stands up one in-process serve::Server and, per trial, streams the
 * same bytes from N concurrent client threads (one tenant each).
 * The timed window runs from the first trial's connects to the last
 * trial's Result frames, i.e. the full transport + ingest-detection
 * path of every trial back to back. Before anything is reported,
 * every client's alarm digest is checked against the offline replay
 * ("equivalent" in the JSON): throughput is only claimed over
 * streams whose verdicts are bit-identical to Session::ReplayPlan of
 * the same trace.
 *
 * Reported per workload:
 *   ingest_eps      detection events/second across all streams of
 *                   all trials, over the whole window
 *   p50/p99_ingest  per-segment ingest latency (enqueue -> detected),
 *                   microseconds, from the server's own
 *                   ipds.serve.ingest_latency_us_hist: each is
 *                   the upper bound (2^b - 1) of the power-of-two
 *                   bucket holding that quantile, not a sample
 *
 * Every client opens its stream with the Hello2 handshake. With
 * --tcp the transport is a loopback TCP listener (ephemeral port);
 * each workload then also runs a RECONNECT STORM — one stream killed and resumed
 * between every slice of the trace — reporting storm_eps and the
 * reconnect count. The storm verdict is digest-checked against
 * offline replay like every other stream: resume is only benched
 * where it is bit-identical.
 *
 * Emits machine-readable JSON, default BENCH_service.json.
 *
 * Usage: abl_service [--sessions N] [--clients N] [--trials N]
 *                    [--quick] [--tcp] [--threads N] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/program.h"
#include "obs/session.h"
#include "replay/format.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/cli.h"
#include "support/diag.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot read '%s'", path.c_str());
    std::vector<uint8_t> out;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

struct Row
{
    std::string name;
    uint64_t events = 0; ///< detection events per stream
    double eps = 0;      ///< aggregate events/sec across streams
    uint64_t p50us = 0, p99us = 0;
    double stormEps = 0;         ///< --tcp: eps through the storm
    uint64_t stormReconnects = 0; ///< --tcp: resumes in the storm
};

} // namespace

int
main(int argc, char **argv)
{
    cli::ArgParser args("abl_service",
                        "Service ingest throughput and latency vs "
                        "offline replay");
    uint32_t sessions = 64;
    uint32_t clients = 4;
    uint32_t trials = 3;
    bool quick = false;
    bool tcp = false;
    unsigned threads = 0;
    std::string jsonPath = "BENCH_service.json";
    args.uintOpt("sessions", &sessions,
                 "recorded sessions per workload trace");
    args.uintOpt("clients", &clients,
                 "concurrent client streams per trial");
    args.uintOpt("trials", &trials,
                 "back-to-back trials in one timed window");
    args.boolOpt("quick", &quick,
                 "smoke footprint (4 sessions, 1 trial)");
    args.boolOpt("tcp", &tcp,
                 "loopback TCP transport + reconnect-storm runs");
    args.threadsOpt(&threads);
    args.jsonOpt(&jsonPath);
    if (!args.parse(argc, argv))
        return args.exitCode();
    if (quick) {
        sessions = 4;
        trials = 1;
    }
    if (sessions == 0)
        sessions = 1;
    if (clients == 0)
        clients = 1;
    if (trials == 0)
        trials = 1;

    setQuiet(true);
    std::printf("=== Service ablation: concurrent ingest-time "
                "detection vs offline replay ===\n");
    std::printf("(%u-session trace per workload, %u concurrent "
                "streams, %u trials in one window, %s "
                "transport)\n\n",
                sessions, clients, trials,
                tcp ? "loopback TCP" : "unix-socket");
    if (tcp)
        std::printf("%-10s %9s %7s %14s %10s %10s %14s %6s\n",
                    "benchmark", "events", "streams", "ingest-e/s",
                    "p50-us", "p99-us", "storm-e/s", "drops");
    else
        std::printf("%-10s %9s %7s %14s %10s %10s\n", "benchmark",
                    "events", "streams", "ingest-e/s", "p50-us",
                    "p99-us");

    std::vector<Row> rows;
    bool mismatch = false;
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

        // Per transport: the unix and --tcp runs may share a
        // directory and run at once.
        std::string tracePath = std::string("abl_service_") +
                                (tcp ? "tcp_" : "") + wl.name + ".trc";
        Session live = Session::builder()
                           .program(prog)
                           .inputs(wl.benignInputs)
                           .sessions(sessions)
                           .plan(CapturePlan(tracePath))
                           .build();
        live.run();
        Session off = Session::builder()
                          .program(prog)
                          .plan(ReplayPlan(tracePath))
                          .build();
        off.run();
        const uint64_t wantDigest = serve::alarmDigest(off.alarms());
        const uint64_t events = off.detectorStats().branchesSeen;
        std::vector<uint8_t> trace = readBytes(tracePath);
        std::remove(tracePath.c_str());

        const uint64_t modHash = replay::moduleContentHash(prog.mod);
        std::string sock = "abl_service_" + wl.name + ".sock";
        serve::ServerConfig cfg;
        if (tcp) {
            cfg.tcpHost = "127.0.0.1";
            cfg.tcpPort = 0; // ephemeral
        } else {
            cfg.socketPath = sock;
        }
        cfg.threads = threads;
        serve::Server srv(prog, cfg);
        srv.start();
        const uint16_t port = tcp ? srv.boundTcpPort() : 0;

        auto t0 = std::chrono::steady_clock::now();
        std::vector<uint8_t> bad(clients, 0);
        for (uint32_t trial = 0; trial < trials; trial++) {
            std::vector<std::thread> ts;
            for (uint32_t i = 0; i < clients; i++) {
                ts.emplace_back([&, i] {
                    try {
                        serve::Client c;
                        if (tcp)
                            c.connectTcp("127.0.0.1", port);
                        else
                            c.connect(sock);
                        c.helloV2("tenant" + std::to_string(i),
                                  modHash);
                        c.sendTraceBytes(trace.data(), trace.size(),
                                         0);
                        serve::StreamResult r = c.end();
                        if (!r.ok || r.alarmDigest != wantDigest)
                            bad[i] = 1;
                    } catch (const FatalError &) {
                        bad[i] = 1;
                    }
                });
            }
            for (auto &t : ts)
                t.join();
        }
        const double window = seconds(t0);

        srv.waitForStreams(uint64_t(clients) * trials);
        srv.stopAndJoin();
        for (uint8_t b : bad)
            if (b)
                mismatch = true;
        if (srv.streamsFailed() != 0)
            mismatch = true;

        Row row;
        row.name = wl.name;
        row.events = events;
        row.eps = window > 0 ? double(events) * double(clients) *
                                   double(trials) / window
                             : 0;
        row.p50us = srv.ingestLatencyQuantileMicros(0.50);
        row.p99us = srv.ingestLatencyQuantileMicros(0.99);

        if (tcp) {
            // Reconnect storm: the same trace through one stream
            // killed between every slice — the cost of resume
            // (redial, re-feed, server-side dedup) under fire.
            serve::Server storm(prog, cfg);
            storm.start();
            t0 = std::chrono::steady_clock::now();
            try {
                serve::Client c;
                c.connectTcp("127.0.0.1", storm.boundTcpPort());
                c.helloV2("storm", modHash);
                const size_t slice = trace.size() / 16 + 1;
                for (size_t off = 0; off < trace.size();
                     off += slice) {
                    c.sendTraceBytes(trace.data() + off,
                                     std::min(slice,
                                              trace.size() - off),
                                     0);
                    c.abortConnection();
                }
                serve::StreamResult r = c.end();
                if (!r.ok || r.alarmDigest != wantDigest)
                    mismatch = true;
                row.stormReconnects = c.reconnects();
            } catch (const FatalError &) {
                mismatch = true;
            }
            double elapsed = seconds(t0);
            storm.stopAndJoin();
            if (storm.streamsFailed() != 0)
                mismatch = true;
            row.stormEps =
                elapsed > 0 ? double(events) / elapsed : 0;
        }

        if (tcp)
            std::printf(
                "%-10s %9llu %7u %14.0f %10llu %10llu %14.0f %6llu\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.events), clients,
                row.eps, static_cast<unsigned long long>(row.p50us),
                static_cast<unsigned long long>(row.p99us),
                row.stormEps,
                static_cast<unsigned long long>(row.stormReconnects));
        else
            std::printf("%-10s %9llu %7u %14.0f %10llu %10llu\n",
                        row.name.c_str(),
                        static_cast<unsigned long long>(row.events),
                        clients, row.eps,
                        static_cast<unsigned long long>(row.p50us),
                        static_cast<unsigned long long>(row.p99us));
        rows.push_back(std::move(row));
    }

    if (mismatch)
        std::fprintf(stderr, "MISMATCH: at least one stream verdict "
                             "diverged from offline replay\n");

    FILE *js = std::fopen(jsonPath.c_str(), "w");
    if (!js) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(js,
                 "{\n  \"bench\": \"abl_service\",\n"
                 "  \"sessions\": %u,\n  \"clients\": %u,\n"
                 "  \"transport\": \"%s\",\n"
                 "  \"workloads\": [\n",
                 sessions, clients, tcp ? "tcp" : "unix");
    for (size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::fprintf(
            js,
            "    {\"name\": \"%s\", \"events\": %llu, "
            "\"ingest_eps\": %.0f, \"p50_ingest_us\": %llu, "
            "\"p99_ingest_us\": %llu",
            r.name.c_str(),
            static_cast<unsigned long long>(r.events), r.eps,
            static_cast<unsigned long long>(r.p50us),
            static_cast<unsigned long long>(r.p99us));
        if (tcp)
            std::fprintf(
                js,
                ", \"storm_eps\": %.0f, \"storm_reconnects\": %llu",
                r.stormEps,
                static_cast<unsigned long long>(r.stormReconnects));
        std::fprintf(js, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(js, "  ],\n  \"equivalent\": %s\n}\n",
                 mismatch ? "false" : "true");
    bool writeFailed = std::ferror(js) != 0;
    writeFailed |= std::fclose(js) != 0;
    if (writeFailed) {
        std::fprintf(stderr, "write to %s failed\n",
                     jsonPath.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", jsonPath.c_str());
    return mismatch ? 1 : 0;
}
