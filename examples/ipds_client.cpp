/**
 * @file
 * ipds_client — stream a recorded IPDS trace to a running ipds_serve
 * and print the server's detection report.
 *
 * The trace file (recorded with `run_protected --record` or a
 * CapturePlan) is framed and sent as one stream; the server detects
 * at ingest and answers with the stream report: sessions, alarms and
 * the alarm digest, plus the replay-shaped metric lines — diffable
 * against `run_protected --replay` of the same file. With --statsz
 * the server's current /statsz page is fetched instead of (or after)
 * streaming.
 *
 * The stream opens with the Hello2 handshake: the module hash is read
 * from the trace file header (or computed from a --module source),
 * routing the stream to the matching program on a multi-program
 * server, and reconnect/resume is armed — a dropped connection
 * redials and resumes from the server's last ack instead of failing.
 *
 * Exit code: 0 clean stream, 2 the server raised alarms, 1 on
 * usage/transport error or a server-side reject.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/program.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "serve/client.h"
#include "support/cli.h"
#include "support/diag.h"
#include "workloads/workloads.h"

using namespace ipds;

int
main(int argc, char **argv)
{
    cli::ArgParser args("ipds_client",
                        "Stream a recorded trace to ipds_serve");
    std::string trace;
    std::string socketPath = "/tmp/ipds.sock";
    std::string tcpSpec;
    std::string tenant = "default";
    std::string moduleSrc;
    size_t frameBytes = 0;
    bool statszOnly = false;
    bool wantStatsz = false;
    args.positional("trace", &trace,
                    "IPDS trace file to stream ('-' with --statsz-only"
                    " to skip streaming)");
    args.strOpt("socket", &socketPath, "ipds_serve socket path");
    args.strOpt("tcp", &tcpSpec,
                "connect to HOST:PORT instead of the unix socket");
    args.strOpt("tenant", &tenant,
                "tenant name this stream accounts under");
    args.strOpt("module", &moduleSrc,
                "route by this workload/source's content hash "
                "instead of the trace header's");
    args.sizeOpt("frame-bytes", &frameBytes,
                 "transport frame payload size (0 = 64KiB)");
    args.boolOpt("statsz", &wantStatsz,
                 "also fetch the server /statsz page after the "
                 "stream");
    args.boolOpt("statsz-only", &statszOnly,
                 "only fetch /statsz, do not stream");
    if (!args.parse(argc, argv))
        return args.exitCode();

    try {
        serve::Client cl;
        if (!tcpSpec.empty()) {
            size_t colon = tcpSpec.rfind(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "--tcp wants HOST:PORT, got %s\n",
                             tcpSpec.c_str());
                return 1;
            }
            cl.connectTcp(tcpSpec.substr(0, colon),
                          static_cast<uint16_t>(std::stoul(
                              tcpSpec.substr(colon + 1))));
        } else {
            cl.connect(socketPath);
        }
        if (statszOnly) {
            std::fputs(cl.statsz().c_str(), stdout);
            return 0;
        }

        uint64_t hash = 0;
        if (!moduleSrc.empty()) {
            std::string source;
            bool found = false;
            for (const auto &wl : allWorkloads()) {
                if (wl.name == moduleSrc) {
                    source = wl.source;
                    found = true;
                }
            }
            if (!found) {
                std::ifstream in(moduleSrc);
                if (!in) {
                    std::fprintf(stderr, "cannot open %s\n",
                                 moduleSrc.c_str());
                    return 1;
                }
                std::ostringstream ss;
                ss << in.rdbuf();
                source = ss.str();
            }
            CompiledProgram prog =
                compileAndAnalyze(source, moduleSrc);
            hash = replay::moduleContentHash(prog.mod);
        } else {
            // The trace header records which program produced
            // it; the server routes the stream to that module.
            hash = replay::readTraceHeader(trace).moduleHash;
        }
        cl.helloV2(tenant, hash);
        cl.sendTraceFile(trace, frameBytes);
        serve::StreamResult r = cl.end();
        std::fputs(r.text.c_str(), stdout);
        if (cl.reconnects())
            std::fprintf(stderr,
                         "[ipds_client] resumed over %llu "
                         "reconnect(s)\n",
                         static_cast<unsigned long long>(
                             cl.reconnects()));
        if (!r.ok) {
            std::fprintf(stderr, "[ipds_client] stream rejected%s%s\n",
                         r.errorCode.empty() ? "" : ": ",
                         r.errorCode.c_str());
            return 1;
        }
        if (wantStatsz)
            std::fputs(cl.statsz().c_str(), stdout);
        if (r.alarms) {
            std::fprintf(stderr,
                         "[ipds_client] *** %llu INFEASIBLE-PATH "
                         "alarm(s) raised at ingest ***\n",
                         static_cast<unsigned long long>(r.alarms));
            return 2;
        }
        std::fprintf(stderr,
                     "[ipds_client] clean stream (%llu sessions)\n",
                     static_cast<unsigned long long>(r.sessions));
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
