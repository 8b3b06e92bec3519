/**
 * @file
 * ipds_serve — the multi-tenant detection service daemon.
 *
 * Compiles the protected program once, binds a unix stream socket
 * and/or a TCP listener, and detects recorded trace streams from any
 * number of concurrent ipds_client connections AT INGEST (DESIGN.md
 * §11). Detection is bit-identical to offline replay of the same
 * traces; per-tenant aggregates are served on the socket as a
 * /statsz-style text page (`ipds_client --statsz`) and printed on
 * shutdown.
 *
 * One server can protect several programs at once: --module adds
 * extra programs to the registry, and each client's Hello2 routes
 * its stream to the module whose content hash it names.
 *
 * Runs until SIGINT/SIGTERM, or until --streams N streams finished.
 *
 * Exit code: 0 on clean shutdown, 1 on usage/compile/bind error.
 */

#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "core/program.h"
#include "replay/format.h"
#include "serve/server.h"
#include "support/cli.h"
#include "support/diag.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

// The signal handler can only touch async-signal-safe state;
// requestStop() is a self-pipe write, which qualifies.
serve::Server *gServer = nullptr;

void
onSignal(int)
{
    if (gServer)
        gServer->requestStop();
}

// Bundled workload name, or a MiniC source file path.
std::string
loadSource(const std::string &target, bool &ok)
{
    for (const auto &wl : allWorkloads()) {
        if (wl.name == target) {
            ok = true;
            return wl.source;
        }
    }
    std::ifstream in(target);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", target.c_str());
        ok = false;
        return "";
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    ok = true;
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ArgParser args("ipds_serve",
                        "Multi-tenant IPDS detection service");
    std::string target;
    std::string socketPath = "/tmp/ipds.sock";
    std::string tcpSpec;
    std::string modules;
    unsigned threads = 0;
    uint64_t streams = 0;
    size_t maxFrame = 0;
    size_t pendingCap = 0;
    bool quiet = false;
    args.positional("prog", &target,
                    "MiniC source file or bundled workload name");
    args.strOpt("socket", &socketPath,
                "unix socket path to serve on ('' = no unix "
                "listener)");
    args.strOpt("tcp", &tcpSpec,
                "also listen on HOST:PORT (IPv4; port 0 = "
                "ephemeral)");
    args.strOpt("module", &modules,
                "extra programs to register, comma-separated "
                "workload names or source files");
    args.u64Opt("streams", &streams,
                "exit after this many streams (0 = until signal)");
    args.sizeOpt("max-frame-bytes", &maxFrame,
                 "reject larger frames (0 = wire default)");
    args.sizeOpt("pending-cap", &pendingCap,
                 "per-stream chunks in flight before backpressure");
    args.boolOpt("quiet", &quiet, "do not print /statsz on exit");
    args.threadsOpt(&threads);
    if (!args.parse(argc, argv))
        return args.exitCode();

    bool ok = false;
    std::string source = loadSource(target, ok);
    if (!ok)
        return 1;

    try {
        // deque: registerModule() keeps pointers, so addresses must
        // stay stable while extra programs are appended.
        std::deque<CompiledProgram> progs;
        progs.push_back(compileAndAnalyze(source, target));
        std::stringstream mods(modules);
        std::string one;
        while (std::getline(mods, one, ',')) {
            if (one.empty())
                continue;
            std::string extra = loadSource(one, ok);
            if (!ok)
                return 1;
            progs.push_back(compileAndAnalyze(extra, one));
        }

        serve::ServerConfig cfg;
        cfg.socketPath = socketPath;
        if (!tcpSpec.empty()) {
            size_t colon = tcpSpec.rfind(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "--tcp wants HOST:PORT, got %s\n",
                             tcpSpec.c_str());
                return 1;
            }
            cfg.tcpHost = tcpSpec.substr(0, colon);
            cfg.tcpPort = static_cast<uint16_t>(
                std::stoul(tcpSpec.substr(colon + 1)));
        }
        cfg.threads = threads;
        if (maxFrame)
            cfg.maxFrameBytes = maxFrame;
        if (pendingCap)
            cfg.pendingChunkCap = pendingCap;

        serve::Server srv(cfg);
        for (const CompiledProgram &p : progs)
            srv.registerModule(p);
        gServer = &srv;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);

        srv.start();
        for (const CompiledProgram &p : progs)
            std::fprintf(stderr,
                         "[ipds_serve] module %016llx: %s\n",
                         static_cast<unsigned long long>(
                             replay::moduleContentHash(p.mod)),
                         p.mod.name.c_str());
        if (!socketPath.empty())
            std::fprintf(stderr, "[ipds_serve] listening on %s\n",
                         socketPath.c_str());
        if (!cfg.tcpHost.empty())
            std::fprintf(stderr,
                         "[ipds_serve] listening on %s:%u (tcp)\n",
                         cfg.tcpHost.c_str(), srv.boundTcpPort());
        srv.waitForStreams(streams ? streams : UINT64_MAX);
        srv.stopAndJoin();
        gServer = nullptr;

        if (!quiet)
            std::fputs(srv.statszText().c_str(), stdout);
        std::fprintf(stderr,
                     "[ipds_serve] done: %llu streams completed, "
                     "%llu failed\n",
                     static_cast<unsigned long long>(
                         srv.streamsCompleted()),
                     static_cast<unsigned long long>(
                         srv.streamsFailed()));
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
