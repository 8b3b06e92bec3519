/**
 * @file
 * CLI driver: compile a MiniC program, attach IPDS, and run it — the
 * workflow a downstream user of this library automates. The run is
 * assembled through the ipds::Session facade and its typed plans:
 * `--attack`/`--fault-seed` configure an ExecPlan, `--record` wraps
 * it in a CapturePlan (`--sessions` repeats the session stream into
 * a multi-session trace), `--replay` swaps in a ReplayPlan
 * (`--threads` spreads it over workers; `--seek-session` and
 * `--seek-chunk` select its seek modes). --stats prints the session's
 * metrics export (the same JSON the benches publish); --json writes
 * it to a file.
 *
 * Exit code: 0 clean run, 2 IPDS alarm, 1 usage/compile error.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/image.h"
#include "core/program.h"
#include "inject/fault.h"
#include "obs/names.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/diag.h"
#include "timing/config.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ArgParser args(
        "run_protected",
        "Compile a MiniC program, attach IPDS, and run it");
    std::string target;
    std::string inputsCsv;
    std::string attackSpec;
    uint32_t attackAt = 1;
    std::string imagePath;
    bool wantStats = false;
    uint64_t faultSeed = 0;
    std::string recordPath;
    std::string replayPath;
    uint32_t sessions = 1;
    uint32_t seekSession = UINT32_MAX;  // sentinel: flag not given
    uint64_t seekChunk = UINT64_MAX;    // sentinel: flag not given
    unsigned threads = 1;
    std::string jsonPath;
    args.positional("prog", &target,
                    "MiniC source file or bundled workload name");
    args.strOpt("inputs", &inputsCsv,
                "session input lines, comma separated");
    args.strOpt("attack", &attackSpec,
                "corrupt entry-function local, as VAR=VALUE");
    args.uintOpt("at", &attackAt,
                 "tamper after the Nth input event (default 1)");
    args.strOpt("image", &imagePath,
                "also write the program image here");
    args.boolOpt("stats", &wantStats,
                 "print session metrics as JSON to stderr");
    args.seedOpt("fault-seed", &faultSeed,
                "run under the fault plan derived from this seed");
    args.strOpt("record", &recordPath,
                "capture the run's event stream into an IPDS trace");
    args.uintOpt("sessions", &sessions,
                 "repeat the session stream N times (default 1)");
    args.strOpt("replay", &replayPath,
                "re-detect a recorded trace instead of executing");
    args.uintOpt("seek-session", &seekSession,
                 "start --replay at this session, skipping every "
                 "earlier chunk");
    args.u64Opt("seek-chunk", &seekChunk,
                "start --replay at this chunk, resuming from the "
                "nearest detector snapshot");
    args.threadsOpt(&threads);
    args.jsonOpt(&jsonPath);
    if (!args.parse(argc, argv))
        return args.exitCode();

    std::vector<std::string> inputs;
    if (!inputsCsv.empty())
        inputs = splitCommas(inputsCsv);

    if (attackAt == 0) {
        std::fprintf(stderr,
                     "run_protected: --at counts input events from 1\n");
        return 1;
    }
    std::string attackVar;
    int64_t attackValue = 0;
    if (!attackSpec.empty()) {
        size_t eq = attackSpec.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr,
                         "run_protected: --attack wants VAR=VALUE\n");
            return 1;
        }
        attackVar = attackSpec.substr(0, eq);
        attackValue =
            std::strtoll(attackSpec.c_str() + eq + 1, nullptr, 10);
    }

    if (!recordPath.empty() && !replayPath.empty()) {
        std::fprintf(stderr,
                     "--record and --replay are mutually exclusive\n");
        return 1;
    }
    if (!replayPath.empty() &&
        (faultSeed != 0 || !attackVar.empty())) {
        // Faults and attacks are live-run concepts: recorded into a
        // trace by --record, reproduced from it by --replay.
        std::fprintf(stderr,
                     "--replay excludes --fault-seed and --attack "
                     "(record them with --record instead)\n");
        return 1;
    }
    if (replayPath.empty() &&
        (threads != 1 || seekSession != UINT32_MAX ||
         seekChunk != UINT64_MAX)) {
        // A live run or capture is one shard: only a replay has work
        // for more than one thread.
        std::fprintf(stderr,
                     "--threads/--seek-session/--seek-chunk "
                     "require --replay\n");
        return 1;
    }

    // Resolve the target: bundled workload or file on disk.
    std::string source;
    std::string name = target;
    bool found = false;
    for (const auto &wl : allWorkloads()) {
        if (wl.name == target) {
            source = wl.source;
            if (inputs.empty())
                inputs = wl.benignInputs;
            found = true;
        }
    }
    if (!found) {
        std::ifstream in(target);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", target.c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    }

    try {
        CompiledProgram prog = compileAndAnalyze(source, name);
        std::fprintf(stderr,
                     "[ipds] %u branches, %u checked, tables %llu "
                     "bits, compiled in %.2f ms\n",
                     prog.stats.numBranches, prog.stats.numCheckable,
                     static_cast<unsigned long long>(
                         prog.stats.totalBsvBits +
                         prog.stats.totalBcvBits +
                         prog.stats.totalBatBits),
                     prog.stats.compileSeconds * 1000.0);

        if (!imagePath.empty()) {
            auto blob = buildImage(prog);
            std::ofstream out(imagePath, std::ios::binary);
            out.write(reinterpret_cast<const char *>(blob.data()),
                      static_cast<std::streamsize>(blob.size()));
            std::fprintf(stderr, "[ipds] wrote %zu-byte image to %s\n",
                         blob.size(), imagePath.c_str());
        }

        Session::Builder builder = Session::builder();
        builder.program(prog).inputs(inputs).threads(threads);
        if (sessions > 1)
            builder.sessions(sessions);

        ExecPlan exec;
        if (!attackVar.empty()) {
            TamperSpec spec;
            spec.randomStackTarget = false;
            spec.afterInputEvent = attackAt;
            spec.addr = Vm(prog.mod).entryLocalAddr(attackVar);
            uint64_t v = static_cast<uint64_t>(attackValue);
            spec.bytes.resize(8);
            for (int b = 0; b < 8; b++)
                spec.bytes[b] = static_cast<uint8_t>(v >> (8 * b));
            exec.addTamper(spec);
            std::fprintf(stderr,
                         "[ipds] armed attack: %s=%lld after input "
                         "#%u\n", attackVar.c_str(),
                         static_cast<long long>(attackValue),
                         attackAt);
        }

        if (faultSeed != 0) {
            FaultPlan plan = FaultPlan::fromSeed(faultSeed);
            builder.timing(table1Config());
            exec.faults(plan);
            std::fprintf(stderr,
                         "[ipds] fault plan (seed %llu): mem every "
                         "~%u insts, bsv flip every %u branches, "
                         "ring drop/dup %u/%u permille, ctx switch "
                         "every %u branches%s\n",
                         static_cast<unsigned long long>(faultSeed),
                         plan.memEveryInsts, plan.bsvEveryBranches,
                         plan.ringDropPermille, plan.ringDupPermille,
                         plan.ctxEveryBranches,
                         plan.spillPressure ? ", spill pressure"
                                            : "");
        }

        if (!recordPath.empty()) {
            builder.plan(CapturePlan(recordPath).exec(exec));
            std::fprintf(stderr, "[ipds] recording trace to %s\n",
                         recordPath.c_str());
        } else if (!replayPath.empty()) {
            ReplayPlan plan(replayPath);
            if (seekSession != UINT32_MAX)
                plan.seekSession(seekSession);
            if (seekChunk != UINT64_MAX)
                plan.seekChunk(seekChunk);
            builder.plan(plan);
        } else {
            builder.plan(exec);
        }

        Session session = builder.build();
        session.run();
        std::fputs(session.result().output.c_str(), stdout);

        if (!replayPath.empty()) {
            const obs::MetricsRegistry &m = session.metrics();
            namespace n = obs::names;
            std::fprintf(
                stderr,
                "[ipds] replayed %llu sessions (%llu events, %llu "
                "bytes) from %s — no VM in the loop\n",
                static_cast<unsigned long long>(
                    m.value(m.find(n::kReplaySessions))),
                static_cast<unsigned long long>(
                    m.value(m.find(n::kReplayEvents))),
                static_cast<unsigned long long>(
                    m.value(m.find(n::kReplayBytes))),
                replayPath.c_str());
        }

        if (faultSeed != 0) {
            const FaultStats &fs = session.faultStats();
            std::fprintf(stderr,
                         "[ipds] faults injected: %llu mem tampers, "
                         "%llu bsv flips, %llu ctx switches, %llu "
                         "ring drops, %llu ring dups\n",
                         static_cast<unsigned long long>(
                             fs.memTampers),
                         static_cast<unsigned long long>(fs.bsvFlips),
                         static_cast<unsigned long long>(
                             fs.ctxSwitches),
                         static_cast<unsigned long long>(
                             fs.ringDrops),
                         static_cast<unsigned long long>(
                             fs.ringDups));
        }

        if (wantStats)
            std::fprintf(stderr, "%s\n",
                         session.metricsJson().c_str());
        if (!jsonPath.empty()) {
            std::ofstream out(jsonPath);
            out << session.metricsJson() << "\n";
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             jsonPath.c_str());
                return 1;
            }
        }

        if (session.alarmed()) {
            const Alarm &a = session.alarms().front();
            std::fprintf(stderr,
                         "[ipds] *** INFEASIBLE PATH at pc=0x%llx in "
                         "%s: expected %s, went %s ***\n",
                         static_cast<unsigned long long>(a.pc),
                         prog.mod.functions[a.func].name.c_str(),
                         a.expected == BsvState::Taken ? "taken"
                                                       : "not-taken",
                         a.actualTaken ? "taken" : "not-taken");
            return 2;
        }
        std::fprintf(stderr, "[ipds] clean run (exit %lld)\n",
                     static_cast<long long>(
                         session.result().exitCode));
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
