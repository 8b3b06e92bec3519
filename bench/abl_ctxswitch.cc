/**
 * @file
 * §5.4 context-switch ablation. The paper: "we can swap the top of
 * BSV and BAT stacks (around 1K bits) first and let the new process
 * start. Lower layers of stacks are context switched in parallel with
 * the execution of the new process to reduce context switch latency."
 *
 * This bench quantifies that claim: synchronous context-switch
 * latency under the eager strategy (save/restore every resident
 * frame) versus the paper's lazy top-of-stack swap, as a function of
 * the protected process's call depth.
 */

#include <cstdio>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "timing/engine.h"

using namespace ipds;

namespace {

/** Build a chain program with @p depth nested active calls. */
std::string
chainProgram(int depth)
{
    // Each chain function carries a realistic number of correlated
    // branches so its tables have realistic sizes (several hundred
    // bits, as in Figure 8).
    const char *body =
        "    int s;\n"
        "    s = 0;\n"
        "    if (x > 0) { s = 1; }\n"
        "    if (s == 1) { print_int(s); }\n"
        "    if (x > 4) { s = 2; }\n"
        "    if (s == 2) { print_int(s); }\n"
        "    if (x < -3) { s = 3; }\n"
        "    if (s == 3) { print_int(s); }\n"
        "    if (s > 3) { print_str(\"corrupt\\n\"); }\n";
    std::string src;
    src += strprintf("void leaf(int x) {\n%s}\n", body);
    for (int d = depth - 1; d >= 0; d--) {
        std::string callee =
            d == depth - 1 ? "leaf" : strprintf("f%d", d + 1);
        src += strprintf("void f%d(int x) {\n%s    %s(x + 1);\n}\n",
                         d, body, callee.c_str());
    }
    src += "void main() { f0(1); }\n";
    return src;
}

/**
 * Drive the engine to the deepest stack state the program reaches,
 * then measure one context switch.
 */
uint64_t
switchLatencyAtDeepest(const CompiledProgram &prog, bool lazy)
{
    TimingConfig cfg = table1Config();
    IpdsEngine eng(cfg);
    uint64_t worst = 0;

    // The ring has no overflow sink, so it grows to hold the whole
    // run; draining it afterwards feeds the engine the same requests
    // in the same order as an inline consumer would.
    RequestRing ring;
    Detector det(prog);
    det.setRequestRing(&ring);
    Vm vm(prog.mod);
    vm.addObserver(&det);
    vm.run();

    uint64_t now = 0;
    ring.drain([&](const IpdsRequest &rq) {
        eng.enqueue(rq, now++);
        if (rq.kind == IpdsRequest::Kind::PushFrame) {
            // Probe: what would a switch cost right now? Use a copy
            // so probing does not disturb the real engine state.
            IpdsEngine probe = eng;
            worst = std::max(worst, probe.contextSwitch(lazy));
        }
    });
    return worst;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("=== Ablation: context-switch latency (§5.4) ===\n\n");
    std::printf("%8s %18s %18s %10s\n", "depth", "eager-sync(cyc)",
                "lazy-sync(cyc)", "speedup");

    for (int depth : {1, 2, 4, 8, 12, 16, 24, 32}) {
        CompiledProgram prog =
            compileAndAnalyze(chainProgram(depth), "chain");
        uint64_t eager = switchLatencyAtDeepest(prog, false);
        uint64_t lazy = switchLatencyAtDeepest(prog, true);
        std::printf("%8d %18llu %18llu %9.1fx\n", depth,
                    static_cast<unsigned long long>(eager),
                    static_cast<unsigned long long>(lazy),
                    lazy ? double(eager) / double(lazy) : 0.0);
    }
    std::printf("\n(claim: lazy top-of-stack swapping makes the "
                "synchronous cost independent of\n call depth — deep "
                "stacks migrate in parallel with the new process)\n");
    return 0;
}
