/**
 * @file
 * Quickstart: the whole IPDS pipeline in one page.
 *
 *   1. compile a MiniC program (the compiler derives branch
 *      correlations and emits BSV/BCV/BAT tables),
 *   2. run it benignly under the runtime detector via the
 *      ipds::Session facade (no alarm, ever),
 *   3. corrupt one memory cell mid-run and watch the infeasible path
 *      trip the detector.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/program.h"
#include "obs/session.h"
#include "vm/vm.h"

using namespace ipds;

// A miniature privilege check: `role` is decided once, then consulted
// on every request. Tampering `role` between requests creates a path
// the compiler knows is infeasible.
static const char *kProgram = R"(
void main() {
    int role;
    int req;

    role = 0;
    if (input_int() == 42) {
        role = 1;
    }

    req = 0;
    while (req < 3) {
        if (role == 1) {
            print_str("privileged request\n");
        } else {
            print_str("normal request\n");
        }
        input_int();
        req = req + 1;
    }
}
)";

int
main()
{
    // -- 1. compile + analyze -----------------------------------------
    CompiledProgram prog = compileAndAnalyze(kProgram, "quickstart");
    std::printf("compiled: %u branches, %u checkable, tables "
                "BSV/BCV/BAT = %llu/%llu/%llu bits\n\n",
                prog.stats.numBranches, prog.stats.numCheckable,
                static_cast<unsigned long long>(
                    prog.stats.totalBsvBits),
                static_cast<unsigned long long>(
                    prog.stats.totalBcvBits),
                static_cast<unsigned long long>(
                    prog.stats.totalBatBits));

    // -- 2. benign run --------------------------------------------------
    {
        Session s = Session::builder()
                        .program(prog)
                        .inputs({"7", "x", "x", "x"})
                        .build();
        s.run();
        std::printf("benign run:\n%s", s.result().output.c_str());
        std::printf("=> %s (checks: %llu)\n\n",
                    s.alarmed() ? "ALARM (bug!)" : "no alarm",
                    static_cast<unsigned long long>(
                        s.detectorStats().checksEnqueued));
    }

    // -- 3. attacked run -------------------------------------------------
    {
        // Flip `role` to 1 after the second input is consumed — the
        // kind of corruption a non-control-data attack performs. A
        // scratch Vm resolves the variable's stack address.
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.afterInputEvent = 2;
        spec.addr = Vm(prog.mod).entryLocalAddr("role");
        spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};

        Session s = Session::builder()
                        .program(prog)
                        .inputs({"7", "x", "x", "x"})
                        .plan(ExecPlan().addTamper(spec))
                        .build();
        s.run();
        std::printf("attacked run (corrupted role=1 @ input #2):\n%s",
                    s.result().output.c_str());
        if (s.alarmed()) {
            const Alarm &a = s.alarms().front();
            std::printf("=> ALARM: infeasible path at pc=0x%llx "
                        "(expected %s, went %s)\n",
                        static_cast<unsigned long long>(a.pc),
                        a.expected == BsvState::Taken ? "taken"
                                                      : "not-taken",
                        a.actualTaken ? "taken" : "not-taken");
        } else {
            std::printf("=> no alarm (this tamper did not change "
                        "control flow; try another seed)\n");
        }
    }
    return 0;
}
