/**
 * @file
 * End-to-end integration tests: MiniC source -> compiled & analyzed
 * program -> execution under the ipds::Session facade (VM + IPDS
 * detector). Covers the paper's motivating scenario (Figure 1),
 * benign zero-false-positive runs, direct tamper detection, and
 * equivalence of the RequestRing transport against the legacy
 * std::function sink (the one test that still hand-wires the layers,
 * because it observes the transport itself).
 */

#include <gtest/gtest.h>

#include "core/program.h"
#include "ipds/detector.h"
#include "ipds/reference.h"
#include "obs/session.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

/**
 * The paper's Figure 1 program: an admin check, an overflowable buffer
 * fed by attacker input, and a second admin check. `str` is declared
 * before `user` so the unbounded copy overruns into `user`.
 */
const char *kFigure1 = R"(
void main() {
    char str[16];
    char user[16];

    // verify_user(): benign sessions type "guest".
    get_input_n(user, 16);

    if (strncmp(user, "admin", 5) == 0) {
        print_str("pre: admin\n");
    } else {
        print_str("pre: guest\n");
    }

    // The vulnerable input: unbounded copy into str.
    get_input(str);

    if (strncmp(user, "admin", 5) == 0) {
        print_str("post: admin\n");
    } else {
        print_str("post: guest\n");
    }
}
)";

TEST(EndToEnd, Figure1BenignRunHasNoAlarm)
{
    CompiledProgram prog = compileAndAnalyze(kFigure1, "fig1");
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"guest", "hello"})
                    .build();
    s.run();
    EXPECT_EQ(s.result().exit, ExitKind::Returned);
    EXPECT_NE(s.result().output.find("pre: guest"),
              std::string::npos);
    EXPECT_NE(s.result().output.find("post: guest"),
              std::string::npos);
    EXPECT_FALSE(s.alarmed());
}

TEST(EndToEnd, Figure1AdminBenignRunHasNoAlarm)
{
    CompiledProgram prog = compileAndAnalyze(kFigure1, "fig1");
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"admin", "hello"})
                    .build();
    s.run();
    EXPECT_NE(s.result().output.find("pre: admin"),
              std::string::npos);
    EXPECT_NE(s.result().output.find("post: admin"),
              std::string::npos);
    EXPECT_FALSE(s.alarmed());
}

TEST(EndToEnd, Figure1OverflowAttackIsDetected)
{
    CompiledProgram prog = compileAndAnalyze(kFigure1, "fig1");
    // 16 filler bytes to cross str[16], then "admin" lands in user.
    std::string payload(16, 'A');
    payload += "admin";
    Session s = Session::builder()
                    .program(prog)
                    .inputs({"guest", payload})
                    .build();
    s.run();
    // The tampering flipped the second check: privilege escalation...
    EXPECT_NE(s.result().output.find("pre: guest"),
              std::string::npos);
    EXPECT_NE(s.result().output.find("post: admin"),
              std::string::npos);
    // ...and IPDS must flag the infeasible path.
    EXPECT_TRUE(s.alarmed());
}

TEST(EndToEnd, Figure1ChecksAreMarked)
{
    CompiledProgram prog = compileAndAnalyze(kFigure1, "fig1");
    const CompiledFunction &cf = prog.funcs[prog.mod.entry];
    // Both admin checks must classify as checkable pure calls.
    uint32_t pureChecked = 0;
    for (const auto &b : cf.corr.branches) {
        if (b.kind == CondKind::PureCall && b.checkable)
            pureChecked++;
    }
    EXPECT_EQ(pureChecked, 2u);
}

/** Figure 2 of the paper: loop whose backward path is range-forced. */
const char *kFigure2 = R"(
int x;
void main() {
    int i;
    x = input_int();
    i = 0;
    while (i < 3) {
        if (x < 0) {
            x = x - 1;
        } else {
            x = input_int();
        }
        i = i + 1;
    }
}
)";

TEST(EndToEnd, Figure2BenignLoopNoAlarm)
{
    CompiledProgram prog = compileAndAnalyze(kFigure2, "fig2");
    for (auto inputs : std::vector<std::vector<std::string>>{
             {"-5"}, {"7", "3", "2", "-1"}, {"0", "0", "0", "0"}}) {
        Session s = Session::builder()
                        .program(prog)
                        .inputs(inputs)
                        .build();
        s.run();
        EXPECT_EQ(s.result().exit, ExitKind::Returned);
        EXPECT_FALSE(s.alarmed());
    }
}

TEST(EndToEnd, Figure2TamperIsDetected)
{
    // x starts negative; the x<0 branch is then always taken and x only
    // decreases. Corrupting x to a positive value between iterations
    // creates an infeasible path at the next x<0 test.
    CompiledProgram prog = compileAndAnalyze(kFigure2, "fig2");

    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.atStep = 40; // mid-loop
    for (const auto &obj : prog.mod.objects) {
        if (obj.name == "x")
            spec.addr = Vm(prog.mod).globalBase(obj.id);
    }
    ASSERT_NE(spec.addr, 0u);
    spec.bytes = {100, 0, 0, 0, 0, 0, 0, 0}; // x = 100

    Session s = Session::builder()
                    .program(prog)
                    .inputs({"-5"})
                    .plan(ExecPlan().addTamper(spec))
                    .build();
    s.run();
    EXPECT_EQ(s.result().faultTampers.size(), 1u);
    EXPECT_TRUE(s.alarmed());
}

/** Same-direction correlation (paper scenario 2): x unchanged between
 *  two executions of the same branch forces the same outcome. */
TEST(EndToEnd, ScalarRangeCorrelationDetectsTamper)
{
    const char *src2 = R"(
int secret;
void main() {
    int i;
    char junk[8];
    secret = 7;
    i = 0;
    while (i < 4) {
        if (secret > 5) {
            print_str("hi\n");
        } else {
            print_str("lo\n");
        }
        get_input_n(junk, 8);
        i = i + 1;
    }
}
)";
    CompiledProgram prog = compileAndAnalyze(src2, "corr2");

    // Benign: no alarm across all iterations.
    {
        Session s = Session::builder()
                        .program(prog)
                        .inputs({"a", "b", "c", "d"})
                        .build();
        s.run();
        EXPECT_EQ(s.result().exit, ExitKind::Returned);
        EXPECT_FALSE(s.alarmed());
    }

    // Tamper secret after the second input: next secret>5 test flips.
    {
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.afterInputEvent = 2;
        for (const auto &obj : prog.mod.objects)
            if (obj.name == "secret")
                spec.addr = Vm(prog.mod).globalBase(obj.id);
        spec.bytes = {0, 0, 0, 0, 0, 0, 0, 0}; // secret = 0

        Session s = Session::builder()
                        .program(prog)
                        .inputs({"a", "b", "c", "d"})
                        .plan(ExecPlan().addTamper(spec))
                        .build();
        s.run();
        EXPECT_EQ(s.result().faultTampers.size(), 1u);
        EXPECT_TRUE(s.alarmed()) << "flip of secret not detected";
    }
}

/** Drains a RequestRing into a log at the timing model's cadence
 *  (once per committed instruction). */
struct RingDrainObserver : ExecObserver
{
    RequestRing *ring = nullptr;
    std::vector<IpdsRequest> log;

    void
    onInst(const Inst &, uint64_t, uint32_t, bool) override
    {
        ring->drain(
            [this](const IpdsRequest &rq) { log.push_back(rq); });
    }
};

TEST(EndToEnd, RequestRingStreamMatchesLegacySink)
{
    // The RequestRing transport must deliver byte-for-byte the stream
    // the pre-overhaul std::function sink produced: the timing model's
    // cycle accounting is driven by it. Both detectors watch the same
    // execution of every workload; the ring is drained per committed
    // instruction exactly as CpuModel does.
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

        std::vector<IpdsRequest> sinkLog;
        ReferenceDetector refDet(prog);
        refDet.setRequestSink([&sinkLog](const IpdsRequest &rq) {
            sinkLog.push_back(rq);
        });

        Detector fastDet(prog);
        RequestRing ring;
        fastDet.setRequestRing(&ring);
        RingDrainObserver drainer;
        drainer.ring = &ring;

        Vm vm(prog.mod);
        vm.setInputs(wl.benignInputs);
        vm.setRecordTrace(false);
        vm.addObserver(&refDet);
        vm.addObserver(&fastDet);
        vm.addObserver(&drainer);
        vm.run();
        // Requests emitted after the last committed instruction.
        ring.drain(
            [&drainer](const IpdsRequest &rq) {
                drainer.log.push_back(rq);
            });

        ASSERT_FALSE(sinkLog.empty()) << wl.name;
        EXPECT_TRUE(sinkLog == drainer.log) << wl.name;
    }
}

} // namespace
} // namespace ipds
