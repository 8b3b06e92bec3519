/**
 * @file
 * Runtime-detector unit tests: BSV state machine semantics, table
 * stack push/pop across calls, UNKNOWN-matches-anything, alarm
 * payloads, statistics, the request-sink protocol the timing model
 * consumes, frame-pool reuse, and golden equivalence of the fast-path
 * Detector against the preserved pre-overhaul ReferenceDetector.
 */

#include <gtest/gtest.h>

#include "core/program.h"
#include "ipds/detector.h"
#include "ipds/reference.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

/** Field-by-field stats comparison (failure names the workload). */
void
expectSameStats(const DetectorStats &ref, const DetectorStats &fast,
                const std::string &what)
{
    EXPECT_EQ(ref.branchesSeen, fast.branchesSeen) << what;
    EXPECT_EQ(ref.checksEnqueued, fast.checksEnqueued) << what;
    EXPECT_EQ(ref.updatesApplied, fast.updatesApplied) << what;
    EXPECT_EQ(ref.actionsApplied, fast.actionsApplied) << what;
    EXPECT_EQ(ref.framesPushed, fast.framesPushed) << what;
    EXPECT_EQ(ref.maxStackDepth, fast.maxStackDepth) << what;
}

void
expectSameAlarms(const std::vector<Alarm> &ref,
                 const std::vector<Alarm> &fast,
                 const std::string &what)
{
    ASSERT_EQ(ref.size(), fast.size()) << what;
    for (size_t i = 0; i < ref.size(); i++) {
        EXPECT_EQ(ref[i].func, fast[i].func) << what;
        EXPECT_EQ(ref[i].pc, fast[i].pc) << what;
        EXPECT_EQ(ref[i].actualTaken, fast[i].actualTaken) << what;
        EXPECT_EQ(ref[i].expected, fast[i].expected) << what;
        EXPECT_EQ(ref[i].branchIndex, fast[i].branchIndex) << what;
    }
}

TEST(Detector, FreshTablesPerInvocation)
{
    // The callee's branch direction differs between two calls — legal,
    // because each invocation pushes fresh (UNKNOWN) tables.
    CompiledProgram p = compileAndAnalyze(R"(
void probe(int v) {
    if (v < 5) { print_str("lo"); } else { print_str("hi"); }
}
void main() {
    probe(1);
    probe(9);
}
)", "t");
    Vm vm(p.mod);
    Detector det(p);
    vm.addObserver(&det);
    RunResult r = vm.run();
    EXPECT_EQ(r.output, "lohi");
    EXPECT_FALSE(det.alarmed());
    EXPECT_EQ(det.stats().framesPushed, 3u); // main + 2x probe
    EXPECT_EQ(det.stats().maxStackDepth, 2u);
}

TEST(Detector, RecursionStacksTables)
{
    CompiledProgram p = compileAndAnalyze(R"(
int down(int n) {
    if (n == 0) { return 0; }
    return down(n - 1);
}
void main() { print_int(down(5)); }
)", "t");
    Vm vm(p.mod);
    Detector det(p);
    vm.addObserver(&det);
    vm.run();
    EXPECT_FALSE(det.alarmed());
    EXPECT_EQ(det.stats().maxStackDepth, 7u); // main + 6 downs
}

TEST(Detector, UnknownMatchesAnyDirection)
{
    // Input-driven branch: direction varies across iterations but the
    // BSV stays UNKNOWN (killed by the input write each round).
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int i;
    int v;
    i = 0;
    while (i < 4) {
        v = input_int();
        if (v > 0) { print_str("+"); } else { print_str("-"); }
        i = i + 1;
    }
}
)", "t");
    Vm vm(p.mod);
    vm.setInputs({"1", "-1", "1", "-1"});
    Detector det(p);
    vm.addObserver(&det);
    RunResult r = vm.run();
    EXPECT_EQ(r.output, "+-+-");
    EXPECT_FALSE(det.alarmed());
    EXPECT_GT(det.stats().checksEnqueued, 0u);
}

TEST(Detector, AlarmPayloadIdentifiesBranch)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int flag;
    flag = 0;
    input_int();
    if (flag == 1) { print_str("escalated"); }
}
)", "t");
    Vm vm(p.mod);
    vm.setInputs({"x"});
    Detector det(p);
    vm.addObserver(&det);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 1;
    spec.addr = vm.entryLocalAddr("flag");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};
    vm.addTamper(spec);
    vm.run();

    ASSERT_TRUE(det.alarmed());
    const Alarm &a = det.alarms().front();
    EXPECT_EQ(a.func, p.mod.entry);
    EXPECT_EQ(a.expected, BsvState::NotTaken);
    EXPECT_TRUE(a.actualTaken);
    EXPECT_GT(a.branchIndex, 0u);
    // The alarming pc really is a branch of main.
    bool found = false;
    for (uint64_t pc : p.funcs[p.mod.entry].bat.branchPcs)
        found |= pc == a.pc;
    EXPECT_TRUE(found);
}

TEST(Detector, ResetClearsState)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int x;
    x = input_int();
    if (x < 5) { print_str("a"); }
}
)", "t");
    Detector det(p);
    {
        Vm vm(p.mod);
        vm.setInputs({"1"});
        vm.addObserver(&det);
        vm.run();
    }
    EXPECT_GT(det.stats().branchesSeen, 0u);
    det.reset();
    EXPECT_EQ(det.stats().branchesSeen, 0u);
    EXPECT_FALSE(det.alarmed());
    {
        Vm vm(p.mod);
        vm.setInputs({"9"});
        vm.addObserver(&det);
        vm.run();
    }
    EXPECT_FALSE(det.alarmed());
}

TEST(Detector, RequestSinkProtocol)
{
    CompiledProgram p = compileAndAnalyze(R"(
void leaf() { print_str("x"); }
void main() {
    int x;
    x = input_int();
    if (x < 5) { leaf(); }
}
)", "t");
    RequestRing ring; // no overflow sink: grows, drained in order
    Detector det(p);
    det.setRequestRing(&ring);
    Vm vm(p.mod);
    vm.setInputs({"1"});
    vm.addObserver(&det);
    vm.run();
    std::vector<IpdsRequest> log;
    ring.drain([&](const IpdsRequest &rq) { log.push_back(rq); });

    ASSERT_FALSE(log.empty());
    // First event: main's frame push carrying its table bits.
    EXPECT_EQ(log[0].kind, IpdsRequest::Kind::PushFrame);
    EXPECT_GT(log[0].tableBits, 0u);
    // Push/pop balance.
    int depth = 0, maxDepth = 0;
    size_t checks = 0, updates = 0;
    for (const auto &rq : log) {
        switch (rq.kind) {
          case IpdsRequest::Kind::PushFrame:
            depth++;
            maxDepth = std::max(maxDepth, depth);
            break;
          case IpdsRequest::Kind::PopFrame:
            depth--;
            break;
          case IpdsRequest::Kind::Check:
            checks++;
            break;
          case IpdsRequest::Kind::Update:
            updates++;
            break;
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(maxDepth, 2);
    EXPECT_EQ(checks, det.stats().checksEnqueued);
    EXPECT_EQ(updates, det.stats().updatesApplied);
    // Every checked branch also updates, never the reverse missing.
    EXPECT_GE(updates, checks);
}

TEST(Detector, ChecksOnlyBcvMarkedBranches)
{
    // a<b is unknown-kind: never checked, but still updates.
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int a;
    int b;
    a = input_int();
    b = input_int();
    if (a < b) { print_str("x"); }
}
)", "t");
    Vm vm(p.mod);
    vm.setInputs({"1", "2"});
    Detector det(p);
    vm.addObserver(&det);
    vm.run();
    EXPECT_EQ(det.stats().checksEnqueued, 0u);
    EXPECT_EQ(det.stats().updatesApplied, 1u);
    EXPECT_EQ(det.stats().branchesSeen, 1u);
}

TEST(Detector, MultipleAlarmsAccumulate)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int flag;
    int i;
    flag = 0;
    i = 0;
    while (i < 3) {
        input_int();
        if (flag == 1) { print_str("!"); }
        i = i + 1;
    }
}
)", "t");
    Vm vm(p.mod);
    vm.setInputs({"a", "b", "c"});
    Detector det(p);
    vm.addObserver(&det);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 1;
    spec.addr = vm.entryLocalAddr("flag");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};
    vm.addTamper(spec);
    vm.run();
    // The first tampered evaluation alarms. The detector then applies
    // the branch's own update (flag==1 taken pins SET_T), so later
    // iterations are self-consistent with the corrupted value and do
    // not re-alarm — a real deployment halts the process at the first
    // alarm anyway.
    EXPECT_EQ(det.alarms().size(), 1u);
    EXPECT_EQ(det.alarms().front().expected, BsvState::NotTaken);
}

// ---------------------------------------------------- frame pool

TEST(DetectorFramePool, DeepRecursionReusesFrames)
{
    CompiledProgram p = compileAndAnalyze(R"(
int down(int n) {
    if (n == 0) { return 0; }
    return down(n - 1);
}
void main() { print_int(down(8)); print_int(down(8)); }
)", "t");
    Detector det(p);
    Vm vm(p.mod);
    vm.addObserver(&det);
    vm.run();
    EXPECT_FALSE(det.alarmed());
    // 1 main frame + 2x9 down frames pushed, but the second recursion
    // reuses the first one's pool: allocation is bounded by the peak
    // depth, not the push count.
    EXPECT_EQ(det.stats().framesPushed, 19u);
    EXPECT_EQ(det.allocatedFrames(), 10u);

    // A second session on the same detector allocates nothing at all.
    det.reset();
    Vm vm2(p.mod);
    vm2.addObserver(&det);
    vm2.run();
    EXPECT_EQ(det.allocatedFrames(), 10u);
}

TEST(DetectorFramePool, StaleGenerationSlotsReadUnknown)
{
    // probe's two correlated branches pin each other's BSV slots when
    // v > 5. The middle probe(1) call reuses the probe(9) frame from
    // the pool; its slots still hold the stale SET_T words, which must
    // read as UNKNOWN under the new generation — a leak would alarm on
    // the not-taken evaluation.
    CompiledProgram p = compileAndAnalyze(R"(
void probe(int v) {
    if (v > 5) { print_str("a"); }
    if (v > 5) { print_str("b"); }
}
void main() {
    probe(9);
    probe(1);
    probe(9);
}
)", "t");
    Detector det(p);
    Vm vm(p.mod);
    vm.addObserver(&det);
    RunResult r = vm.run();
    EXPECT_EQ(r.output, "abab");
    EXPECT_FALSE(det.alarmed());
    EXPECT_EQ(det.stats().checksEnqueued, 6u); // both branches, 3 calls
    EXPECT_EQ(det.stats().framesPushed, 4u);    // main + 3x probe
    EXPECT_EQ(det.allocatedFrames(), 2u);       // main + 1 pooled probe
}

// ---------------------------------------------------- golden equivalence

TEST(DetectorGolden, BenignWorkloadsMatchReference)
{
    // The pre-overhaul implementation is preserved verbatim as
    // ReferenceDetector; both observe the same execution and must
    // produce identical alarms, statistics and request streams on
    // every workload.
    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
        ReferenceDetector refDet(prog);
        std::vector<IpdsRequest> refReqs, fastReqs;
        refDet.setRequestSink(
            [&](const IpdsRequest &rq) { refReqs.push_back(rq); });
        Detector fastDet(prog);
        RequestRing ring; // no overflow sink: grows, drained in order
        fastDet.setRequestRing(&ring);
        Vm vm(prog.mod);
        vm.setInputs(wl.benignInputs);
        vm.setRecordTrace(false);
        vm.addObserver(&refDet);
        vm.addObserver(&fastDet);
        vm.run();
        ring.drain([&](const IpdsRequest &rq) { fastReqs.push_back(rq); });
        expectSameStats(refDet.stats(), fastDet.stats(), wl.name);
        expectSameAlarms(refDet.alarms(), fastDet.alarms(), wl.name);
        EXPECT_FALSE(fastDet.alarmed()) << wl.name;
        EXPECT_FALSE(refReqs.empty()) << wl.name;
        EXPECT_TRUE(refReqs == fastReqs) << wl.name;
    }
}

TEST(DetectorGolden, TamperedRunMatchesReference)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int flag;
    flag = 0;
    input_int();
    if (flag == 1) { print_str("escalated"); }
}
)", "t");
    ReferenceDetector refDet(p);
    Detector fastDet(p);
    Vm vm(p.mod);
    vm.setInputs({"x"});
    vm.addObserver(&refDet);
    vm.addObserver(&fastDet);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 1;
    spec.addr = vm.entryLocalAddr("flag");
    spec.bytes = {1, 0, 0, 0, 0, 0, 0, 0};
    vm.addTamper(spec);
    vm.run();

    EXPECT_TRUE(refDet.alarmed());
    expectSameStats(refDet.stats(), fastDet.stats(), "tampered");
    expectSameAlarms(refDet.alarms(), fastDet.alarms(), "tampered");
}

} // namespace
} // namespace ipds
