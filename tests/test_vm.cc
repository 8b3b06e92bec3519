/**
 * @file
 * VM semantics tests: MiniC programs executed end to end, checking
 * outputs, exit kinds, memory behaviour (including real overflows),
 * tamper mechanics and trace capture.
 */

#include <gtest/gtest.h>

#include "frontend/codegen.h"
#include "vm/memory.h"
#include "vm/vm.h"

namespace ipds {
namespace {

/** Compile+run with inputs, return the result. */
RunResult
run(const std::string &src, std::vector<std::string> inputs = {})
{
    Module m = compileMiniC(src, "t");
    Vm vm(m);
    vm.setInputs(std::move(inputs));
    return vm.run();
}

// ---------------------------------------------------------------- memory

TEST(Memory, UnmappedReadsZero)
{
    Memory mem;
    EXPECT_EQ(mem.readByte(0x1234), 0);
    EXPECT_EQ(mem.readI64(0xffff'ffff'0000ULL), 0);
}

TEST(Memory, ByteAndWordRoundTrip)
{
    Memory mem;
    mem.writeI64(0x1000, -123456789);
    EXPECT_EQ(mem.readI64(0x1000), -123456789);
    mem.writeByte(0x1000, 0xff);
    EXPECT_NE(mem.readI64(0x1000), -123456789);
    // Cross-page access works.
    mem.writeI64(0xfff, 0x1122334455667788LL);
    EXPECT_EQ(mem.readI64(0xfff), 0x1122334455667788LL);
}

TEST(Memory, CStrings)
{
    Memory mem;
    mem.writeBytes(0x2000, "hello", 6);
    EXPECT_EQ(mem.readCStr(0x2000), "hello");
    EXPECT_EQ(mem.readCStr(0x2000, 3), "hel");
}

// ------------------------------------------------------------ arithmetic

TEST(VmExec, Arithmetic)
{
    RunResult r = run(R"(
void main() {
    print_int(7 + 3 * 2);  print_str(" ");
    print_int(10 / 3);     print_str(" ");
    print_int(10 % 3);     print_str(" ");
    print_int(-5 + 2);     print_str(" ");
    print_int(1 << 4);     print_str(" ");
    print_int(256 >> 3);   print_str(" ");
    print_int(12 & 10);    print_str(" ");
    print_int(12 | 3);     print_str(" ");
    print_int(12 ^ 10);
}
)");
    EXPECT_EQ(r.output, "13 3 1 -3 16 32 8 15 6");
    EXPECT_EQ(r.exit, ExitKind::Returned);
}

TEST(VmExec, ComparisonAndLogic)
{
    RunResult r = run(R"(
void main() {
    print_int(3 < 4);  print_int(4 <= 4); print_int(5 > 6);
    print_int(!0);     print_int(!7);
    print_int(1 && 0); print_int(1 || 0);
}
)");
    // 3<4=1, 4<=4=1, 5>6=0, !0=1, !7=0, 1&&0=0, 1||0=1
    EXPECT_EQ(r.output, "1101001");
}

TEST(VmExec, DivisionByZeroTraps)
{
    RunResult r = run("void main() { int x; x = 0; print_int(5 / x); }");
    EXPECT_EQ(r.exit, ExitKind::Trapped);
    EXPECT_NE(r.trapMessage.find("division"), std::string::npos);
    RunResult r2 =
        run("void main() { int x; x = 0; print_int(5 % x); }");
    EXPECT_EQ(r2.exit, ExitKind::Trapped);
}

// ---------------------------------------------------------- control flow

TEST(VmExec, LoopsAndBreakContinue)
{
    RunResult r = run(R"(
void main() {
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i == 3) { continue; }
        if (i == 7) { break; }
        sum = sum + i;
    }
    print_int(sum); // 0+1+2+4+5+6 = 18
}
)");
    EXPECT_EQ(r.output, "18");
}

TEST(VmExec, RecursionAndReturnValues)
{
    RunResult r = run(R"(
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() { print_int(fib(12)); }
)");
    EXPECT_EQ(r.output, "144");
}

TEST(VmExec, DeepRecursionTrapsOnStackOverflow)
{
    RunResult r = run(R"(
int down(int n) {
    int pad[64];
    pad[0] = n;
    return down(n + pad[0] - pad[0] + 1);
}
void main() { print_int(down(0)); }
)");
    EXPECT_EQ(r.exit, ExitKind::Trapped);
    EXPECT_NE(r.trapMessage.find("stack overflow"),
              std::string::npos);
}

TEST(VmExec, FuelLimit)
{
    Module m = compileMiniC(
        "void main() { int x; x = 1; while (x > 0) { x = x + 1; } }",
        "t");
    Vm vm(m);
    vm.setFuel(10000);
    RunResult r = vm.run();
    EXPECT_EQ(r.exit, ExitKind::OutOfFuel);
    EXPECT_GE(r.steps, 10000u);
}

// --------------------------------------------------------- pointers etc.

TEST(VmExec, PointersAndArrays)
{
    RunResult r = run(R"(
void main() {
    int a[4];
    int *p;
    int i;
    for (i = 0; i < 4; i = i + 1) { a[i] = i * i; }
    p = a;
    print_int(*p);        print_str(" ");
    print_int(p[3]);      print_str(" ");
    p = p + 1;
    print_int(*p);        print_str(" ");
    *p = 99;
    print_int(a[1]);
}
)");
    EXPECT_EQ(r.output, "0 9 1 99");
}

TEST(VmExec, AddressOfScalar)
{
    RunResult r = run(R"(
void set7(int *p) { *p = 7; }
void main() {
    int x;
    x = 1;
    set7(&x);
    print_int(x);
}
)");
    EXPECT_EQ(r.output, "7");
}

TEST(VmExec, CharArraysAndStringBuiltins)
{
    RunResult r = run(R"(
void main() {
    char a[16];
    char b[16];
    strcpy(a, "hello");
    strcpy(b, a);
    strcat(b, " world");
    print_str(b);                print_str("|");
    print_int(strlen(b));        print_str("|");
    print_int(strcmp(a, "hello")); print_str("|");
    print_int(strncmp(b, "hellX", 4)); print_str("|");
    print_int(atoi("42abc"));
}
)");
    EXPECT_EQ(r.output, "hello world|11|0|0|42");
}

TEST(VmExec, MemBuiltins)
{
    RunResult r = run(R"(
void main() {
    char a[8];
    char b[8];
    memset(a, 'x', 7);
    a[7] = 0;
    memcpy(b, a, 8);
    print_str(b);               print_str("|");
    print_int(memcmp(a, b, 8)); print_str("|");
    b[2] = 'y';
    print_int(memcmp(a, b, 8)); // 'x' < 'y' => negative
}
)");
    EXPECT_EQ(r.output, "xxxxxxx|0|-1");
}

TEST(VmExec, RealBufferOverflowClobbersNeighbour)
{
    // str is declared before flag, so writing past str[8] hits flag.
    RunResult r = run(R"(
void main() {
    char str[8];
    int flag;
    flag = 0;
    get_input(str);
    if (flag != 0) {
        print_str("flag corrupted");
    } else {
        print_str("flag intact");
    }
}
)",
                      {"AAAAAAAAAAAA"}); // 12 bytes > 8
    EXPECT_EQ(r.output, "flag corrupted");
}

TEST(VmExec, GetInputNBounds)
{
    RunResult r = run(R"(
void main() {
    char str[8];
    int flag;
    flag = 0;
    get_input_n(str, 8);
    if (flag != 0) { print_str("corrupt"); } else { print_str("ok"); }
    print_str("|");
    print_str(str);
}
)",
                      {"AAAAAAAAAAAA"});
    EXPECT_EQ(r.output, "ok|AAAAAAA");
}

TEST(VmExec, ExitBuiltinStopsProgram)
{
    RunResult r = run(
        "void main() { print_str(\"a\"); exit(3); print_str(\"b\"); }");
    EXPECT_EQ(r.exit, ExitKind::Exited);
    EXPECT_EQ(r.exitCode, 3);
    EXPECT_EQ(r.output, "a");
}

TEST(VmExec, GlobalsInitializedAndShared)
{
    RunResult r = run(R"(
int counter = 5;
char tag[6] = "boot";
void bump() { counter = counter + 1; }
void main() {
    bump();
    bump();
    print_int(counter);
    print_str(tag);
}
)");
    EXPECT_EQ(r.output, "7boot");
}

// ------------------------------------------------------------ tampering

TEST(VmTamper, FixedAddressTamper)
{
    Module m = compileMiniC(R"(
void main() {
    int x;
    x = 1;
    input_int();
    if (x == 1) { print_str("same"); } else { print_str("CHANGED"); }
}
)", "t");
    Vm vm(m);
    vm.setInputs({"0"});
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = 1;
    spec.addr = vm.entryLocalAddr("x");
    spec.bytes = {9, 0, 0, 0, 0, 0, 0, 0};
    vm.addTamper(spec);
    RunResult r = vm.run();
    ASSERT_EQ(r.faultTampers.size(), 1u);
    EXPECT_EQ(r.output, "CHANGED");
    EXPECT_EQ(r.faultTampers[0].oldBytes[0], 1);
    EXPECT_EQ(r.faultTampers[0].newBytes[0], 9);
}

TEST(VmTamper, RandomStackTamperIsDeterministicPerSeed)
{
    Module m = compileMiniC(R"(
void main() {
    int a; int b; char buf[8];
    a = 1; b = 2;
    input_int();
    print_int(a + b);
}
)", "t");
    auto runSeed = [&](uint64_t seed) {
        Vm vm(m);
        vm.setInputs({"0"});
        TamperSpec spec;
        spec.afterInputEvent = 1;
        spec.seed = seed;
        vm.addTamper(spec);
        return vm.run();
    };
    RunResult a1 = runSeed(11), a2 = runSeed(11), b1 = runSeed(12);
    ASSERT_EQ(a1.faultTampers.size(), 1u);
    ASSERT_EQ(a2.faultTampers.size(), 1u);
    EXPECT_EQ(a1.faultTampers[0].addr, a2.faultTampers[0].addr);
    EXPECT_EQ(a1.faultTampers[0].newBytes, a2.faultTampers[0].newBytes);
    EXPECT_EQ(a1.output, a2.output);
    // Different seed eventually picks different target/value; just
    // check the record is well-formed.
    ASSERT_EQ(b1.faultTampers.size(), 1u);
    EXPECT_FALSE(b1.faultTampers[0].objectName.empty());
}

TEST(VmTamper, StepTrigger)
{
    Module m = compileMiniC(R"(
void main() {
    int x;
    x = 5;
    while (x == 5) { x = 5; }
    print_str("escaped");
}
)", "t");
    Vm vm(m);
    vm.setFuel(100000);
    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.atStep = 50;
    spec.addr = vm.entryLocalAddr("x");
    spec.bytes = {0};
    vm.addTamper(spec);
    RunResult r = vm.run();
    EXPECT_EQ(r.faultTampers.size(), 1u);
    // x=5 is re-stored each iteration, so one-byte corruption is
    // immediately overwritten; the program never escapes benignly --
    // unless the tamper lands between store and test. Either outcome
    // is valid; what matters is the tamper fired at the right step.
    EXPECT_GE(r.steps, 50u);
}

TEST(VmTamper, StepTriggerAtExactFuelBoundary)
{
    // Regression: a tamper armed at atStep == fuel used to be skipped
    // because the out-of-fuel check bailed before the step-count
    // trigger was consulted. The tamper must fire (it is "at" step N,
    // which is reached) even though no further instruction runs.
    Module m = compileMiniC(R"(
void main() {
    int x;
    x = 5;
    while (x == 5) { x = 5; }
}
)", "t");
    for (VmEngine eng : {VmEngine::Switch, VmEngine::Threaded}) {
        Vm vm(m);
        vm.setEngine(eng);
        vm.setFuel(500);
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.atStep = 500; // == fuel
        spec.addr = vm.entryLocalAddr("x");
        spec.bytes = {7};
        vm.addTamper(spec);
        RunResult r = vm.run();
        EXPECT_EQ(r.exit, ExitKind::OutOfFuel)
            << static_cast<int>(eng);
        EXPECT_EQ(r.steps, 500u) << static_cast<int>(eng);
        EXPECT_EQ(r.faultTampers.size(), 1u) << static_cast<int>(eng);
    }
}

// --------------------------------------------------------------- tracing

TEST(VmTrace, BranchTraceMatchesControlFlow)
{
    Module m = compileMiniC(R"(
void main() {
    int i;
    for (i = 0; i < 3; i = i + 1) { }
}
)", "t");
    Vm vm(m);
    RunResult r = vm.run();
    // for-head branch: taken, taken, taken, not-taken.
    ASSERT_EQ(r.branchTrace.size(), 4u);
    EXPECT_TRUE(r.branchTrace[0].taken);
    EXPECT_TRUE(r.branchTrace[2].taken);
    EXPECT_FALSE(r.branchTrace[3].taken);
    // All four events come from the same branch PC.
    EXPECT_EQ(r.branchTrace[0].pc, r.branchTrace[3].pc);
}

TEST(VmTrace, ObserverSeesFunctionNesting)
{
    struct Probe : ExecObserver
    {
        int depth = 0;
        int maxDepth = 0;
        void onFunctionEnter(FuncId) override
        {
            depth++;
            maxDepth = std::max(maxDepth, depth);
        }
        void onFunctionExit(FuncId) override { depth--; }
    };
    Module m = compileMiniC(R"(
int g(int n) { return n + 1; }
int f(int n) { return g(n) + 1; }
void main() { print_int(f(0)); }
)", "t");
    Vm vm(m);
    Probe probe;
    vm.addObserver(&probe);
    RunResult r = vm.run();
    EXPECT_EQ(r.output, "2");
    EXPECT_EQ(probe.depth, 0);
    EXPECT_EQ(probe.maxDepth, 3); // main -> f -> g
}

} // namespace
} // namespace ipds
