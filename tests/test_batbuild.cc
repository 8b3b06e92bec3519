/**
 * @file
 * BAT construction tests, including the paper's worked examples:
 * Figure 3.a (range subsumption along paths), Figure 3.c (affine
 * transfer through a store), and Figure 4 (the BSV update sequence),
 * executed through the real detector to validate runtime semantics.
 */

#include <gtest/gtest.h>

#include "core/program.h"
#include "ipds/detector.h"
#include "vm/vm.h"

namespace ipds {
namespace {

/** Find the net action of (branch src, dir) on branch dst. */
BrAction
actionOf(const FuncBat &bat, uint32_t src, bool taken, uint32_t dst)
{
    const ActionList &l = taken ? bat.onTaken[src]
                                : bat.onNotTaken[src];
    for (const auto &[idx, act] : l)
        if (idx == dst)
            return act;
    return BrAction::NC;
}

TEST(BatBuild, SelfCorrelationOnUnchangedVariable)
{
    // Scenario 2 of §4: the same branch re-executed without any
    // redefinition must repeat its direction.
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int x;
    int i;
    x = input_int();
    i = 0;
    while (i < 3) {
        if (x < 10) { print_str("a"); } else { print_str("b"); }
        i = i + 1;
    }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    const auto &corr = p.funcs[p.mod.entry].corr;
    // Find the x<10 branch.
    uint32_t bx = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind == CondKind::Range &&
            p.locs->loc(b.corrLoc).name == "main.x")
            bx = b.idx;
    }
    ASSERT_NE(bx, UINT32_MAX);
    EXPECT_EQ(actionOf(bat, bx, true, bx), BrAction::SetT);
    EXPECT_EQ(actionOf(bat, bx, false, bx), BrAction::SetNT);
}

TEST(BatBuild, Figure3aSubsumptionAcrossBranches)
{
    // y<5 taken forces y<10 taken (range y<5 subsumes y<10); the
    // else-path redefinition of y makes it unknown instead.
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int y;
    y = input_int();
    if (y < 5) {
        print_str("small");
    } else {
        y = input_int();
    }
    if (y < 10) { print_str("lt10"); }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    const auto &corr = p.funcs[p.mod.entry].corr;
    uint32_t b5 = UINT32_MAX, b10 = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind != CondKind::Range)
            continue;
        if (b.takenSet.contains(4) && !b.takenSet.contains(5))
            b5 = b.idx;
        if (b.takenSet.contains(9) && !b.takenSet.contains(10))
            b10 = b.idx;
    }
    ASSERT_NE(b5, UINT32_MAX);
    ASSERT_NE(b10, UINT32_MAX);
    // Taken edge of y<5: y in (-inf,4] which subsumes (-inf,9].
    EXPECT_EQ(actionOf(bat, b5, true, b10), BrAction::SetT);
    // Not-taken edge runs through `y = input_int()`: unknown.
    EXPECT_EQ(actionOf(bat, b5, false, b10), BrAction::SetUN);
}

TEST(BatBuild, Figure3cAffineStoreTransfer)
{
    // Figure 3.c: y < 5 taken, then r1 = y - 1 stored; the branch on
    // the stored variable (r1 < 10) is forced taken.
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int y;
    int r1;
    y = input_int();
    if (y < 5) {
        r1 = y - 1;
        if (r1 < 10) { print_str("forced"); }
    }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    const auto &corr = p.funcs[p.mod.entry].corr;
    uint32_t by = UINT32_MAX, br1 = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind != CondKind::Range)
            continue;
        std::string n = p.locs->loc(b.corrLoc).name;
        if (n == "main.y")
            by = b.idx;
        if (n == "main.r1")
            br1 = b.idx;
    }
    ASSERT_NE(by, UINT32_MAX);
    ASSERT_NE(br1, UINT32_MAX);
    // Taken edge of y<5 contains the store r1 = y-1 with the live
    // fact y in (-inf,4], so r1 in (-inf,3] subsumes (-inf,9].
    EXPECT_EQ(actionOf(bat, by, true, br1), BrAction::SetT);
}

TEST(BatBuild, ConstStoreEmitsEntryAction)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int flag;
    flag = 0;
    input_int();
    if (flag == 1) { print_str("impossible benignly"); }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    // flag = 0 happens in the entry region; the == 1 branch must be
    // pinned NOT-taken before any branch executes.
    ASSERT_EQ(bat.numBranches, 1u);
    BrAction a = BrAction::NC;
    for (const auto &[idx, act] : bat.entryActions)
        if (idx == 0)
            a = act;
    EXPECT_EQ(a, BrAction::SetNT);
}

TEST(BatBuild, ConstStoreFactsCanBeDisabled)
{
    CorrOptions opts;
    opts.constStoreFacts = false;
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int flag;
    flag = 0;
    input_int();
    if (flag == 1) { print_str("x"); }
}
)", "t", opts);
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    for (const auto &[idx, act] : bat.entryActions)
        EXPECT_NE(act, BrAction::SetNT);
}

TEST(BatBuild, CallClobberEmitsSetUnknown)
{
    CompiledProgram p = compileAndAnalyze(R"(
int g;
void scramble() { g = input_int(); }
void main() {
    g = input_int();
    if (g < 5) {
        scramble();
    }
    if (g < 9) { print_str("x"); }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    const auto &corr = p.funcs[p.mod.entry].corr;
    uint32_t b5 = UINT32_MAX, b9 = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind != CondKind::Range)
            continue;
        if (!b.takenSet.contains(5))
            b5 = b.idx;
        else if (!b.takenSet.contains(9))
            b9 = b.idx;
    }
    ASSERT_NE(b5, UINT32_MAX);
    ASSERT_NE(b9, UINT32_MAX);
    // Taken edge executes scramble() which may write g: SET_UN wins
    // over the subsumption SET_T.
    EXPECT_EQ(actionOf(bat, b5, true, b9), BrAction::SetUN);
    // Not-taken edge leaves g alone: (-inf... g in [5,inf) does not
    // decide g<9, and nothing was redefined, so no action.
    EXPECT_EQ(actionOf(bat, b5, false, b9), BrAction::NC);
}

/**
 * Figure 4, executed: three correlated branches, with the BSV
 * transitions observed through detector behaviour. The paper's walk:
 * BR1 taken sets BR1 and BR5 to taken; BR2's taken direction leads
 * into the block that redefines x, so BR2 becomes unknown; BB4
 * (BR2 not-taken) redefines y making BR5 unknown.
 */
TEST(BatBuild, Figure4UpdateSequence)
{
    // if (y < 5)        -- BR1
    //   while (x > 10)  -- BR2 (taken body redefines x)
    //     { x = input }
    //   if (y < 10)     -- BR5
    const char *src = R"(
void main() {
    int x;
    int y;
    y = input_int();
    x = input_int();
    if (y < 5) {
        while (x > 10) {
            x = input_int();
        }
        if (y < 10) { print_str("corr"); }
    }
}
)";
    CompiledProgram p = compileAndAnalyze(src, "fig4");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    const auto &corr = p.funcs[p.mod.entry].corr;

    uint32_t br1 = UINT32_MAX, br2 = UINT32_MAX, br5 = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind != CondKind::Range)
            continue;
        std::string n = p.locs->loc(b.corrLoc).name;
        if (n == "main.y" && !b.takenSet.contains(5))
            br1 = b.idx;
        if (n == "main.x")
            br2 = b.idx;
        if (n == "main.y" && b.takenSet.contains(5))
            br5 = b.idx;
    }
    ASSERT_NE(br1, UINT32_MAX);
    ASSERT_NE(br2, UINT32_MAX);
    ASSERT_NE(br5, UINT32_MAX);

    // BR1 taken: y in (-inf,4] subsumes both its own trigger and
    // BR5's (-inf,9].
    EXPECT_EQ(actionOf(bat, br1, true, br1), BrAction::SetT);
    EXPECT_EQ(actionOf(bat, br1, true, br5), BrAction::SetT);
    // BR2 taken runs into the x-redefinition: x unknown.
    EXPECT_EQ(actionOf(bat, br2, true, br2), BrAction::SetUN);
    // BR2 not-taken leaves x alone: repeats not-taken.
    EXPECT_EQ(actionOf(bat, br2, false, br2), BrAction::SetNT);

    // And dynamically: benign runs never alarm, while corrupting y
    // between BR1 and BR5 trips the subsumption.
    {
        Vm vm(p.mod);
        vm.setInputs({"3", "20", "1", "2", "11"});
        Detector det(p);
        vm.addObserver(&det);
        vm.run();
        EXPECT_FALSE(det.alarmed());
    }
    {
        Vm vm(p.mod);
        vm.setInputs({"3", "20", "1", "2", "11"});
        Detector det(p);
        vm.addObserver(&det);
        TamperSpec spec;
        spec.randomStackTarget = false;
        spec.afterInputEvent = 3; // mid-loop, after BR1 executed
        spec.addr = vm.entryLocalAddr("y");
        spec.bytes = {100, 0, 0, 0, 0, 0, 0, 0};
        vm.addTamper(spec);
        vm.run();
        EXPECT_TRUE(det.alarmed());
    }
}

TEST(BatBuild, AliasedStoreKillsEverything)
{
    // §5.1's multiply-aliased rule: a store through a pointer that may
    // reference several objects must act as a definition of all of
    // them — here the taken edge writes *p which may be x or y, so
    // both correlated branches go unknown on that edge.
    CompiledProgram prog = compileAndAnalyze(R"(
void main() {
    int x;
    int y;
    int *p;
    x = input_int();
    y = input_int();
    if (input_int() > 0) { p = &x; } else { p = &y; }
    if (x < 5) {
        *p = input_int();
    }
    if (x < 9) { print_str("a"); }
    if (y < 9) { print_str("b"); }
}
)", "t");
    const FuncBat &bat = prog.funcs[prog.mod.entry].bat;
    const auto &corr = prog.funcs[prog.mod.entry].corr;
    uint32_t b5 = UINT32_MAX, bx9 = UINT32_MAX, by9 = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind != CondKind::Range)
            continue;
        std::string n = prog.locs->loc(b.corrLoc).name;
        if (n == "main.x" && !b.takenSet.contains(5))
            b5 = b.idx;
        if (n == "main.x" && b.takenSet.contains(5))
            bx9 = b.idx;
        if (n == "main.y")
            by9 = b.idx;
    }
    ASSERT_NE(b5, UINT32_MAX);
    ASSERT_NE(bx9, UINT32_MAX);
    ASSERT_NE(by9, UINT32_MAX);
    // Taken edge (runs the aliased store): both x and y branches UN.
    EXPECT_EQ(actionOf(bat, b5, true, bx9), BrAction::SetUN);
    EXPECT_EQ(actionOf(bat, b5, true, by9), BrAction::SetUN);
    // Not-taken edge: x in [5,inf) decides neither; y untouched.
    EXPECT_EQ(actionOf(bat, b5, false, by9), BrAction::NC);

    // And the program stays alarm-free on inputs taking either side.
    for (auto inputs : std::vector<std::vector<std::string>>{
             {"1", "2", "1", "3"}, {"1", "2", "-1", "3"},
             {"7", "2", "1"}, {"7", "2", "-1"}}) {
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        Detector det(prog);
        vm.addObserver(&det);
        vm.run();
        EXPECT_FALSE(det.alarmed());
    }
}

TEST(BatBuild, EntryRegionStopsAtFirstBranch)
{
    // The fact from `flag = 1` must not leak past the first branch
    // into path-dependent territory: after the branch, the store in
    // one arm re-establishes, the other arm leaves the entry value.
    CompiledProgram prog = compileAndAnalyze(R"(
void main() {
    int flag;
    flag = 1;
    if (input_int() > 0) {
        flag = 0;
    }
    if (flag == 1) { print_str("kept"); }
}
)", "t");
    // Both directions are legitimate; no benign alarm either way.
    for (const char *in : {"5", "-5"}) {
        Vm vm(prog.mod);
        vm.setInputs({in});
        Detector det(prog);
        vm.addObserver(&det);
        RunResult r = vm.run();
        EXPECT_FALSE(det.alarmed()) << in;
        (void)r;
    }
    // Entry pins SET_T; the taken edge of the input branch (running
    // flag=0) must re-pin SET_NT.
    const FuncBat &bat = prog.funcs[prog.mod.entry].bat;
    const auto &corr = prog.funcs[prog.mod.entry].corr;
    uint32_t bflag = UINT32_MAX, binput = UINT32_MAX;
    for (const auto &b : corr.branches) {
        if (b.kind == CondKind::Range &&
            prog.locs->loc(b.corrLoc).name == "main.flag")
            bflag = b.idx;
        else
            binput = b.idx;
    }
    ASSERT_NE(bflag, UINT32_MAX);
    ASSERT_NE(binput, UINT32_MAX);
    EXPECT_EQ(actionOf(bat, binput, true, bflag), BrAction::SetNT);
    BrAction entryAct = BrAction::NC;
    for (const auto &[idx, act] : bat.entryActions)
        if (idx == bflag)
            entryAct = act;
    EXPECT_EQ(entryAct, BrAction::SetT);
}

TEST(BatBuild, TotalActionsAccounting)
{
    CompiledProgram p = compileAndAnalyze(R"(
void main() {
    int x;
    x = input_int();
    if (x < 3) { print_str("a"); }
    if (x < 7) { print_str("b"); }
}
)", "t");
    const FuncBat &bat = p.funcs[p.mod.entry].bat;
    size_t counted = bat.entryActions.size();
    for (uint32_t i = 0; i < bat.numBranches; i++)
        counted += bat.onTaken[i].size() + bat.onNotTaken[i].size();
    EXPECT_EQ(counted, bat.totalActions());
    EXPECT_GT(counted, 0u);
}

} // namespace
} // namespace ipds
