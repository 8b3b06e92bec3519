/**
 * @file
 * Zero-false-positive fuzzing: generate random (but always
 * terminating) MiniC programs, execute them on random inputs with the
 * detector attached, and assert that NO benign execution ever raises
 * an alarm. This is the paper's central correctness claim ("IPDS
 * achieves a zero false positive rate since it always acts
 * conservatively") exercised mechanically over hundreds of program
 * shapes the authors never wrote down.
 */

#include <gtest/gtest.h>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "support/rng.h"
#include "vm/vm.h"

#include "program_gen.h"

namespace ipds {
namespace {

using testutil::ProgramGen;

class ZeroFpFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ZeroFpFuzz, BenignRunsNeverAlarm)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();

    CompiledProgram prog;
    ASSERT_NO_THROW(prog = compileAndAnalyze(src, "fuzz"))
        << "generator produced invalid MiniC:\n" << src;

    // Three different benign input sets per program.
    for (int round = 0; round < 3; round++) {
        Vm vm(prog.mod);
        vm.setInputs(gen.inputs());
        vm.setFuel(500000);
        Detector det(prog);
        vm.addObserver(&det);
        RunResult r = vm.run();
        EXPECT_NE(r.exit, ExitKind::Trapped)
            << r.trapMessage << "\n" << src;
        EXPECT_NE(r.exit, ExitKind::OutOfFuel) << src;
        ASSERT_FALSE(det.alarmed())
            << "FALSE POSITIVE on benign input!\nprogram:\n" << src;
    }
}

TEST_P(ZeroFpFuzz, ExecutionIsDeterministic)
{
    ProgramGen gen(GetParam());
    std::string src = gen.generate();
    auto in = gen.inputs();
    CompiledProgram prog = compileAndAnalyze(src, "fuzz");

    auto runOnce = [&]() {
        Vm vm(prog.mod);
        vm.setInputs(in);
        vm.setFuel(500000);
        return vm.run();
    };
    RunResult a = runOnce();
    RunResult b = runOnce();
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_TRUE(a.branchTrace == b.branchTrace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroFpFuzz,
                         ::testing::Range<uint64_t>(1, 81));

/**
 * Attack fuzzing: random programs under random tampering. The key
 * invariant is that an alarm implies the branch trace diverged from
 * the golden run — an alarm on an identical trace would mean the
 * detector flagged a path the benign execution also takes, i.e. a
 * false positive smuggled in through the attack path.
 */
class AttackFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(AttackFuzz, DetectionImpliesDivergence)
{
    ProgramGen gen(GetParam() + 5000);
    std::string src = gen.generate();
    auto in = gen.inputs();
    CompiledProgram prog = compileAndAnalyze(src, "afuzz");

    // Golden run.
    std::vector<BranchEvent> golden;
    {
        Vm vm(prog.mod);
        vm.setInputs(in);
        vm.setFuel(500000);
        Detector det(prog);
        vm.addObserver(&det);
        RunResult r = vm.run();
        ASSERT_FALSE(det.alarmed()) << src;
        golden = std::move(r.branchTrace);
    }

    for (uint32_t atk = 0; atk < 10; atk++) {
        Vm vm(prog.mod);
        vm.setInputs(in);
        vm.setFuel(500000);
        Detector det(prog);
        vm.addObserver(&det);
        TamperSpec spec;
        spec.randomStackTarget = true;
        spec.seed = GetParam() * 131 + atk;
        spec.afterInputEvent = 1 + atk % 5;
        vm.addTamper(spec);
        RunResult r = vm.run();
        if (det.alarmed()) {
            EXPECT_FALSE(r.branchTrace == golden)
                << "alarm without control-flow divergence!\n" << src;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackFuzz,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
} // namespace ipds
