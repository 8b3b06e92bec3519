/**
 * @file
 * Zero-false-positive fuzzing: generate random (but always
 * terminating) MiniC programs, execute them on random inputs with the
 * detector attached, and assert that NO benign execution ever raises
 * an alarm. This is the paper's central correctness claim ("IPDS
 * achieves a zero false positive rate since it always acts
 * conservatively") exercised mechanically over hundreds of program
 * shapes the authors never wrote down. A source-mutation sweep over
 * the paper workloads pins the other side: malformed MiniC ends in a
 * typed error or a clean run, never a crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "core/program.h"
#include "ipds/detector.h"
#include "support/diag.h"
#include "support/rng.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

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

/** [begin, end) of each token: an identifier or number run, or one
 *  other non-space byte. */
std::vector<std::pair<size_t, size_t>>
tokenSpans(const std::string &s)
{
    auto word = [&](size_t i) {
        return std::isalnum(static_cast<unsigned char>(s[i])) ||
            s[i] == '_';
    };
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < s.size();) {
        size_t j = i + 1;
        if (word(i))
            while (j < s.size() && word(j))
                j++;
        if (!std::isspace(static_cast<unsigned char>(s[i])))
            out.push_back({i, j});
        i = j;
    }
    return out;
}

/** One random edit: flip a bit, insert a byte, delete bytes, or drop
 *  or duplicate a run of up to four tokens. */
void
mutateOnce(std::string &s, Rng &rng)
{
    static const char kBytes[] = "{}()[];,=<>!+-*/%&|\"'_ \n09xyz";
    const size_t at = rng.below(s.size());
    const uint64_t op = rng.below(5);
    if (op == 0) {
        s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8)));
    } else if (op == 1) {
        s.insert(s.begin() + at, kBytes[rng.below(sizeof kBytes - 1)]);
    } else if (op == 2) {
        s.erase(at, 1 + rng.below(8));
    } else {
        auto toks = tokenSpans(s);
        size_t first = rng.below(toks.size());
        size_t last = std::min(toks.size() - 1, first + rng.below(4));
        size_t b = toks[first].first, e = toks[last].second;
        if (op == 3)
            s.erase(b, e - b);
        else
            s.insert(e, " " + s.substr(b, e - b));
    }
}

/**
 * Source-mutation contract: a mangled paper workload is either
 * rejected with a FatalError or compiles, and then runs its benign
 * inputs to one of the four clean ExitKinds under a fuel cap. Nothing
 * else may escape, PanicError least of all. Alarms are not checked: a
 * mutant can write a real overflow (a strncpy bound raised past its
 * buffer, say), which the detector rightly flags.
 */
TEST(SourceMutation, EveryMutantIsRejectedTypedOrRunsToACleanEnd)
{
    constexpr uint32_t kMutants = 7500; // about 1 s at -O2
    const std::vector<Workload> &wls = allWorkloads();
    Rng rng(0x6d757461);
    uint32_t rejected = 0, ran = 0;
    for (uint32_t i = 0; i < kMutants; i++) {
        const Workload &wl = wls[i % wls.size()];
        std::string src = wl.source;
        for (uint64_t n = 1 + rng.below(2); n > 0; n--)
            mutateOnce(src, rng);
        try {
            CompiledProgram prog;
            try {
                prog = compileAndAnalyze(src, wl.name);
            } catch (const FatalError &) {
                rejected++;
                continue;
            }
            Vm vm(prog.mod);
            vm.setInputs(wl.benignInputs);
            vm.setFuel(200000);
            Detector det(prog);
            vm.addObserver(&det);
            vm.run(); // returning at all is a clean ExitKind
            ran++;
        } catch (const std::exception &e) {
            FAIL() << wl.name << " mutant " << i << " threw: "
                   << e.what() << "\n" << src;
        }
    }
    // Both outcomes are common, so the sweep reaches past the parser.
    EXPECT_GT(rejected, kMutants / 4);
    EXPECT_GT(ran, kMutants / 20);
}

} // namespace
} // namespace ipds
