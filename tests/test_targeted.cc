/**
 * @file
 * Targeted-attack regressions: for every workload, one deterministic,
 * semantically meaningful attack on a named decision variable that
 * IPDS must detect — privilege escalation, state-machine corruption,
 * kill-switch flips. These pin the suite's security value: a refactor
 * that silently loses one of these detections fails here, not in a
 * statistics shift.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/program.h"
#include "ipds/detector.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ipds {
namespace {

struct Attack
{
    const char *workload;
    const char *variable;   ///< entry-function local to corrupt
    uint32_t afterInput;    ///< trigger: after Nth input event
    int64_t newValue;       ///< value written (8 bytes LE)
};

// Without a printer gtest dumps the struct's raw bytes, string pointers
// and padding included, so the ctest names of these cases changed on
// every run under ASLR.
void
PrintTo(const Attack &atk, std::ostream *os)
{
    *os << atk.workload << ' ' << atk.variable << '=' << atk.newValue
        << " after input " << atk.afterInput;
}

class TargetedAttackTest : public ::testing::TestWithParam<Attack>
{};

TEST_P(TargetedAttackTest, IsDetected)
{
    const Attack &atk = GetParam();
    const Workload &wl = workloadByName(atk.workload);
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

    Vm vm(prog.mod);
    vm.setInputs(wl.benignInputs);
    vm.setFuel(2'000'000);
    Detector det(prog);
    vm.addObserver(&det);

    TamperSpec spec;
    spec.randomStackTarget = false;
    spec.afterInputEvent = atk.afterInput;
    spec.addr = vm.entryLocalAddr(atk.variable);
    uint64_t v = static_cast<uint64_t>(atk.newValue);
    spec.bytes.resize(8);
    for (int i = 0; i < 8; i++)
        spec.bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    vm.addTamper(spec);

    RunResult r = vm.run();
    ASSERT_EQ(r.faultTampers.size(), 1u);
    EXPECT_TRUE(det.alarmed())
        << atk.workload << ": corrupting " << atk.variable << " to "
        << atk.newValue << " after input #" << atk.afterInput
        << " was NOT detected";
}

TEST_P(TargetedAttackTest, BenignTwinIsClean)
{
    // The same session without the tamper must stay silent — the
    // detection above is attributable to the corruption alone.
    const Attack &atk = GetParam();
    const Workload &wl = workloadByName(atk.workload);
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    Vm vm(prog.mod);
    vm.setInputs(wl.benignInputs);
    Detector det(prog);
    vm.addObserver(&det);
    vm.run();
    EXPECT_FALSE(det.alarmed());
}

INSTANTIATE_TEST_SUITE_P(
    All, TargetedAttackTest,
    ::testing::Values(
        // telnetd: escalate a guest session to root mid-stream.
        Attack{"telnetd", "level", 3, 2},
        // wu-ftpd: flip the anonymous flag to full account.
        Attack{"wu-ftpd", "anon", 3, 0},
        // xinetd: flip the global kill switch on.
        Attack{"xinetd", "drop_all", 3, 1},
        // crond: force an invalid schedule to look validated.
        Attack{"crond", "valid", 4, 77},
        // sysklogd: silence the logger.
        Attack{"sysklogd", "enabled", 3, 0},
        // atftpd: enable uploads on a read-only server.
        Attack{"atftpd", "allow_write", 4, 1},
        // httpd: grant admin session state without credentials.
        Attack{"httpd", "authed", 4, 1},
        // sendmail: skip the protocol to DATA state.
        Attack{"sendmail", "state", 2, 9},
        // sshd: the benign session IS privileged — revoking the bit
        // mid-session is the infeasible transition here.
        Attack{"sshd", "privileged", 5, 0},
        // portmap: freeze-flag corruption.
        Attack{"portmap", "locked", 4, 1}),
    [](const auto &info) {
        std::string n = info.param.workload;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(ParamNames, PrintWithoutRawBytes)
{
    // A parameter printed as a byte dump carries process addresses into
    // the test's name; every value-parameterized case here must have a
    // printer so its name is the same on every run.
    const auto &ut = *::testing::UnitTest::GetInstance();
    for (int s = 0; s < ut.total_test_suite_count(); s++) {
        const auto &suite = *ut.GetTestSuite(s);
        for (int t = 0; t < suite.total_test_count(); t++) {
            const auto &info = *suite.GetTestInfo(t);
            if (info.value_param() == nullptr)
                continue;
            EXPECT_EQ(std::string(info.value_param()).find("-byte object <"),
                      std::string::npos)
                << suite.name() << '.' << info.name() << ": "
                << info.value_param();
        }
    }
}

} // namespace
} // namespace ipds
