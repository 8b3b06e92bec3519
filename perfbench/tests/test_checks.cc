/**
 * @file
 * Each output check of the benchmark accepts a right result and
 * rejects a wrong one. Build and run with
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "checks.h"
#include "gen/corpus.h"
#include "serve/server.h"
#include "timing/config.h"
#include "workloads/workloads.h"

using namespace perfbench;

namespace {

serve::StreamResult
okResult(uint64_t digest, uint64_t sessions)
{
    serve::StreamResult r;
    r.ok = true;
    r.alarmDigest = digest;
    r.sessions = sessions;
    return r;
}

RunVerdict
someVerdict()
{
    RunVerdict v;
    v.alarms.push_back(Alarm{3, 0x1040, true, BsvState::NotTaken, 17});
    v.det.branchesSeen = 100;
    v.det.checksEnqueued = 40;
    v.tim.cycles = 1234;
    v.tim.instructions = 999;
    return v;
}

gen::CorpusProgramResult
goodProgram()
{
    gen::CorpusProgramResult p;
    p.seed = 7;
    p.compiled = true;
    p.outcomes.resize(gen::GenConfig{}.recipesPerProgram);
    return p;
}

} // namespace

TEST(ServedCheck, AcceptsTheOfflineVerdict)
{
    EXPECT_EQ(checkServed(okResult(0xabc, 12), 0xabc, 12), "");
}

TEST(ServedCheck, RejectsWrongDigestSessionsOrRejection)
{
    EXPECT_NE(checkServed(okResult(0xabd, 12), 0xabc, 12), "");
    EXPECT_NE(checkServed(okResult(0xabc, 11), 0xabc, 12), "");
    serve::StreamResult rejected = okResult(0xabc, 12);
    rejected.ok = false;
    rejected.errorCode = "trace";
    EXPECT_NE(checkServed(rejected, 0xabc, 12), "");
    serve::StreamResult malformed = okResult(0xabc, 12);
    malformed.malformed = true;
    EXPECT_NE(checkServed(malformed, 0xabc, 12), "");
}

TEST(TraceVerdictCheck, AttackedMustAlarmBenignMustNot)
{
    EXPECT_EQ(checkTraceVerdict("a", true, 3), "");
    EXPECT_EQ(checkTraceVerdict("b", false, 0), "");
    EXPECT_NE(checkTraceVerdict("a", true, 0), "");
    EXPECT_NE(checkTraceVerdict("b", false, 1), "");
}

TEST(SameVerdictCheck, RejectsAnyDifference)
{
    const RunVerdict v = someVerdict();
    EXPECT_EQ(checkSameVerdict("x", v, v), "");

    RunVerdict alarm = v;
    alarm.alarms[0].pc += 4;
    EXPECT_NE(checkSameVerdict("x", alarm, v), "");
    RunVerdict extra = v;
    extra.alarms.push_back(v.alarms[0]);
    EXPECT_NE(checkSameVerdict("x", extra, v), "");
    RunVerdict det = v;
    det.det.actionsApplied++;
    EXPECT_NE(checkSameVerdict("x", det, v), "");
    RunVerdict tim = v;
    tim.tim.ipdsStallCycles++;
    EXPECT_NE(checkSameVerdict("x", tim, v), "");
}

TEST(BenignUnitCheck, RejectsAlarmsAndDrift)
{
    RunVerdict first = someVerdict();
    first.alarms.clear();
    EXPECT_EQ(checkBenignUnit("u", first, first), "");

    EXPECT_NE(checkBenignUnit("u", someVerdict(), first), "");
    RunVerdict drift = first;
    drift.tim.cycles++;
    EXPECT_NE(checkBenignUnit("u", drift, first), "");
}

TEST(ReferenceOracle, AgreesWithSessionAndCatchesADifference)
{
    const Workload &wl = workloadByName("sendmail");
    CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);
    const RunVerdict fast =
        sessionVerdict(prog, wl.benignInputs, table1Config());
    const RunVerdict ref =
        referenceVerdict(prog, wl.benignInputs, table1Config());
    EXPECT_GT(fast.det.branchesSeen, 0u);
    EXPECT_EQ(checkSameVerdict("oracle", fast, ref), "");

    RunVerdict wrong = fast;
    wrong.tim.cycles++;
    EXPECT_NE(checkSameVerdict("oracle", wrong, ref), "");
}

TEST(CorpusCheck, RejectsUncompiledFalsePositiveAndMissingRuns)
{
    EXPECT_EQ(checkCorpusProgram(goodProgram()), "");

    gen::CorpusProgramResult bad = goodProgram();
    bad.compiled = false;
    EXPECT_NE(checkCorpusProgram(bad), "");
    bad = goodProgram();
    bad.falsePositive = true;
    EXPECT_NE(checkCorpusProgram(bad), "");
    bad = goodProgram();
    bad.outcomes.pop_back();
    EXPECT_NE(checkCorpusProgram(bad), "");
}

TEST(DiffCheck, RejectsMismatchOrEmptyComparison)
{
    gen::DiffResult d;
    d.seed = 3;
    d.ok = true;
    d.runsCompared = 28;
    EXPECT_EQ(checkDiff(d), "");

    gen::DiffResult mismatch = d;
    mismatch.ok = false;
    mismatch.firstMismatch = "golden: exit code";
    EXPECT_NE(checkDiff(mismatch), "");
    gen::DiffResult empty = d;
    empty.runsCompared = 0;
    EXPECT_NE(checkDiff(empty), "");
}
