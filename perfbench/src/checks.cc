#include "checks.h"

#include "ipds/reference.h"
#include "obs/session.h"
#include "support/diag.h"
#include "vm/vm.h"

namespace perfbench {

namespace {

bool
sameAlarms(const std::vector<Alarm> &a, const std::vector<Alarm> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++)
        if (a[i].func != b[i].func || a[i].pc != b[i].pc ||
            a[i].actualTaken != b[i].actualTaken ||
            a[i].expected != b[i].expected ||
            a[i].branchIndex != b[i].branchIndex)
            return false;
    return true;
}

} // namespace

std::string
checkServed(const serve::StreamResult &r, uint64_t wantDigest,
            uint64_t wantSessions)
{
    if (!r.ok)
        return strprintf("stream rejected (%s): %s", r.errorCode.c_str(),
                         r.text.substr(0, 120).c_str());
    if (r.malformed)
        return "Result frame is missing required keys";
    if (r.alarmDigest != wantDigest)
        return strprintf("served alarm digest %016llx != offline %016llx",
                         static_cast<unsigned long long>(r.alarmDigest),
                         static_cast<unsigned long long>(wantDigest));
    if (r.sessions != wantSessions)
        return strprintf("served %llu sessions, offline %llu",
                         static_cast<unsigned long long>(r.sessions),
                         static_cast<unsigned long long>(wantSessions));
    return "";
}

std::string
checkTraceVerdict(const std::string &name, bool attacked, uint64_t alarms)
{
    if (attacked && alarms == 0)
        return name + ": attacked trace raised no alarm";
    if (!attacked && alarms != 0)
        return strprintf("%s: benign trace raised %llu alarms "
                         "(false positives)",
                         name.c_str(),
                         static_cast<unsigned long long>(alarms));
    return "";
}

std::string
checkSameVerdict(const std::string &what, const RunVerdict &got,
                 const RunVerdict &want)
{
    if (!sameAlarms(got.alarms, want.alarms))
        return strprintf("%s: alarms differ (%zu vs %zu)", what.c_str(),
                         got.alarms.size(), want.alarms.size());
    if (!(got.det == want.det))
        return strprintf("%s: DetectorStats differ (branches %llu vs "
                         "%llu)",
                         what.c_str(),
                         static_cast<unsigned long long>(
                             got.det.branchesSeen),
                         static_cast<unsigned long long>(
                             want.det.branchesSeen));
    if (!(got.tim == want.tim))
        return strprintf("%s: TimingStats differ (cycles %llu vs %llu)",
                         what.c_str(),
                         static_cast<unsigned long long>(got.tim.cycles),
                         static_cast<unsigned long long>(want.tim.cycles));
    return "";
}

std::string
checkBenignUnit(const std::string &name, const RunVerdict &got,
                const RunVerdict &first)
{
    if (!got.alarms.empty())
        return strprintf("%s: benign sessions raised %zu alarms "
                         "(false positives)",
                         name.c_str(), got.alarms.size());
    return checkSameVerdict(name + " repeated run", got, first);
}

RunVerdict
sessionVerdict(const CompiledProgram &prog,
               const std::vector<std::string> &inputs,
               const TimingConfig &cfg)
{
    Session s =
        Session::builder().program(prog).inputs(inputs).timing(cfg).build();
    s.run();
    return RunVerdict{s.alarms(), s.detectorStats(), s.timingStats()};
}

RunVerdict
referenceVerdict(const CompiledProgram &prog,
                 const std::vector<std::string> &inputs,
                 const TimingConfig &cfg)
{
    CpuModel cpu(cfg);
    ReferenceDetector ref(prog);
    Vm vm(prog.mod);
    vm.setEngine(VmEngine::Switch);
    vm.setInputs(inputs);
    vm.setRecordTrace(false);
    // Detector first: its requests precede the timing model's drain
    // of the same instruction (as in the Session wiring).
    if (cfg.ipdsEnabled) {
        ref.setRequestSink(cpu.requestSink());
        vm.addObserver(&ref);
    }
    vm.addObserver(&cpu);
    vm.run();
    return RunVerdict{ref.alarms(), ref.stats(), cpu.stats()};
}

std::string
checkCorpusProgram(const gen::CorpusProgramResult &p)
{
    if (!p.compiled)
        return strprintf("seed %llu did not compile: %s",
                         static_cast<unsigned long long>(p.seed),
                         p.error.c_str());
    if (p.falsePositive)
        return strprintf("seed %llu: benign golden run alarmed (false "
                         "positive)",
                         static_cast<unsigned long long>(p.seed));
    if (p.outcomes.size() != gen::GenConfig{}.recipesPerProgram)
        return strprintf("seed %llu: %zu recipe runs, expected %u",
                         static_cast<unsigned long long>(p.seed),
                         p.outcomes.size(),
                         gen::GenConfig{}.recipesPerProgram);
    return "";
}

std::string
checkDiff(const gen::DiffResult &d)
{
    if (!d.ok)
        return strprintf("seed %llu differential check: %s",
                         static_cast<unsigned long long>(d.seed),
                         d.firstMismatch.c_str());
    if (d.runsCompared == 0)
        return strprintf("seed %llu differential check compared nothing",
                         static_cast<unsigned long long>(d.seed));
    return "";
}

} // namespace perfbench
