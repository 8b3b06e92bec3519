#include "attack/campaign.h"

#include "obs/names.h"
#include "support/diag.h"
#include "support/rng.h"
#include "support/threadpool.h"

namespace ipds {

uint32_t
CampaignResult::numCfChanged() const
{
    uint32_t n = 0;
    for (const auto &o : outcomes)
        n += o.cfChanged ? 1 : 0;
    return n;
}

uint32_t
CampaignResult::numDetected() const
{
    uint32_t n = 0;
    for (const auto &o : outcomes)
        n += o.detected ? 1 : 0;
    return n;
}

double
CampaignResult::pctCfChanged() const
{
    return attacks() ? 100.0 * numCfChanged() / attacks() : 0.0;
}

double
CampaignResult::pctDetected() const
{
    return attacks() ? 100.0 * numDetected() / attacks() : 0.0;
}

double
CampaignResult::pctDetectedOfCf() const
{
    uint32_t cf = numCfChanged();
    return cf ? 100.0 * numDetected() / cf : 0.0;
}

void
CampaignResult::exportMetrics(obs::MetricsRegistry &reg) const
{
    namespace n = obs::names;
    reg.add(reg.counter(n::kCampAttacks), attacks());
    uint32_t fired = 0;
    for (const auto &o : outcomes)
        fired += o.fired ? 1 : 0;
    reg.add(reg.counter(n::kCampFired), fired);
    reg.add(reg.counter(n::kCampCfChanged), numCfChanged());
    reg.add(reg.counter(n::kCampDetected), numDetected());
    reg.add(reg.counter(n::kCampFalsePositives),
            falsePositive ? 1 : 0);
    obs::MetricHandle h =
        reg.histogram(n::kCampDetectionBranchHist);
    for (const auto &o : outcomes)
        if (o.detected)
            reg.observe(h, o.detectionBranchIndex);
}

bool
benignRunIsClean(const CompiledProgram &prog,
                 const std::vector<std::string> &inputs, uint64_t fuel)
{
    Vm vm(prog.mod);
    vm.setInputs(inputs);
    vm.setFuel(fuel);
    Detector det(prog);
    vm.addObserver(&det);
    vm.run();
    return !det.alarmed();
}

CampaignResult
runCampaign(const CompiledProgram &prog,
            const std::vector<std::string> &inputs,
            const CampaignConfig &cfg)
{
    CampaignResult res;
    res.program = prog.mod.name;

    // Golden run: benign session, detector attached. Its branch trace
    // is the control-flow reference, and it must never alarm.
    std::vector<BranchEvent> golden;
    {
        Vm vm(prog.mod);
        vm.setInputs(inputs);
        vm.setFuel(cfg.fuel);
        Detector det(prog);
        vm.addObserver(&det);
        RunResult r = vm.run();
        if (r.exit == ExitKind::OutOfFuel)
            warn("campaign %s: golden run hit the fuel limit",
                 prog.mod.name.c_str());
        res.falsePositive = det.alarmed();
        res.goldenSteps = r.steps;
        res.goldenInputEvents = r.inputEventCount;
        golden = std::move(r.branchTrace);
    }

    // Attacks are mutually independent: each run owns its Vm and
    // Detector, seeds derive from the attack index, and outcomes land
    // in per-index slots — so sharding them across worker threads
    // yields results identical to the sequential loop.
    uint32_t maxEvent = std::max(1u, res.goldenInputEvents);
    res.outcomes.resize(cfg.numAttacks);
    ThreadPool pool(cfg.numThreads);
    pool.parallelFor(cfg.numAttacks, [&](uint32_t i) {
        uint64_t seed = cfg.baseSeed + 0x9e37 * (i + 1);
        Rng trigRng(seed ^ 0xabcdef);

        Vm vm(prog.mod);
        vm.setInputs(inputs);
        vm.setFuel(cfg.fuel);
        Detector det(prog);
        vm.addObserver(&det);

        TamperSpec spec;
        spec.randomStackTarget = true;
        spec.seed = seed;
        spec.afterInputEvent =
            1 + static_cast<uint32_t>(trigRng.below(maxEvent));
        vm.addTamper(spec);

        RunResult r = vm.run();
        AttackOutcome out;
        out.fired = !r.faultTampers.empty();
        out.exit = r.exit;
        if (out.fired)
            out.tamper = std::move(r.faultTampers.front());
        out.cfChanged = !(r.branchTrace == golden);
        out.detected = det.alarmed();
        if (out.detected)
            out.detectionBranchIndex =
                det.alarms().front().branchIndex;
        res.outcomes[i] = std::move(out);
    });
    return res;
}

} // namespace ipds
