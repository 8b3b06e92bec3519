#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

/**
 * @file
 * The benchmark's output checks. Each returns "" when the result is
 * right and a one-line reason otherwise; a reason counts as a failed
 * operation and fails the run. They run outside the timed windows
 * (or on results the window already holds), and
 * perfbench/tests/test_checks.cc shows each one rejecting a wrong
 * result.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "gen/corpus.h"
#include "ipds/detector.h"
#include "serve/client.h"
#include "timing/cpu.h"
#include "timing/config.h"

namespace perfbench {

using namespace ipds;

/** What a run concluded: its alarms and statistics. */
struct RunVerdict
{
    std::vector<Alarm> alarms;
    DetectorStats det;
    TimingStats tim;
};

/** serve_stream: a served Result against the offline replay
 *  (ReplayPlan) of the same bytes. */
std::string checkServed(const serve::StreamResult &r, uint64_t wantDigest,
                        uint64_t wantSessions);

/** A trace's offline verdict: an attacked trace must alarm, a benign
 *  one must not (zero false positives). */
std::string checkTraceVerdict(const std::string &name, bool attacked,
                              uint64_t alarms);

/** Two runs of the same sessions reached the same verdict. */
std::string checkSameVerdict(const std::string &what,
                             const RunVerdict &got,
                             const RunVerdict &want);

/** protect_timed: a benign unit raised no alarm and repeated the
 *  statistics of its first run. */
std::string checkBenignUnit(const std::string &name, const RunVerdict &got,
                            const RunVerdict &first);

/** One session through the Session facade (threaded VM, Detector,
 *  CpuModel with @p cfg). */
RunVerdict sessionVerdict(const CompiledProgram &prog,
                          const std::vector<std::string> &inputs,
                          const TimingConfig &cfg);

/** The same session through the oracles: the switch VM engine,
 *  ReferenceDetector and a CpuModel with @p cfg. */
RunVerdict referenceVerdict(const CompiledProgram &prog,
                            const std::vector<std::string> &inputs,
                            const TimingConfig &cfg);

/** corpus_campaign: the seed compiled and its benign run is clean. */
std::string checkCorpusProgram(const gen::CorpusProgramResult &p);

/** corpus_campaign: gen::diffOne found every oracle in agreement. */
std::string checkDiff(const gen::DiffResult &d);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
