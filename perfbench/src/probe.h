#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

/**
 * @file
 * Calls into the layers that several workloads share: capturing a
 * trace, streaming one trace to a server, and the standalone re-runs
 * that time each layer alone on a workload's own inputs (the
 * per-layer metrics of the traced run, perfbench/README.md).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "ipds/detector.h"
#include "serve/client.h"
#include "serve/server.h"
#include "spans.h"
#include "timing/cpu.h"

namespace perfbench {

/** Session's default instruction budget per session. */
inline constexpr uint64_t kSessionFuel = 50'000'000;
/** The corpus campaign's budget for attack runs (gen/corpus.h). */
inline constexpr uint64_t kRecipeFuel = 2'000'000;

/** A batch of identical sessions of one program: the unit that is
 *  captured, served and re-run. */
struct SessionSet
{
    const BenchProgram *prog = nullptr;
    std::vector<TamperSpec> tampers; ///< armed in every session
    uint32_t sessions = 1;
    uint64_t fuel = kSessionFuel; ///< instruction budget per session
};

/** Work of one session of a SessionSet. */
struct SessionCost
{
    uint64_t events = 0;       ///< detector branch events
    uint64_t instructions = 0; ///< VM instructions
};

/** Run one session of @p s (a probe run, not timed). */
SessionCost costOfOneSession(const SessionSet &s);

/** A captured trace and its offline (ReplayPlan) verdict. */
struct CapturedTrace
{
    std::vector<uint8_t> bytes;
    uint64_t digest = 0; ///< serve::alarmDigest of the offline alarms
    uint64_t alarms = 0;
    uint64_t sessions = 0;
    DetectorStats det; ///< offline replay
    uint64_t vmInstructions = 0;
    uint64_t vmFlushes = 0;
    std::string error; ///< capture and offline replay disagree
};

/**
 * Capture @p s through a CapturePlan into @p path, replay the file
 * offline through a ReplayPlan, read it into memory and delete it.
 * Spans: replay.capture, replay.offline.
 */
CapturedTrace captureTrace(const SessionSet &s, const std::string &path);

/** Client-side times of one served stream. */
struct StreamTimes
{
    double handshakeS = 0; ///< connect + helloV2
    double sendS = 0;      ///< sendTraceBytes
    double sendCpuS = 0;   ///< client thread CPU inside sendTraceBytes
    double verdictS = 0;   ///< end(): StreamEnd to parsed Result
    double totalS = 0;     ///< connect to Result
    serve::StreamResult result;
};

/**
 * Stream @p bytes over a new connection to the unix socket @p sock
 * (connect, helloV2, sendTraceBytes, end). Spans serve.stream with
 * children serve.handshake, serve.send, serve.verdict_wait, all with
 * id @p streamId. FatalError on transport failure.
 */
StreamTimes streamTrace(const std::string &sock,
                        const std::string &tenant, uint64_t moduleHash,
                        const std::vector<uint8_t> &bytes,
                        uint64_t streamId);

/** A counter of the server's own registry, read from /statsz. */
uint64_t serverCounter(const serve::Server &srv, const char *name);

/** Standalone cost of every layer on one SessionSet. */
struct SetProbe
{
    double execS = 0;       ///< Session, detector only
    double captureS = 0;    ///< the same Session with a CapturePlan
    double timedS = 0;      ///< Session + Table 1 timing model
    double timedNoDetS = 0; ///< timed Session with detector(false)
    double vmRunS = 0;      ///< Vm::run with no observers
    double detectS = 0;     ///< Detector alone over recorded events
    double parseS = 0;      ///< parseHeader + parseChunk over the chunks
    double feedS = 0;       ///< ShardCursor::feed (decode + detect)
    double frameS = 0;      ///< appendFrame + FrameDecoder::next
    DetectorStats det;
    TimingStats tim;
    uint64_t vmInstructions = 0;
    uint64_t vmFlushes = 0;
    std::vector<uint8_t> trace; ///< the captured bytes
    uint64_t moduleHash = 0;    ///< the program's registry key
    uint64_t sessions = 0;
    uint64_t digest = 0;        ///< alarm digest of the exec run
    std::string error;          ///< re-runs disagree on the verdict
};

/** Time each layer alone on @p s; @p path is a scratch file. */
SetProbe probeSet(const SessionSet &s, const std::string &path);

/** Weights that place a probe's layer times in a workload's budget:
 *  how often the window (or set-up) ran that layer on the set. */
struct ProbeWeights
{
    double vm = 1;     ///< vm.run_s
    double detect = 1; ///< ipds.detect_s
    double timing = 1; ///< timing.*
    double encode = 1; ///< replay.encode_s
    double replay = 1; ///< chunk parse, decode, framing
};

/**
 * The per-layer metrics of one traced run, with a note per metric on
 * how it was measured on this workload.
 */
class LayerBudget
{
  public:
    void add(const std::string &name, double v, const std::string &how);
    void set(const std::string &name, double v, const std::string &how);
    double get(const std::string &name) const;

    /** Add @p p's layer times and counts, scaled by @p w. */
    void addProbe(const SetProbe &p, const ProbeWeights &w,
                  const std::string &how);

    /** Print the per-layer table (each metric beside the end-to-end
     *  metrics it should move) and add every metric to @p out. */
    void report(Outcome &out) const;

  private:
    std::map<std::string, double> value;
    std::map<std::string, std::string> source;
};

/** Add the compile-pipeline spans among spans [begin, end)
 *  (gen.generate, frontend.compile, analysis.analyze, vm.decode) to
 *  their per-layer metrics. */
void addPipelineSpans(const std::vector<SpanRecord> &s, size_t begin,
                      size_t end, LayerBudget &b, const std::string &how);

/** analysis.hash_tries_per_func over @p progs. */
double hashTriesPerFunc(const std::vector<const BenchProgram *> &progs);

/** Run every attack recipe of generated program @p p once (VM only)
 *  and count the recipes whose writes all landed. */
void countFiredRecipes(const BenchProgram &p, uint64_t &fired,
                       uint64_t &tried);

/**
 * Serve every trace of @p traces once, one connection at a time, to
 * a fresh server (pool of 2) that registers @p progs: the serve
 * probe of workloads whose window does not serve. Adds the serve.*
 * client metrics to @p b; serve.transport_s subtracts each trace's
 * standalone parse + decode + detect time. Verdicts are checked.
 */
void probeServe(const std::vector<const BenchProgram *> &progs,
                const std::vector<const SetProbe *> &traces,
                const std::string &sock, LayerBudget &b, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
