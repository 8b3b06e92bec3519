/**
 * @file
 * serve_stream: a closed loop of kClients connections, one thread
 * each, streaming long captured traces back to back over AF_UNIX to
 * an in-process serve::Server whose pool (kPool) leaves one actor
 * worker, so clients + ingest thread + worker stay within 4 busy
 * threads. The traces come from several registered modules —
 * generated programs and paper workloads — and some are captured
 * with a gen attack recipe armed, so their verdicts carry alarms.
 * The VM, frontend and analysis run only in set-up.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "checks.h"
#include "obs/names.h"
#include "obs/session.h"
#include "probe.h"
#include "replay/format.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kGenPrograms = 3;       ///< beside the ten paper workloads
constexpr size_t kAttacked = 2;          ///< generated programs attacked
constexpr uint64_t kTraceEvents = 1'050'000; ///< >= 10^6 per trace
constexpr uint64_t kMinTraceEvents = 1'000'000;
constexpr int kSetupRepeats = 3;
constexpr size_t kClients = 2;
constexpr unsigned kPool = 2; ///< the ingest thread + one actor worker
constexpr size_t kMinStreams = 110; ///< >= 10 streams beyond p90

struct Trace
{
    const BenchProgram *prog = nullptr;
    std::string name;
    bool attacked = false;
    uint64_t moduleHash = 0; ///< the registry key helloV2 names
    SessionSet set;
    CapturedTrace cap;
};

struct Setup
{
    ProgramList progs;
    std::vector<Trace> traces;
    std::string sock;
    std::unique_ptr<serve::Server> server; ///< last: stops first
};

/**
 * The first recipe, in seeded order, whose attack alarms and ends
 * within the campaign's fuel; its tampers arm every session of the
 * attacked trace. Empty when no recipe qualifies.
 */
std::vector<TamperSpec>
pickAttack(const BenchProgram &p, Rng &rng, std::string &label)
{
    std::vector<size_t> order(p.gp.recipes.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    rng.shuffle(order);
    for (size_t i : order) {
        const gen::AttackRecipe &r = p.gp.recipes[i];
        std::vector<TamperSpec> tampers = recipeTampers(p, r);
        ExecPlan plan;
        for (const TamperSpec &t : tampers)
            plan.addTamper(t);
        Session s = Session::builder()
                        .program(p.prog)
                        .inputs(p.inputs())
                        .fuel(kRecipeFuel)
                        .plan(plan)
                        .build();
        s.run();
        if (s.alarmed() && s.result().exit != ExitKind::OutOfFuel &&
            s.result().faultTampers.size() == r.writes.size()) {
            label = gen::recipeToString(r);
            return tampers;
        }
    }
    return {};
}

std::unique_ptr<Setup>
buildSetup(const Options &opt, Outcome &out)
{
    Rng rng(opt.seed ^ kServeSalt);
    auto s = std::make_unique<Setup>();
    for (uint64_t g : drawGenSeeds(rng, kGenPrograms))
        s->progs.push_back(buildGenProgram(g));
    for (const Workload &wl : allWorkloads())
        s->progs.push_back(buildPaperProgram(wl));

    for (size_t i = 0; i < s->progs.size(); i++) {
        Trace t;
        t.prog = s->progs[i].get();
        t.name = t.prog->name;
        t.moduleHash = replay::moduleContentHash(t.prog->prog.mod);
        t.set = {t.prog, {}, 1};
        s->traces.push_back(t);
        if (i < kAttacked) {
            std::string label;
            t.set.tampers = pickAttack(*t.prog, rng, label);
            t.set.fuel = kRecipeFuel;
            t.attacked = true;
            t.name += " attacked " + label;
            out.check(t.set.tampers.empty()
                          ? t.prog->name + ": no recipe alarms"
                          : "");
            if (!t.set.tampers.empty())
                s->traces.push_back(t);
        }
    }

    for (size_t i = 0; i < s->traces.size(); i++) {
        Trace &t = s->traces[i];
        const uint64_t perSession =
            std::max<uint64_t>(1, costOfOneSession(t.set).events);
        t.set.sessions = static_cast<uint32_t>(
            (kTraceEvents + perSession - 1) / perSession);
        t.cap = captureTrace(t.set, strprintf("%s/trace-%zu.ipds",
                                              opt.workdir.c_str(), i));
    }

    s->sock = opt.workdir + "/serve.sock";
    serve::ServerConfig cfg;
    cfg.socketPath = s->sock;
    cfg.threads = kPool;
    s->server = std::make_unique<serve::Server>(cfg);
    for (const auto &p : s->progs)
        s->server->registerModule(p->prog);
    s->server->start();
    return s;
}

/** Set-up checks: each capture agrees with its offline replay, is
 *  long enough, and carries the verdict its recipe implies. */
void
checkSetup(const Setup &s, Outcome &out)
{
    for (const Trace &t : s.traces) {
        out.check(t.cap.error);
        out.check(t.cap.det.branchesSeen >= kMinTraceEvents
                      ? ""
                      : t.name + ": trace shorter than 10^6 events");
        out.check(checkTraceVerdict(t.name, t.attacked, t.cap.alarms));
    }
}

struct StreamRecord
{
    size_t trace = 0;
    double start = 0; ///< seconds into the window
    double end = 0;
    StreamTimes times;
    std::string error; ///< transport failure
};

struct Window
{
    double seconds = 0;
    double allBusy = 0; ///< until then every client was streaming
    std::vector<StreamRecord> streams;
};

/**
 * Each client thread streams its own seeded order of the traces,
 * one connection per stream, until @p seconds have passed and at
 * least @p minStreams streams started.
 */
Window
runWindow(const Setup &s, uint64_t seed, double seconds, size_t minStreams)
{
    Window w;
    std::vector<std::vector<StreamRecord>> logs(kClients);
    std::atomic<size_t> started{0};
    const Clock::time_point t0 = Clock::now();
    auto client = [&](size_t c) {
        Rng rng(seed ^ kServeSalt ^ (0x100 + c));
        std::vector<size_t> order(s.traces.size());
        for (size_t i = 0; i < order.size(); i++)
            order[i] = i;
        rng.shuffle(order);
        // Paper-workload traces come up twice per cycle, so the
        // seed's generated programs are a small share of the streams.
        std::vector<size_t> cycle;
        for (size_t i : order)
            for (int k = 0; k < (s.traces[i].prog->generated ? 1 : 2); k++)
                cycle.push_back(i);
        const std::string tenant = strprintf("conn%zu", c);
        for (size_t k = 0;; k++) {
            const size_t n = started.fetch_add(1);
            if (n >= minStreams && secondsSince(t0) >= seconds)
                break;
            StreamRecord r;
            r.trace = cycle[k % cycle.size()];
            const Trace &t = s.traces[r.trace];
            r.start = secondsSince(t0);
            try {
                r.times = streamTrace(s.sock, tenant, t.moduleHash,
                                      t.cap.bytes, n);
            } catch (const FatalError &e) {
                r.error = e.what();
            }
            r.end = secondsSince(t0);
            logs[c].push_back(std::move(r));
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; c++)
        threads.emplace_back(client, c);
    for (std::thread &t : threads)
        t.join();
    w.seconds = secondsSince(t0);
    w.allBusy = w.seconds;
    for (auto &log : logs) {
        if (!log.empty())
            w.allBusy = std::min(w.allBusy, log.back().end);
        for (StreamRecord &r : log)
            w.streams.push_back(std::move(r));
    }
    return w;
}

/** What the verified streams of a window did. */
struct Verified
{
    uint64_t events = 0;
    uint64_t sessions = 0;
    std::vector<Slice> eventSlices; ///< per stream, over its interval
    std::vector<double> verdictMs;

    /** Sustained rate over half-second slices of [0, @p seconds). */
    double rate(const std::vector<Slice> &items, double seconds) const
    {
        return sustainedSlicedRate(
            items, seconds, std::max<size_t>(10, size_t(seconds * 2)));
    }
};

/** Verify every stream of @p w and collect what the verified ones
 *  did. */
Verified
checkWindow(const Setup &s, const Window &w, Outcome &out)
{
    Verified v;
    for (const StreamRecord &r : w.streams) {
        const Trace &t = s.traces[r.trace];
        std::string err =
            r.error.empty()
                ? checkServed(r.times.result, t.cap.digest, t.cap.sessions)
                : "transport: " + r.error;
        if (!err.empty())
            err = t.name + ": " + err;
        out.check(err);
        if (err.empty()) {
            v.events += t.cap.det.branchesSeen;
            v.sessions += t.cap.sessions;
            v.eventSlices.push_back(
                {r.start, r.end, double(t.cap.det.branchesSeen)});
            v.verdictMs.push_back(r.times.verdictS * 1e3);
        }
    }
    return v;
}

void
warmUp(const Setup &s, const Options &opt, Outcome &out)
{
    // First connection of each client, allocator and page cache.
    checkWindow(s, runWindow(s, opt.seed ^ 0x77, 0, kClients), out);
}

void
traced(const Options &opt, Setup &s, size_t setupBegin, size_t setupEnd,
       Outcome &out)
{
    // Untraced, then traced, each for half the run; trace_overhead_pct
    // compares the two.
    const Window plain = runWindow(s, opt.seed, opt.seconds / 2, kMinStreams);
    const Verified vA = checkWindow(s, plain, out);

    const uint64_t stalls0 =
        serverCounter(*s.server, obs::names::kServeBackpressureStalls);
    spans::enable(true);
    const size_t winBegin = spans::count();
    const Window tw = runWindow(s, opt.seed, opt.seconds / 2, kMinStreams);
    const size_t winEnd = spans::count();
    spans::enable(false);
    const uint64_t stalls1 =
        serverCounter(*s.server, obs::names::kServeBackpressureStalls);
    const uint64_t failedBefore = out.failed;
    const Verified vB = checkWindow(s, tw, out);
    const uint64_t eventsB = vB.events;
    const std::vector<SpanRecord> all = spans::snapshot();

    LayerBudget b;
    const std::string win = "window spans around each client call";
    const auto names = spans::byName(all, winBegin, winEnd);
    auto spanSum = [&](const char *n) {
        auto it = names.find(n);
        return it == names.end() ? 0.0 : it->second.seconds;
    };
    b.set("serve.handshake_s", spanSum("serve.handshake"), win);
    b.set("serve.send_s", spanSum("serve.send"), win);
    b.set("serve.verdict_wait_s", spanSum("serve.verdict_wait"), win);
    b.set("serve.streams_failed", double(out.failed - failedBefore), win);
    b.set("serve.backpressure_stalls", double(stalls1 - stalls0),
          "ipds.serve.backpressure_stalls over the window");

    // How often the traced window streamed each trace.
    std::vector<double> weight(s.traces.size(), 0.0);
    double bytes = 0, sendCpu = 0;
    for (const StreamRecord &r : tw.streams) {
        weight[r.trace] += 1;
        bytes += double(s.traces[r.trace].cap.bytes.size());
        sendCpu += r.times.sendCpuS;
    }
    b.set("serve.send_wait_s", b.get("serve.send_s") - sendCpu,
          "send_s minus client thread CPU in sendTraceBytes");
    b.set("serve.bytes_per_event", bytes / double(eventsB),
          "trace bytes sent / detector events");

    addPipelineSpans(all, setupBegin, setupEnd, b,
                     "set-up spans around each call");
    std::vector<const BenchProgram *> progs;
    for (const auto &p : s.progs)
        progs.push_back(p.get());
    b.set("analysis.hash_tries_per_func", hashTriesPerFunc(progs),
          "StaticStats of the programs");

    // Each trace's layers alone on the same sessions and bytes. The
    // window ran chunk parse, decode and detect once per stream; the
    // VM and the encoder ran once, in set-up.
    std::vector<SetProbe> probes(s.traces.size());
    DetectorStats det;
    uint64_t vmInst = 0, vmFlush = 0;
    double transport = 0;
    for (size_t i = 0; i < s.traces.size(); i++) {
        const Trace &t = s.traces[i];
        probes[i] = probeSet(t.set, opt.workdir + "/probe.ipds");
        const SetProbe &p = probes[i];
        out.check(p.error);
        out.check(p.digest == t.cap.digest
                      ? ""
                      : t.name + ": re-run verdict differs from capture");
        b.addProbe(p, {1, weight[i], 1, 1, weight[i]},
                   "re-run alone x streams (vm, encode: set-up once; "
                   "timing: probe)");
        for (int k = 0; k < int(weight[i]); k++)
            det.merge(t.cap.det);
        vmInst += t.cap.vmInstructions;
        vmFlush += t.cap.vmFlushes;
    }
    for (const StreamRecord &r : tw.streams) {
        const SetProbe &p = probes[r.trace];
        transport += r.times.totalS - (p.parseS + p.feedS);
    }
    b.set("serve.transport_s", transport,
          "connect->Result minus standalone parse + decode + detect");
    b.set("ipds.branches", double(det.branchesSeen), "window DetectorStats");
    b.set("ipds.checks_per_branch",
          double(det.checksEnqueued) / double(det.branchesSeen),
          "DetectorStats ratio");
    b.set("ipds.actions_per_branch",
          double(det.actionsApplied) / double(det.branchesSeen),
          "DetectorStats ratio");
    b.set("vm.instructions", double(vmInst), "ipds.vm.* of the captures");
    b.set("vm.event_batch_flushes", double(vmFlush),
          "ipds.vm.* of the captures");

    uint64_t fired = 0, tried = 0;
    for (const BenchProgram *p : progs)
        if (p->generated)
            countFiredRecipes(*p, fired, tried);
    b.set("gen.recipes_fired_ratio",
          tried ? double(fired) / double(tried) : 0,
          "each recipe of the generated programs run once");

    const double rateA = vA.rate(vA.eventSlices, plain.allBusy);
    const double rateB = vB.rate(vB.eventSlices, tw.allBusy);
    b.set("trace_overhead_pct", 100.0 * (1.0 - rateB / rateA),
          "events_per_s traced vs untraced window");

    const double streamWall = spanSum("serve.stream");
    std::printf("traced window: %.3f s, %zu streams, stream wall %.3f s = "
                "handshake %.3f + send %.3f + verdict wait %.3f; "
                "server-side budget: parse %.3f + decode %.3f + detect "
                "%.3f + transport %.3f\n",
                tw.seconds, tw.streams.size(), streamWall,
                b.get("serve.handshake_s"), b.get("serve.send_s"),
                b.get("serve.verdict_wait_s"),
                b.get("replay.chunk_parse_s"), b.get("replay.decode_s"),
                b.get("ipds.detect_s"), transport);
    b.report(out);
}

} // namespace

void
runServeStream(const Options &opt, Outcome &out)
{
    std::unique_ptr<Setup> s;
    if (opt.trace) {
        spans::enable(true);
        const size_t begin = spans::count();
        s = buildSetup(opt, out);
        const size_t end = spans::count();
        spans::enable(false);
        checkSetup(*s, out);
        warmUp(*s, opt, out);
        traced(opt, *s, begin, end, out);
        s->server->stopAndJoin();
        return;
    }

    std::vector<double> setupS;
    for (int i = 0; i < kSetupRepeats; i++) {
        s.reset(); // the previous server unbinds before the next binds
        Outcome scratch;
        const Clock::time_point t0 = Clock::now();
        s = buildSetup(opt, i + 1 == kSetupRepeats ? out : scratch);
        setupS.push_back(secondsSince(t0));
    }
    checkSetup(*s, out);
    warmUp(*s, opt, out);

    const Window w = runWindow(*s, opt.seed, opt.seconds, kMinStreams);
    s->server->stopAndJoin();
    const Verified v = checkWindow(*s, w, out);
    out.check(s->server->streamsFailed() == 0
                  ? ""
                  : strprintf("server failed %llu streams",
                              static_cast<unsigned long long>(
                                  s->server->streamsFailed())));

    uint64_t traceEvents = 0;
    for (const Trace &t : s->traces)
        traceEvents += t.cap.det.branchesSeen;
    std::printf("serve_stream: %zu traces (%llu events), %zu streams over "
                "%zu connections in %.3f s; verdict ms p10 %.3g p25 %.3g "
                "p50 %.3g p75 %.3g p90 %.3g\n",
                s->traces.size(),
                static_cast<unsigned long long>(traceEvents),
                w.streams.size(), kClients, w.seconds,
                percentile(v.verdictMs, 0.1), percentile(v.verdictMs, 0.25),
                percentile(v.verdictMs, 0.5), percentile(v.verdictMs, 0.75),
                percentile(v.verdictMs, 0.9));
    out.add("setup_s", median(setupS), "s");
    // Traces differ ~50x in sessions per event, so per-slice session
    // counts follow which traces a slice holds; sessions are counted
    // at the sustained event rate with the window's sessions per event.
    const double eventsPerS = v.rate(v.eventSlices, w.allBusy);
    out.add("events_per_s", eventsPerS, "1/s");
    out.add("programs_per_s",
            eventsPerS * double(v.sessions) / double(v.events), "1/s");
    out.add("verdict_ms_p75", percentile(v.verdictMs, 0.75), "ms");
    out.add("verdict_ms_p90", percentile(v.verdictMs, 0.90), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
