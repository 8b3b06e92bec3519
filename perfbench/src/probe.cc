#include "probe.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "checks.h"
#include "obs/names.h"
#include "obs/session.h"
#include "replay/format.h"
#include "replay/reader.h"
#include "replay/replay.h"
#include "serve/wire.h"
#include "spans.h"
#include "timing/config.h"
#include "vm/decode.h"

namespace perfbench {

namespace {

ExecPlan
execPlan(const SessionSet &s)
{
    ExecPlan e;
    for (const TamperSpec &t : s.tampers)
        e.addTamper(t);
    return e;
}

Session::Builder
builderFor(const SessionSet &s)
{
    Session::Builder b = Session::builder();
    b.program(s.prog->prog)
        .inputs(s.prog->inputs())
        .sessions(s.sessions)
        .fuel(s.fuel);
    return b;
}

uint64_t
metricValue(const obs::MetricsRegistry &reg, const char *name)
{
    obs::MetricHandle h = reg.find(name);
    return h == obs::kNoMetric ? 0 : reg.value(h);
}

std::vector<uint8_t>
readAndRemove(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("perfbench: cannot read '%s'", path.c_str());
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    return bytes;
}

/** One recorded detector event (the abl_hotpath method). */
struct Event
{
    enum class Kind : uint8_t { Enter, Exit, Branch };
    Kind kind = Kind::Branch;
    bool taken = false;
    FuncId func = kNoFunc;
    uint64_t pc = 0;
};

struct Recorder final : ExecObserver
{
    std::vector<Event> &ev;
    explicit Recorder(std::vector<Event> &e) : ev(e) {}

    bool wantsInstEvents() const override { return false; }
    void
    onFunctionEnter(FuncId f) override
    {
        ev.push_back({Event::Kind::Enter, false, f, 0});
    }
    void
    onFunctionExit(FuncId f) override
    {
        ev.push_back({Event::Kind::Exit, false, f, 0});
    }
    void
    onBranch(FuncId f, uint64_t pc, bool taken) override
    {
        ev.push_back({Event::Kind::Branch, taken, f, pc});
    }
};

Vm
makeVm(const SessionSet &s,
       const std::shared_ptr<const DecodedProgram> &dec)
{
    Vm vm(s.prog->prog.mod, dec);
    vm.setInputs(s.prog->inputs());
    vm.setFuel(s.fuel);
    vm.setRecordTrace(false);
    for (const TamperSpec &t : s.tampers)
        vm.addTamper(t);
    return vm;
}

/** What each per-layer metric should move, and where it should not
 *  (README "Layer map"). */
struct LayerMetricInfo
{
    const char *name;
    const char *unit;
    const char *moves;
    const char *noChange;
};

const LayerMetricInfo kLayerMetrics[] = {
    {"serve.handshake_s", "s", "serve_stream/events_per_s (slightly)",
     "protect_timed, corpus_campaign"},
    {"serve.send_s", "s", "serve_stream/events_per_s",
     "protect_timed, corpus_campaign"},
    {"serve.send_wait_s", "s",
     "serve_stream/events_per_s, verdict_ms_p90",
     "protect_timed, corpus_campaign"},
    {"serve.verdict_wait_s", "s", "serve_stream/verdict_ms_p75, p90",
     "protect_timed, corpus_campaign"},
    {"serve.frame_s", "s", "serve_stream/events_per_s",
     "protect_timed, corpus_campaign"},
    {"serve.backpressure_stalls", "count",
     "serve_stream/verdict_ms_p90", "protect_timed, corpus_campaign"},
    {"serve.bytes_per_event", "B/event",
     "serve_stream/events_per_s, setup_s",
     "protect_timed, corpus_campaign"},
    {"serve.transport_s", "s",
     "serve_stream/events_per_s, verdict_ms_p75",
     "protect_timed, corpus_campaign"},
    {"serve.streams_failed", "count", "failure share", "n/a"},
    {"replay.chunk_parse_s", "s", "serve_stream/events_per_s",
     "protect_timed, corpus_campaign"},
    {"replay.decode_s", "s", "serve_stream/events_per_s, verdict_ms_p75",
     "protect_timed, corpus_campaign"},
    {"replay.encode_s", "s", "serve_stream/setup_s",
     "serve_stream/events_per_s, protect_timed"},
    {"ipds.detect_s", "s",
     "serve_stream/events_per_s; a little of protect_timed/events_per_s "
     "and corpus_campaign/programs_per_s",
     "n/a"},
    {"ipds.branches", "count", "work behind events_per_s", "n/a"},
    {"ipds.checks_per_branch", "ratio", "work behind events_per_s",
     "n/a"},
    {"ipds.actions_per_branch", "ratio", "work behind events_per_s",
     "n/a"},
    {"vm.run_s", "s",
     "protect_timed/events_per_s, corpus_campaign/programs_per_s, "
     "serve_stream/setup_s",
     "serve_stream/events_per_s"},
    {"vm.decode_s", "s", "corpus_campaign/programs_per_s",
     "protect_timed (amortised)"},
    {"vm.instructions", "count", "work count", "n/a"},
    {"vm.event_batch_flushes", "count", "work count", "n/a"},
    {"timing.model_s", "s", "protect_timed/events_per_s",
     "serve_stream, corpus_campaign"},
    {"timing.engine_s", "s", "protect_timed/events_per_s",
     "serve_stream, corpus_campaign"},
    {"timing.sim_instructions", "count", "work count (simulated)", "n/a"},
    {"timing.ipds_stall_cycles", "count", "work count (simulated)",
     "n/a"},
    {"frontend.compile_s", "s",
     "corpus_campaign/programs_per_s, serve_stream/setup_s",
     "serve_stream/events_per_s, protect_timed"},
    {"analysis.analyze_s", "s",
     "corpus_campaign/programs_per_s, serve_stream/setup_s",
     "serve_stream/events_per_s, protect_timed"},
    {"analysis.hash_tries_per_func", "ratio", "analysis.analyze_s",
     "n/a"},
    {"gen.generate_s", "s", "corpus_campaign/programs_per_s",
     "serve_stream/events_per_s, protect_timed"},
    {"gen.recipes_fired_ratio", "ratio", "useful attack runs per attempt",
     "n/a"},
    {"trace_overhead_pct", "%", "trust in the traced run", "n/a"},
};

} // namespace

SessionCost
costOfOneSession(const SessionSet &s)
{
    SessionSet one = s;
    one.sessions = 1;
    Session ses = builderFor(one).plan(execPlan(one)).build();
    ses.run();
    return {ses.detectorStats().branchesSeen,
            metricValue(ses.metrics(), obs::names::kVmInstructions)};
}

CapturedTrace
captureTrace(const SessionSet &s, const std::string &path)
{
    CapturedTrace ct;
    Session cap =
        builderFor(s).plan(CapturePlan(path).exec(execPlan(s))).build();
    {
        Span sp("replay.capture");
        cap.run();
    }
    Session off = Session::builder()
                      .program(s.prog->prog)
                      .plan(ReplayPlan(path))
                      .build();
    {
        Span sp("replay.offline");
        off.run();
    }
    ct.digest = serve::alarmDigest(off.alarms());
    ct.alarms = off.alarms().size();
    ct.sessions = s.sessions;
    ct.det = off.detectorStats();
    ct.vmInstructions = metricValue(cap.metrics(), obs::names::kVmInstructions);
    ct.vmFlushes =
        metricValue(cap.metrics(), obs::names::kVmEventBatchFlushes);
    ct.error = checkSameVerdict(
        s.prog->name + " capture vs offline replay",
        RunVerdict{cap.alarms(), cap.detectorStats(), {}},
        RunVerdict{off.alarms(), off.detectorStats(), {}});
    ct.bytes = readAndRemove(path);
    return ct;
}

StreamTimes
streamTrace(const std::string &sock, const std::string &tenant,
            uint64_t moduleHash, const std::vector<uint8_t> &bytes,
            uint64_t streamId)
{
    StreamTimes t;
    Span root("serve.stream", streamId);
    const Clock::time_point t0 = Clock::now();
    serve::Client c;
    {
        Span sp("serve.handshake", streamId);
        c.connect(sock);
        c.helloV2(tenant, moduleHash);
    }
    const Clock::time_point t1 = Clock::now();
    const double cpu0 = threadCpuSeconds();
    {
        Span sp("serve.send", streamId);
        c.sendTraceBytes(bytes.data(), bytes.size());
    }
    t.sendCpuS = threadCpuSeconds() - cpu0;
    const Clock::time_point t2 = Clock::now();
    {
        Span sp("serve.verdict_wait", streamId);
        t.result = c.end();
    }
    const Clock::time_point t3 = Clock::now();
    t.handshakeS = secondsBetween(t0, t1);
    t.sendS = secondsBetween(t1, t2);
    t.verdictS = secondsBetween(t2, t3);
    t.totalS = secondsBetween(t0, t3);
    return t;
}

uint64_t
serverCounter(const serve::Server &srv, const char *name)
{
    std::istringstream in(srv.statszText());
    std::string key;
    uint64_t v = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        if (ls >> key && key == name && ls >> v)
            return v;
    }
    return 0;
}

SetProbe
probeSet(const SessionSet &s, const std::string &path)
{
    SetProbe p;
    p.moduleHash = replay::moduleContentHash(s.prog->prog.mod);
    p.sessions = s.sessions;
    const CompiledProgram &prog = s.prog->prog;
    const std::string name = s.prog->name;
    auto note = [&p](const std::string &err) {
        if (!err.empty())
            p.error += (p.error.empty() ? "" : "; ") + err;
    };
    RunVerdict exec;
    {
        Session e = builderFor(s).plan(execPlan(s)).build();
        const Clock::time_point t0 = Clock::now();
        e.run();
        p.execS = secondsSince(t0);
        exec = RunVerdict{e.alarms(), e.detectorStats(), {}};
        p.digest = serve::alarmDigest(e.alarms());
        p.vmInstructions =
            metricValue(e.metrics(), obs::names::kVmInstructions);
        p.vmFlushes =
            metricValue(e.metrics(), obs::names::kVmEventBatchFlushes);
    }
    {
        Session c = builderFor(s)
                        .plan(CapturePlan(path).exec(execPlan(s)))
                        .build();
        const Clock::time_point t0 = Clock::now();
        c.run();
        p.captureS = secondsSince(t0);
        p.trace = readAndRemove(path);
    }
    {
        Session t =
            builderFor(s).timing(table1Config()).plan(execPlan(s)).build();
        const Clock::time_point t0 = Clock::now();
        t.run();
        p.timedS = secondsSince(t0);
        p.tim = t.timingStats();
        note(checkSameVerdict(name + " timed vs untimed", exec,
                              RunVerdict{t.alarms(), t.detectorStats(), {}}));
    }
    {
        Session t = builderFor(s)
                        .timing(table1Config())
                        .detector(false)
                        .plan(execPlan(s))
                        .build();
        const Clock::time_point t0 = Clock::now();
        t.run();
        p.timedNoDetS = secondsSince(t0);
    }

    auto dec = decodeCached(prog.mod);
    {
        const Clock::time_point t0 = Clock::now();
        for (uint32_t i = 0; i < s.sessions; i++)
            makeVm(s, dec).run();
        p.vmRunS = secondsSince(t0);
    }

    // Detector alone over the recorded events of the same sessions.
    std::vector<Event> events;
    std::vector<size_t> sessionEnds;
    {
        Recorder rec(events);
        for (uint32_t i = 0; i < s.sessions; i++) {
            Vm vm = makeVm(s, dec);
            vm.addObserver(&rec);
            vm.run();
            sessionEnds.push_back(events.size());
        }
    }
    {
        std::vector<Alarm> alarms;
        Detector det(prog);
        const Clock::time_point t0 = Clock::now();
        size_t i = 0;
        for (size_t end : sessionEnds) {
            det.reset();
            for (; i < end; i++) {
                const Event &e = events[i];
                switch (e.kind) {
                  case Event::Kind::Enter:
                    det.onFunctionEnter(e.func);
                    break;
                  case Event::Kind::Exit:
                    det.onFunctionExit(e.func);
                    break;
                  case Event::Kind::Branch:
                    det.onBranch(e.func, e.pc, e.taken);
                    break;
                }
            }
            p.det.merge(det.stats());
            alarms.insert(alarms.end(), det.alarms().begin(),
                          det.alarms().end());
        }
        p.detectS = secondsSince(t0);
        note(checkSameVerdict(name + " detector alone vs Session", exec,
                              RunVerdict{alarms, p.det, {}}));
    }
    events = {};

    // Chunk framing and CRC, then decode + detect, over the capture.
    const replay::TraceFile file = replay::TraceFile::fromBytes(p.trace);
    replay::TraceMeta meta;
    {
        const Clock::time_point t0 = Clock::now();
        size_t used = 0;
        std::string err;
        if (replay::parseHeader(p.trace.data(), p.trace.size(), meta,
                                used, &err) != replay::ParseStatus::Ok)
            note(name + " header: " + err);
        for (const replay::ChunkRef &c : file.chunks()) {
            replay::ChunkRef out;
            const uint8_t *at = file.payload(c) - replay::kChunkHeaderBytes;
            if (replay::parseChunk(at,
                                   replay::kChunkHeaderBytes + c.payloadLen,
                                   out, used, &err) !=
                replay::ParseStatus::Ok)
                note(name + " chunk: " + err);
        }
        p.parseS = secondsSince(t0);
    }
    {
        const Clock::time_point t0 = Clock::now();
        replay::ReplayEngine eng(meta, prog);
        replay::ReplayEngine::ShardCursor cur(eng, 0);
        for (const replay::ChunkRef &c : file.chunks())
            cur.feed(c, file.payload(c));
        cur.finish();
        p.feedS = secondsSince(t0);
        if (serve::alarmDigest(cur.result().alarms) != p.digest)
            note(name + ": decoded verdict differs from the run");
    }
    {
        constexpr size_t kSlice = 64 * 1024; // the client's frame size
        const Clock::time_point t0 = Clock::now();
        std::vector<uint8_t> wireBytes;
        for (size_t off = 0; off < p.trace.size(); off += kSlice)
            serve::wire::appendFrame(
                wireBytes, serve::wire::FrameType::TraceData,
                p.trace.data() + off,
                std::min(kSlice, p.trace.size() - off));
        serve::wire::FrameDecoder decoder;
        size_t payload = 0;
        for (size_t off = 0; off < wireBytes.size(); off += kSlice) {
            decoder.append(wireBytes.data() + off,
                           std::min(kSlice, wireBytes.size() - off));
            serve::wire::Frame f;
            while (decoder.next(f) == serve::wire::DecodeStatus::Frame)
                payload += f.payloadLen;
        }
        p.frameS = secondsSince(t0);
        if (payload != p.trace.size())
            note(name + ": framing lost bytes");
    }
    return p;
}

void
LayerBudget::add(const std::string &name, double v, const std::string &how)
{
    value[name] += v;
    if (source[name].empty())
        source[name] = how;
}

void
LayerBudget::set(const std::string &name, double v, const std::string &how)
{
    value[name] = v;
    source[name] = how;
}

double
LayerBudget::get(const std::string &name) const
{
    auto it = value.find(name);
    return it == value.end() ? 0 : it->second;
}

void
LayerBudget::addProbe(const SetProbe &p, const ProbeWeights &w,
                      const std::string &how)
{
    add("vm.run_s", w.vm * p.vmRunS, how);
    add("ipds.detect_s", w.detect * p.detectS, how);
    add("timing.model_s", w.timing * (p.timedS - p.execS), how);
    add("timing.engine_s", w.timing * (p.timedS - p.timedNoDetS), how);
    add("timing.sim_instructions", w.timing * double(p.tim.instructions),
        how);
    add("timing.ipds_stall_cycles",
        w.timing * double(p.tim.ipdsStallCycles), how);
    add("replay.encode_s", w.encode * (p.captureS - p.execS), how);
    add("replay.chunk_parse_s", w.replay * p.parseS, how);
    add("replay.decode_s", w.replay * (p.feedS - p.detectS), how);
    add("serve.frame_s", w.replay * p.frameS, how);
}

void
LayerBudget::report(Outcome &out) const
{
    std::printf("\n%-29s %14s %-7s  %-44s  %s | no change on\n",
                "per-layer metric", "value", "unit", "measured as",
                "moves");
    for (const LayerMetricInfo &m : kLayerMetrics) {
        auto it = value.find(m.name);
        if (it == value.end()) {
            out.check(strprintf("per-layer metric %s was not measured",
                                m.name));
            continue;
        }
        auto src = source.find(m.name);
        std::printf("%-29s %14.6g %-7s  %-44s  %s | %s\n", m.name,
                    it->second, m.unit,
                    src == source.end() ? "" : src->second.c_str(),
                    m.moves, m.noChange);
        out.add(m.name, it->second, m.unit);
    }
}

void
probeServe(const std::vector<const BenchProgram *> &progs,
           const std::vector<const SetProbe *> &traces,
           const std::string &sock, LayerBudget &b, Outcome &out)
{
    const std::string how = "serve probe: each probed set streamed once";
    serve::ServerConfig cfg;
    cfg.socketPath = sock;
    cfg.threads = 2;
    serve::Server srv(cfg);
    for (const BenchProgram *p : progs)
        srv.registerModule(p->prog);
    srv.start();
    uint64_t failed = 0;
    uint64_t answered = 0; // streams the server finished
    for (size_t i = 0; i < traces.size(); i++) {
        const SetProbe &t = *traces[i];
        try {
            StreamTimes st =
                streamTrace(sock, "probe", t.moduleHash, t.trace, i);
            answered++;
            const std::string err =
                checkServed(st.result, t.digest, t.sessions);
            failed += err.empty() ? 0 : 1;
            out.check(err);
            b.add("serve.handshake_s", st.handshakeS, how);
            b.add("serve.send_s", st.sendS, how);
            b.add("serve.send_wait_s", st.sendS - st.sendCpuS, how);
            b.add("serve.verdict_wait_s", st.verdictS, how);
            b.add("serve.transport_s", st.totalS - (t.parseS + t.feedS),
                  how);
        } catch (const FatalError &e) {
            failed++;
            out.check(strprintf("serve probe stream %zu: %s", i, e.what()));
        }
    }
    srv.waitForStreams(answered);
    b.set("serve.backpressure_stalls",
          double(serverCounter(srv, obs::names::kServeBackpressureStalls)),
          how);
    b.set("serve.streams_failed", double(failed), how);
    srv.stopAndJoin();
}

void
addPipelineSpans(const std::vector<SpanRecord> &s, size_t begin,
                 size_t end, LayerBudget &b, const std::string &how)
{
    const std::map<std::string, SpanTotal> t = spans::byName(s, begin, end);
    for (const char *name : {"gen.generate", "frontend.compile",
                             "analysis.analyze", "vm.decode"}) {
        auto it = t.find(name);
        b.add(std::string(name) + "_s",
              it == t.end() ? 0.0 : it->second.seconds, how);
    }
}

double
hashTriesPerFunc(const std::vector<const BenchProgram *> &progs)
{
    uint64_t tries = 0, funcs = 0;
    for (const BenchProgram *p : progs) {
        tries += p->prog.stats.totalHashTries;
        funcs += p->prog.stats.numFunctions;
    }
    return funcs ? double(tries) / double(funcs) : 0;
}

void
countFiredRecipes(const BenchProgram &p, uint64_t &fired, uint64_t &tried)
{
    for (const gen::AttackRecipe &r : p.gp.recipes) {
        Vm vm(p.prog.mod);
        vm.setInputs(p.inputs());
        vm.setFuel(kRecipeFuel);
        vm.setRecordTrace(false);
        gen::armRecipe(vm, r);
        RunResult res = vm.run();
        tried++;
        fired += res.faultTampers.size() == r.writes.size() ? 1 : 0;
    }
}

} // namespace perfbench
