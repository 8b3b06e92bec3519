#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<uint32_t> gNextTid{1};
std::mutex gMutex;
std::vector<SpanRecord> gSpans; // guarded by gMutex
const auto gEpoch = std::chrono::steady_clock::now();

thread_local uint32_t tTid = 0;
thread_local std::vector<int32_t> tOpen; // enclosing spans, innermost last

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - gEpoch)
        .count();
}

std::string
layerOf(const char *name)
{
    std::string n(name);
    size_t dot = n.find('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
}

std::vector<double>
childSecondsOf(const std::vector<SpanRecord> &s)
{
    std::vector<double> child(s.size(), 0.0);
    for (const SpanRecord &r : s)
        if (r.parent >= 0 && size_t(r.parent) < s.size())
            child[size_t(r.parent)] += r.seconds();
    return child;
}

template <typename KeyFn>
std::map<std::string, SpanTotal>
totals(const std::vector<SpanRecord> &s, size_t begin, size_t end,
       KeyFn key)
{
    const std::vector<double> childSeconds = childSecondsOf(s);
    std::map<std::string, SpanTotal> out;
    for (size_t i = begin; i < std::min(end, s.size()); i++) {
        SpanTotal &t = out[key(s[i].name)];
        t.seconds += s[i].seconds();
        t.selfSeconds += s[i].seconds() - childSeconds[i];
    }
    return out;
}

} // namespace

namespace spans {

void
enable(bool on)
{
    gEnabled.store(on);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

size_t
count()
{
    std::lock_guard<std::mutex> lk(gMutex);
    return gSpans.size();
}

std::vector<SpanRecord>
snapshot()
{
    std::lock_guard<std::mutex> lk(gMutex);
    std::vector<SpanRecord> out;
    out.reserve(gSpans.size());
    // Indices are kept, so parents stay valid; unfinished spans (none
    // after a window) read as zero length.
    for (SpanRecord r : gSpans) {
        if (r.endNs < r.startNs)
            r.endNs = r.startNs;
        out.push_back(r);
    }
    return out;
}

std::map<std::string, SpanTotal>
byName(const std::vector<SpanRecord> &s, size_t begin, size_t end)
{
    return totals(s, begin, end,
                  [](const char *n) { return std::string(n); });
}

std::map<std::string, SpanTotal>
byLayer(const std::vector<SpanRecord> &s, size_t begin, size_t end)
{
    return totals(s, begin, end, layerOf);
}

bool
writeChromeTrace(const std::vector<SpanRecord> &s,
                 const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> childSeconds = childSecondsOf(s);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < s.size(); i++) {
        const SpanRecord &r = s[i];
        std::fprintf(
            f,
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
            "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %llu, "
            "\"self_us\": %.3f}}%s\n",
            r.name, layerOf(r.name).c_str(), double(r.startNs) * 1e-3,
            double(r.endNs - r.startNs) * 1e-3, r.tid, i, r.parent,
            static_cast<unsigned long long>(r.id),
            (r.seconds() - childSeconds[i]) * 1e6,
            i + 1 < s.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    bool ok = std::ferror(f) == 0;
    ok &= std::fclose(f) == 0;
    return ok;
}

} // namespace spans

Span::Span(const char *name, uint64_t id)
{
    if (!spans::enabled())
        return;
    if (tTid == 0)
        tTid = gNextTid.fetch_add(1);
    SpanRecord r;
    r.name = name;
    r.parent = tOpen.empty() ? -1 : tOpen.back();
    r.tid = tTid;
    r.id = id;
    r.endNs = -1;
    {
        std::lock_guard<std::mutex> lk(gMutex);
        index = static_cast<int32_t>(gSpans.size());
        r.startNs = nowNs();
        gSpans.push_back(r);
    }
    tOpen.push_back(index);
}

Span::~Span()
{
    if (index < 0)
        return;
    const int64_t end = nowNs();
    tOpen.pop_back();
    std::lock_guard<std::mutex> lk(gMutex);
    if (size_t(index) < gSpans.size())
        gSpans[size_t(index)].endNs = end;
}

} // namespace perfbench
