#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <set>

#include "frontend/codegen.h"
#include "spans.h"
#include "vm/decode.h"

namespace perfbench {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

namespace {

/** The rate sustainedRate() reports: the 10th percentile. */
constexpr double kSustainedQuantile = 0.10;

} // namespace

double
sustainedRate(const std::vector<Slice> &items)
{
    std::vector<double> rates;
    for (const Slice &s : items)
        if (s.end > s.start)
            rates.push_back(s.work / (s.end - s.start));
    return percentile(rates, kSustainedQuantile);
}

double
sustainedSlicedRate(const std::vector<Slice> &items, double length,
                    size_t n)
{
    if (n == 0 || !(length > 0))
        return 0;
    const double width = length / double(n);
    std::vector<double> work(n, 0.0);
    for (const Slice &s : items) {
        if (!(s.end > s.start))
            continue;
        const double density = s.work / (s.end - s.start);
        for (size_t k = size_t(std::max(0.0, s.start / width));
             k < n && double(k) * width < s.end; k++) {
            const double lo = std::max(s.start, double(k) * width);
            const double hi = std::min(s.end, double(k + 1) * width);
            if (hi > lo)
                work[k] += density * (hi - lo);
        }
    }
    std::vector<double> rates;
    for (double w : work)
        rates.push_back(w / width);
    return percentile(rates, kSustainedQuantile);
}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Outcome::check(const std::string &err)
{
    attempted++;
    if (err.empty())
        return;
    failed++;
    if (errors.size() < 10)
        errors.push_back(err);
}

void
Outcome::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::print() const
{
    for (const std::string &e : errors)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
    std::string line = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        // %.17g keeps every digit of the measured double.
        line += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", m.name.c_str(),
                          std::isfinite(m.value) ? m.value : 0.0,
                          m.unit.c_str());
    }
    line += "}}";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

namespace {

/** The compile pipeline split at its layer boundaries. */
void
compileProgram(BenchProgram &p)
{
    ipds::Module mod;
    try {
        {
            Span s("frontend.compile");
            mod = compileMiniC(p.wl.source, p.wl.name);
        }
        Span s("analysis.analyze");
        p.prog = analyzeModule(std::move(mod));
    } catch (const PanicError &e) {
        // Like gen::compileGenerated: an internal fault on this input
        // is a failed operation of the run, not a crash.
        fatal("%s: internal compiler fault — %s", p.name.c_str(),
              e.what());
    }
    Span s("vm.decode");
    decodeCached(p.prog.mod);
}

} // namespace

std::unique_ptr<BenchProgram>
buildPaperProgram(const Workload &wl)
{
    auto p = std::make_unique<BenchProgram>();
    p->name = wl.name;
    p->wl = wl;
    compileProgram(*p);
    return p;
}

std::unique_ptr<BenchProgram>
buildGenProgram(uint64_t seed)
{
    auto p = std::make_unique<BenchProgram>();
    {
        Span s("gen.generate", seed);
        p->gp = gen::generate(seed);
    }
    p->generated = true;
    p->name = p->gp.workload.name;
    p->wl = p->gp.workload;
    compileProgram(*p);
    return p;
}

std::vector<uint64_t>
drawGenSeeds(Rng &rng, size_t n)
{
    std::set<uint64_t> seen;
    std::vector<uint64_t> out;
    while (out.size() < n) {
        // Keep seeds readable in reports: [1, 2^31).
        uint64_t s = 1 + rng.below((1ull << 31) - 1);
        if (seen.insert(s).second)
            out.push_back(s);
    }
    return out;
}

std::vector<TamperSpec>
recipeTampers(const BenchProgram &p, const gen::AttackRecipe &r)
{
    Vm vm(p.prog.mod);
    return gen::recipeSpecs(vm, r);
}

} // namespace perfbench
