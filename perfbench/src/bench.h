#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the end-to-end benchmark (perfbench/README.md):
 * run options, the result line, seeded choices, the compiled modules
 * the workloads run, and the small statistics helpers.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/program.h"
#include "gen/gen.h"
#include "support/diag.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace ipds;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** CPU time of the calling thread, in seconds. */
double threadCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in [0, 1]. 0 for an empty set. */
double percentile(std::vector<double> v, double p);

/** Work done over one interval of a window, in seconds from its
 *  start. */
struct Slice
{
    double start = 0;
    double end = 0;
    double work = 0;
};

/**
 * The rate a window sustained: the 10th percentile, over @p items, of
 * work / (end - start), i.e. the rate held in 90% of the window's
 * pieces of fixed work (rounds, blocks of seeds). Every piece counts
 * and the slow end is reported, never the best. On a shared host
 * whose contended phases come and go every few seconds, the slow tail
 * repeats from run to run while the whole-window mean moves with the
 * share of quiet phases (perfbench/README.md, "Steadiness").
 */
double sustainedRate(const std::vector<Slice> &items);

/**
 * The same over @p n equal time slices of [0, @p length), for work
 * that overlaps in time (concurrent streams): each item's work is
 * spread evenly over its own interval.
 */
double sustainedSlicedRate(const std::vector<Slice> &items, double length,
                           size_t n);

/** splitmix64: the one source of every seeded choice in a run. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state(seed) {}

    uint64_t next();
    /** Uniform in [0, n), n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = "."; ///< scratch files and the socket
    std::string traceDir = ".";  ///< where the span file is written
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The run's result line: operations attempted and failed, the first
 * few failure reasons, and the metrics. Every verified unit of work
 * and every output check is one operation.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    /** Count one operation; a non-empty @p err marks it failed. */
    void check(const std::string &err);
    void add(std::string name, double value, std::string unit);
    bool correct() const { return failed == 0 && attempted > 0; }

    /** Print the failure reasons (stderr) and the JSON line. */
    void print() const;
};

/** One compiled module a workload runs (a paper workload or a
 *  generated program). Addresses are stable: held by unique_ptr. */
struct BenchProgram
{
    std::string name;
    bool generated = false;
    gen::GeneratedProgram gp; ///< generated modules only
    Workload wl;              ///< source and benign session script
    CompiledProgram prog;

    const std::vector<std::string> &inputs() const
    {
        return wl.benignInputs;
    }
};

using ProgramList = std::vector<std::unique_ptr<BenchProgram>>;

/**
 * Compile, analyse and predecode a paper workload. Each step is its
 * own span (frontend.compile, analysis.analyze, vm.decode).
 */
std::unique_ptr<BenchProgram> buildPaperProgram(const Workload &wl);

/** Generate (gen.generate span) and build program @p seed.
 *  FatalError when the seed does not compile. */
std::unique_ptr<BenchProgram> buildGenProgram(uint64_t seed);

/** Distinct generator seeds for a run, drawn from @p rng. */
std::vector<uint64_t> drawGenSeeds(Rng &rng, size_t n);

/** Tamper specs of @p r resolved against @p p's entry frame. */
std::vector<TamperSpec> recipeTampers(const BenchProgram &p,
                                      const gen::AttackRecipe &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
