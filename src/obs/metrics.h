#ifndef IPDS_OBS_METRICS_H
#define IPDS_OBS_METRICS_H

/**
 * @file
 * Handle-based metrics registry for the observability subsystem.
 *
 * Design constraints (DESIGN.md "Observability and the Session
 * facade"):
 *
 *  - hot-path cost of a counter increment is ONE array store: names
 *    are resolved to flat slot indices at registration time, so no
 *    hashing, no map lookup, no lock is ever on the event path;
 *  - a registry is single-threaded by construction; sharded runs give
 *    each shard its own registry and merge them in shard order at the
 *    join point, so aggregates are deterministic for any worker count;
 *  - export is deterministic too: metrics serialize in registration
 *    order, which the naming scheme (obs/names.h) keeps stable.
 *
 * Three metric kinds:
 *  - Counter: monotonically accumulated sum (merge: add);
 *  - Gauge: last/extreme observed value (merge: max — the gauges we
 *    track, stack depth and queue high-water, are maxima);
 *  - Histogram: power-of-two bucketed distribution with count and sum
 *    (merge: bucket-wise add).
 */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace ipds {
namespace obs {

/** Index into the registry's flat slot array. */
using MetricHandle = uint32_t;
constexpr MetricHandle kNoMetric = 0xffffffff;

class MetricsRegistry
{
  public:
    /** Buckets: values bucketed by bit width, 0, 1, 2-3, 4-7, ... */
    static constexpr uint32_t kHistBuckets = 33;

    /**
     * Register (or re-resolve) a metric. Registering an existing name
     * returns the existing handle; a kind conflict panics. Handles
     * stay valid for the registry's lifetime.
     */
    MetricHandle counter(const std::string &name);
    MetricHandle gauge(const std::string &name);
    MetricHandle histogram(const std::string &name);

    /** Counter add — the hot path: one array add. */
    void add(MetricHandle h, uint64_t v = 1) { slot[h] += v; }

    /** Gauge set / monotonic max. */
    void set(MetricHandle h, uint64_t v) { slot[h] = v; }
    void setMax(MetricHandle h, uint64_t v)
    {
        if (v > slot[h])
            slot[h] = v;
    }

    /** Histogram observation: bucket bump + count + sum (3 adds). */
    void observe(MetricHandle h, uint64_t v)
    {
        uint32_t b = static_cast<uint32_t>(std::bit_width(v));
        if (b >= kHistBuckets)
            b = kHistBuckets - 1; // clamp: last bucket is >= 2^31
        slot[h]++;                // count
        slot[h + 1] += v;         // sum
        slot[h + 2 + b]++;        // bucket
    }

    /** Counter/gauge value, or histogram observation count. */
    uint64_t value(MetricHandle h) const { return slot[h]; }
    uint64_t histSum(MetricHandle h) const { return slot[h + 1]; }
    uint64_t histBucket(MetricHandle h, uint32_t b) const
    {
        return slot[h + 2 + b];
    }

    /** Look a metric up by name; kNoMetric if absent. */
    MetricHandle find(const std::string &name) const;

    size_t metricCount() const { return descs.size(); }

    /**
     * Fold another registry in. Metrics are matched BY NAME (both
     * registries normally register in the same order, but merge does
     * not require it); a kind mismatch panics, and metrics absent here
     * are registered on the fly. Counters and histograms add, gauges
     * take the max. Deterministic given a deterministic merge order.
     */
    void merge(const MetricsRegistry &o);

    /** Zero every slot; registrations are kept. */
    void reset();

    /**
     * JSON export: one object with "counters", "gauges" and
     * "histograms" sub-objects, metrics in registration order.
     * Histograms serialize count/sum/avg plus the non-empty prefix of
     * their bucket array.
     */
    std::string toJson(int indent = 2) const;

    /** Plain-text summary, one "name value" line per metric. */
    std::string toText() const;

  private:
    enum class Kind : uint8_t { Counter, Gauge, Histogram };

    struct Desc
    {
        std::string name;
        Kind kind = Kind::Counter;
        uint32_t base = 0; ///< first slot
    };

    MetricHandle reg(const std::string &name, Kind k, uint32_t width);
    const Desc *findDesc(const std::string &name) const;

    std::vector<Desc> descs;    ///< registration order
    std::vector<uint64_t> slot; ///< flat storage, hot path
};

} // namespace obs
} // namespace ipds

#endif // IPDS_OBS_METRICS_H
