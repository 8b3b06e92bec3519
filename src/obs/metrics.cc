#include "obs/metrics.h"

#include <algorithm>

#include "support/diag.h"

namespace ipds {
namespace obs {

const MetricsRegistry::Desc *
MetricsRegistry::findDesc(const std::string &name) const
{
    // Registries hold a few dozen metrics and lookups happen only at
    // registration/merge/export time, so linear scan beats carrying a
    // map alongside the flat slots.
    for (const Desc &d : descs)
        if (d.name == name)
            return &d;
    return nullptr;
}

MetricHandle
MetricsRegistry::reg(const std::string &name, Kind k, uint32_t width)
{
    if (const Desc *d = findDesc(name)) {
        if (d->kind != k)
            panic("MetricsRegistry: %s re-registered with a different "
                  "kind", name.c_str());
        return d->base;
    }
    Desc d;
    d.name = name;
    d.kind = k;
    d.base = static_cast<uint32_t>(slot.size());
    descs.push_back(d);
    slot.insert(slot.end(), width, 0);
    return d.base;
}

MetricHandle
MetricsRegistry::counter(const std::string &name)
{
    return reg(name, Kind::Counter, 1);
}

MetricHandle
MetricsRegistry::gauge(const std::string &name)
{
    return reg(name, Kind::Gauge, 1);
}

MetricHandle
MetricsRegistry::histogram(const std::string &name)
{
    return reg(name, Kind::Histogram, 2 + kHistBuckets);
}

MetricHandle
MetricsRegistry::find(const std::string &name) const
{
    const Desc *d = findDesc(name);
    return d ? d->base : kNoMetric;
}

void
MetricsRegistry::merge(const MetricsRegistry &o)
{
    for (const Desc &od : o.descs) {
        MetricHandle h;
        switch (od.kind) {
          case Kind::Counter:
            h = counter(od.name);
            add(h, o.slot[od.base]);
            break;
          case Kind::Gauge:
            h = gauge(od.name);
            setMax(h, o.slot[od.base]);
            break;
          case Kind::Histogram:
            h = histogram(od.name);
            for (uint32_t i = 0; i < 2 + kHistBuckets; i++)
                slot[h + i] += o.slot[od.base + i];
            break;
        }
    }
}

void
MetricsRegistry::reset()
{
    std::fill(slot.begin(), slot.end(), 0);
}

namespace {

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
    out += '"';
}

} // namespace

std::string
MetricsRegistry::toJson(int indent) const
{
    const std::string pad(static_cast<size_t>(indent), ' ');
    const std::string pad2 = pad + pad;
    const std::string pad3 = pad2 + pad;
    std::string out = "{\n";

    auto emitKind = [&](Kind k, const char *label, bool last) {
        out += pad;
        appendJsonString(out, label);
        out += ": {";
        bool first = true;
        for (const Desc &d : descs) {
            if (d.kind != k)
                continue;
            out += first ? "\n" : ",\n";
            first = false;
            out += pad2;
            appendJsonString(out, d.name);
            out += ": ";
            if (k != Kind::Histogram) {
                out += strprintf(
                    "%llu",
                    static_cast<unsigned long long>(slot[d.base]));
                continue;
            }
            uint64_t count = slot[d.base];
            uint64_t sum = slot[d.base + 1];
            uint32_t top = 0;
            for (uint32_t b = 0; b < kHistBuckets; b++)
                if (slot[d.base + 2 + b])
                    top = b + 1;
            out += strprintf(
                "{\n%s\"count\": %llu,\n%s\"sum\": %llu,\n"
                "%s\"avg\": %.3f,\n%s\"buckets\": [",
                pad3.c_str(), static_cast<unsigned long long>(count),
                pad3.c_str(), static_cast<unsigned long long>(sum),
                pad3.c_str(), count ? double(sum) / double(count) : 0.0,
                pad3.c_str());
            for (uint32_t b = 0; b < top; b++)
                out += strprintf(
                    "%s%llu", b ? ", " : "",
                    static_cast<unsigned long long>(
                        slot[d.base + 2 + b]));
            out += "]\n" + pad2 + "}";
        }
        out += first ? "}" : "\n" + pad + "}";
        out += last ? "\n" : ",\n";
    };

    emitKind(Kind::Counter, "counters", false);
    emitKind(Kind::Gauge, "gauges", false);
    emitKind(Kind::Histogram, "histograms", true);
    out += "}";
    return out;
}

std::string
MetricsRegistry::toText() const
{
    std::string out;
    for (const Desc &d : descs) {
        if (d.kind == Kind::Histogram) {
            uint64_t count = slot[d.base];
            uint64_t sum = slot[d.base + 1];
            out += strprintf(
                "%-44s count %llu sum %llu avg %.3f\n", d.name.c_str(),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum),
                count ? double(sum) / double(count) : 0.0);
        } else {
            out += strprintf(
                "%-44s %llu\n", d.name.c_str(),
                static_cast<unsigned long long>(slot[d.base]));
        }
    }
    return out;
}

} // namespace obs
} // namespace ipds
