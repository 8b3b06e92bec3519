#ifndef IPDS_TESTS_METRIC_LINES_H
#define IPDS_TESTS_METRIC_LINES_H

/**
 * @file
 * The metric lines a served Result and offline replay of the same
 * trace must agree on, shared by the service, TCP service and corpus
 * suites: every `ipds.*` line of a metrics text blob except the
 * wall-clock events_per_sec gauge and the server's per-tenant
 * `ipds.tenant.*` meters.
 */

#include <sstream>
#include <string>

#include "obs/names.h"

namespace ipds {
namespace testutil {

/** Metric lines of a text blob, minus the wall-clock gauge. */
inline std::string
metricLines(const std::string &text)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("ipds.", 0) != 0)
            continue;
        if (line.find(obs::names::kReplayEventsPerSec) == 0)
            continue;
        if (line.find("ipds.tenant.") == 0)
            continue;
        out += line + "\n";
    }
    return out;
}

} // namespace testutil
} // namespace ipds

#endif // IPDS_TESTS_METRIC_LINES_H
