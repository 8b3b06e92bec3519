/**
 * @file
 * perfbench: the end-to-end benchmark of the IPDS reproduction.
 *
 *   perfbench --workload serve_stream|protect_timed|corpus_campaign
 *             --seed N --seconds S --trace 0|1
 *             [--workdir DIR] [--trace-dir DIR]
 *
 * Runs one workload in this process and prints, as the last line of
 * standard output, {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1 (which also writes a chrome-trace span file into
 * --trace-dir). Exit status 0 only when every output check passed.
 * perfbench/run.py builds this binary and is the usual entry point.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_stream|protect_timed|"
                 "corpus_campaign --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--trace-dir DIR]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                return false;
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0))
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (a == "--workdir") {
            o.workdir = v;
        } else if (a == "--trace-dir") {
            o.traceDir = v;
        } else {
            return false;
        }
    }
    return !o.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    setQuiet(true);

    Outcome out;
    try {
        if (opt.workload == "serve_stream")
            runServeStream(opt, out);
        else if (opt.workload == "protect_timed")
            runProtectTimed(opt, out);
        else if (opt.workload == "corpus_campaign")
            runCorpusCampaign(opt, out);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }

    if (opt.trace) {
        const std::string path = strprintf(
            "%s/%s-seed%llu.trace.json", opt.traceDir.c_str(),
            opt.workload.c_str(),
            static_cast<unsigned long long>(opt.seed));
        if (spans::writeChromeTrace(spans::snapshot(), path))
            std::printf("span file (chrome trace, opens in Perfetto): "
                        "%s\n",
                        path.c_str());
        else
            out.check("cannot write span file " + path);
    }
    out.print();
    return out.correct() ? 0 : 1;
}
