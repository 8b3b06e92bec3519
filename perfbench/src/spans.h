#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark wraps each call it makes into a layer's public
 * functions in a Span named "<layer>.<what>" (serve.send,
 * frontend.compile, ...). A span records its name, start, end, the
 * span that encloses it on the same thread, and the stream, session
 * or seed id it belongs to. Recording is off unless enable() was
 * called, so the untraced windows pay one branch per span site.
 * Spans are written once, at exit, as a chrome-trace JSON file that
 * opens in Perfetto.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char *name = ""; ///< string literal
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< index of the enclosing span, -1 at top
    uint32_t tid = 0;    ///< small per-thread number
    uint64_t id = 0;     ///< stream / session / seed id

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/** Sum and self time of every span with one name or layer. */
struct SpanTotal
{
    double seconds = 0;
    double selfSeconds = 0; ///< minus the time of child spans
};

namespace spans {

void enable(bool on);
bool enabled();

/** Spans recorded so far: a mark for slicing phases (set-up,
 *  window, re-runs) out of snapshot(). */
size_t count();

/** A copy of every finished span, in start order per thread. */
std::vector<SpanRecord> snapshot();

/** Totals per span name over spans [begin, end) of @p s. */
std::map<std::string, SpanTotal> byName(const std::vector<SpanRecord> &s,
                                        size_t begin = 0,
                                        size_t end = SIZE_MAX);

/** Totals per layer (the part of the name before the first '.') over
 *  spans [begin, end) of @p s. */
std::map<std::string, SpanTotal> byLayer(const std::vector<SpanRecord> &s,
                                         size_t begin = 0,
                                         size_t end = SIZE_MAX);

/** Write @p s as chrome-trace JSON. False when the file cannot be
 *  written. */
bool writeChromeTrace(const std::vector<SpanRecord> &s,
                      const std::string &path);

} // namespace spans

/** RAII span; a no-op while recording is off. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t id = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int32_t index = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
