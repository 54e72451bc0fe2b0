/**
 * @file
 * Host-time helpers for the benchmark: a steady-clock reader, order
 * statistics over timing samples, and the in-memory span recorder the
 * traced run uses.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * simulator (workload -> rep -> config/construct/advance/finalize, and
 * one span per layer replay); nothing inside src/ is instrumented. The
 * recorder keeps begin/end events in memory and writes them once, at
 * the end, as a Chrome trace_event array on a single track, so the
 * file passes scripts/check_trace.py (monotonic timestamps, nested
 * B/E pairs). Self time of a span is its duration minus the time its
 * direct children cover.
 */

#ifndef PLIANT_PERFBENCH_SPANS_HH
#define PLIANT_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on the steady clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Per-name totals folded from a recording. */
struct SelfTime
{
    std::size_t count = 0;
    double totalS = 0.0; ///< summed span durations
    double selfS = 0.0;  ///< durations minus direct-children cover
};

/**
 * In-memory span recorder. Disabled recorders ignore every call, so
 * the untraced path carries no recording cost beyond a branch.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : on(enabled), origin(hostNow()) {}

    void begin(const std::string &name);
    void end();

    /** Per-name self/total times over every closed span. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Write the recording as a Chrome trace_event JSON array. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Event
    {
        bool isBegin = true;
        std::string name;
        double ts = 0.0; ///< host seconds since the recorder's origin
    };

    bool on;
    double origin;
    std::vector<Event> events;
    std::vector<std::string> open;
};

/** RAII span: begin at construction, end at scope exit. */
class Span
{
  public:
    Span(Spans &spans, const std::string &name) : rec(spans)
    {
        rec.begin(name);
    }
    ~Span() { rec.end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Spans &rec;
};

} // namespace perfbench

#endif // PLIANT_PERFBENCH_SPANS_HH
