/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library (never inside it), kept in memory while the run measures,
 * and written out as Chrome trace-event JSON when it ends. Every span
 * has a name, start, end, the span that enclosed it, and the id of the
 * module or request it belongs to. A layer's self time is a span's
 * duration minus the time its direct children cover; spans are only
 * opened from one thread, so children never overlap.
 */
#ifndef LPOBENCH_SPANS_H
#define LPOBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lpobench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< index into SpanLog::spans(), -1 for roots
    uint64_t id = 0; ///< module or request id
    double durationMs() const { return (end_ns - start_ns) / 1e6; }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name, uint64_t id);
    void end(int index);

    /**
     * Open a span that later spans do not nest under, for intervals
     * that overlap each other (requests in flight); close it with
     * setEnd(). -1 when disabled.
     */
    int beginDetached(const std::string &name, uint64_t id);
    void setEnd(int index);

    /** RAII span; a no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name, uint64_t id)
            : log_(log), index_(log.begin(name, id))
        {}
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        void close()
        {
            if (index_ >= 0)
                log_.end(index_);
            index_ = -1;
        }

      private:
        SpanLog &log_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the time direct children cover, per span. */
    std::vector<double> selfMs() const;
    /** Summed self time per span name. */
    std::map<std::string, double> selfMsByName() const;
    /** Summed duration per span name. */
    std::map<std::string, double> totalMsByName() const;
    /** Durations of every span called @p name, in record order. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON (complete events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace lpobench

#endif // LPOBENCH_SPANS_H
