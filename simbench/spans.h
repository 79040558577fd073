/**
 * @file
 * Host-time span recorder for the simulator benchmark.
 *
 * The benchmark brackets its own calls into each simulator layer
 * (one event-loop slice, one Interpreter::run, one proxy request, one
 * record-store execute, ...) with spans. Spans stay in memory and are
 * written once, when the run ends. Spans of one replayed request
 * share a request id; a span's self time is its duration minus the
 * part of it that its child spans cover.
 */

#ifndef SIMBENCH_SPANS_H
#define SIMBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed origin. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One recorded interval. Ids start at 1; parent 0 = a root span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/** Per-name totals over all spans of that name. */
struct SpanTotals
{
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
};

/**
 * In-memory span log. Disabled recorders (the untraced run) keep
 * nothing and return id 0, so callers need no separate code path.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; @p name must outlive the recorder. */
    uint64_t begin(const char *name, uint64_t parent, uint64_t request);
    void end(uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Count, total and self time per span name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as a JSON array. @retval false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, uint64_t parent,
               uint64_t request)
        : rec_(rec), id_(rec.begin(name, parent, request))
    {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    uint64_t id_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_H
