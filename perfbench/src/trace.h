/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Every call the benchmark makes into a layer of the program is wrapped
 * in a span (name, start, end, parent, point id). Spans stay in memory
 * and are written out once, after the run, as Chrome trace-event JSON
 * (opens offline in chrome://tracing or Perfetto) plus a per-layer
 * self-time summary. A span's self time is its duration minus the time
 * its child spans cover.
 *
 * Single-threaded by design: the traced run calls the layers in
 * sequence on one thread, so spans nest strictly.
 */

#ifndef WSBENCH_TRACE_H_
#define WSBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace wsbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;          ///< Index of the enclosing span.
        std::int64_t point = -1;  ///< Point id shared by one point's
                                  ///  spans (-1: not per point).
        double childUs = 0.0;     ///< Time covered by child spans.
    };

    /** Per-name totals over every closed span. */
    struct LayerTime
    {
        std::uint64_t calls = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    Tracer();

    /** Open a span nested in the innermost open one; returns its id. */
    int begin(const std::string &name, std::int64_t point = -1);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Calls, total and self time per span name. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Append every span to @p events as a Chrome trace-event "X"
     *  (complete) event on thread @p tid. */
    void appendChromeEvents(ws::Json &events, int tid) const;

  private:
    double originUs_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * RAII span; a null tracer makes it a no-op (no allocation, no clock
 * read), so one code path serves the traced and the untraced run.
 */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::int64_t point = -1)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, point) : -1)
    {}
    ~Scope()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

} // namespace wsbench

#endif // WSBENCH_TRACE_H_
