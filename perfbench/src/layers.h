/**
 * @file
 * The program's layers as the benchmark sees them from outside: the
 * set-up catalog (kernels), the output oracle (isa interpreter), the
 * per-layer count metrics read from each point's public StatReport,
 * and a layer-by-layer replay of one simulation for the traced run.
 */

#ifndef WSBENCH_LAYERS_H_
#define WSBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/simulator.h"
#include "driver/sweep_engine.h"
#include "isa/graph.h"
#include "points.h"
#include "trace.h"

namespace wsbench {

/** What the reference interpreter says a graph must produce. */
struct Oracle
{
    ws::Counter useful = 0;
    ws::Counter sinkTokens = 0;
    bool completed = false;
};

/**
 * Every graph and configuration a plan needs, built in set-up: one
 * Kernel::build (plus fingerprint) per distinct kernel/threads/seed,
 * one ProcessorConfig per design.
 */
class Catalog
{
  public:
    /** Builds every graph of @p plan; each build is a span when
     *  @p tracer is set. */
    Catalog(const Plan &plan, Tracer *tracer);

    /** The sweep job of one point (budget kMaxCycles). */
    ws::SimJob job(const PointSpec &p) const;

    /** Cache key of one point, as SweepEngine forms it. */
    ws::SimKey key(const PointSpec &p) const;

    /** Interpret every graph once; outside every timed region. */
    void interpretAll();

    const Oracle &oracle(const PointSpec &p) const;

    std::size_t graphCount() const { return graphs_.size(); }

  private:
    using GraphKey = std::tuple<std::size_t, std::uint16_t, std::uint64_t>;
    struct Entry
    {
        std::shared_ptr<const ws::DataflowGraph> graph;
        std::uint64_t fingerprint = 0;
        Oracle oracle;
    };

    const Entry &entry(const PointSpec &p) const;

    std::map<GraphKey, Entry> graphs_;
    std::vector<ws::ProcessorConfig> configs_;
};

/** Empty when @p result is right for its graph; otherwise why not.
 *  A pruned (never simulated) result is not checked here. */
std::string checkResult(const ws::SimResult &result, const Oracle &oracle);

/**
 * Per-layer counters summed over simulated points, read by name from
 * each point's StatReport. A name missing from any report is reported
 * as absent (a later change may rename a key) rather than failing.
 */
class Counts
{
  public:
    void add(const ws::StatReport &report);

    /** (metric name, value) for every counter present in all reports,
     *  plus the derived ratios. */
    std::vector<std::pair<std::string, double>> metrics() const;

    /** Metric names whose report key was missing somewhere. */
    const std::set<std::string> &absent() const { return absent_; }

    /** Every metric name metrics() can produce, in report order. */
    static std::vector<std::string> names();

  private:
    std::map<std::string, double> sums_;
    std::set<std::string> absent_;
};

/**
 * One simulation, layer by layer, each call in its own span: verify and
 * place on their own (both also run inside construction), then
 * Processor construction, run, report and teardown — the work
 * runSimulation() does for each point of a sweep.
 */
ws::SimResult tracedSimulate(Tracer &tracer, const ws::SimJob &job,
                             std::int64_t point);

} // namespace wsbench

#endif // WSBENCH_LAYERS_H_
