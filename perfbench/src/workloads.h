/**
 * @file
 * The three benchmark workloads, their timed phase (end-to-end
 * metrics) and their traced run (per-layer metrics).
 *
 *   sweep-spec    cold Spec/Media sweep, one point at a time through
 *                 SweepEngine::runOne at one worker, no store.
 *   sweep-splash  cold best-thread Splash sweep over large designs,
 *                 SweepEngine::runGrouped with static pruning, two
 *                 workers, a fresh disk store.
 *   replay-warm   answers from a disk store that set-up fills, the way
 *                 wsa-serve --include_report answers: a lookup, then
 *                 the result encoded as the response line.
 *
 * Every workload is a closed loop with one client: it submits the next
 * request only when the previous one is answered.
 */

#ifndef WSBENCH_WORKLOADS_H_
#define WSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "points.h"

namespace wsbench {

/** A deliberate fault, for the benchmark's self-tests. */
enum class Inject : std::uint8_t
{
    kNone,
    kOracle,  ///< The first checked point is compared to a wrong oracle.
    kStore,   ///< One populated store record is overwritten with junk.
};

struct Options
{
    Workload workload = Workload::kSweepSpec;
    std::uint64_t seed = 1;
    double seconds = 10.0;     ///< Timed phase; whole rounds, at least 1.
    bool trace = false;        ///< Traced run (per-layer metrics).
    std::string workDir;       ///< Scratch for stores; removed on exit.
    unsigned workers = 2;      ///< sweep-splash engine workers.
    unsigned populateWorkers = 4;  ///< replay-warm set-up workers.
    unsigned setupRepeats = 0; ///< Set-ups per run; 0 = workload default.
    Inject inject = Inject::kNone;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;  ///< Points answered and checked.
    std::uint64_t failed = 0;     ///< Points that failed a check.
    ws::Json record = ws::Json::object();  ///< Everything else.
    ws::Json chromeTrace;         ///< Traced run only.
    /** Per-layer metric names whose report key was missing. */
    std::vector<std::string> absent;
};

/** Run one workload as @p opt says (timed, or traced). */
Outcome runWorkload(const Options &opt);

/** Every per-layer metric name with its unit, in report order. */
std::vector<std::pair<std::string, std::string>> layerMetricUnits();

} // namespace wsbench

#endif // WSBENCH_WORKLOADS_H_
