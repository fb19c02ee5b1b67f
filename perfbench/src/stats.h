/**
 * @file
 * Small measurement helpers for the benchmark driver: host clocks,
 * process CPU and memory, order statistics, and the statistics digest
 * that proves two runs of one seed simulated the same thing.
 */

#ifndef WSBENCH_STATS_H_
#define WSBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.h"

namespace wsbench {

/** Monotonic host time in seconds. */
double nowSeconds();

/** User + system CPU seconds of this process, all threads. */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Linear-interpolated quantile @p q in [0,1] (0 for an empty set). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Fold every field of @p result, its whole StatReport included, into
 *  the running digest @p h. */
std::uint64_t digestResult(std::uint64_t h, const ws::SimResult &result);

/** Lower-case hex rendering of a digest. */
std::string hex(std::uint64_t value);

} // namespace wsbench

#endif // WSBENCH_STATS_H_
