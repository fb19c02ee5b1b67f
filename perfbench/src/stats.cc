#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace wsbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

} // namespace

std::uint64_t
digestResult(std::uint64_t h, const ws::SimResult &r)
{
    h = ws::hashCombine(h, r.completed ? 1 : 0);
    h = ws::hashCombine(h, r.pruned ? 1 : 0);
    h = ws::hashCombine(h, r.cycles);
    h = ws::hashCombine(h, r.useful);
    h = ws::hashCombine(h, bits(r.aipc));
    h = ws::hashCombine(h, r.checkViolations);
    for (const auto &[name, value] : r.report.entries()) {
        for (const char c : name)
            h = ws::hashCombine(h, static_cast<unsigned char>(c));
        h = ws::hashCombine(h, bits(value));
    }
    return h;
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace wsbench
