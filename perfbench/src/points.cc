#include "points.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "area/design_space.h"
#include "common/log.h"
#include "common/rng.h"
#include "kernels/kernel.h"

namespace wsbench {

namespace {

// Salts that keep the plan's random streams independent of each other.
constexpr std::uint64_t kSaltKseed = 0x6b73;
constexpr std::uint64_t kSaltPerm = 0x7065;
constexpr std::uint64_t kSaltRound = 0x726e;
constexpr std::uint64_t kSaltPair = 0x7072;
constexpr std::uint64_t kSaltDraw = 0x6472;

constexpr std::size_t kSpecRoundsPerCycle = 6;
constexpr std::size_t kSplashRequestsPerRound = 3;
constexpr std::uint64_t kSplashMinCapacity = 16384;  ///< "Large" design.
constexpr std::size_t kReplaySpecPoints = 32;    ///< Per Spec/Media kernel.
constexpr std::size_t kReplaySplashPoints = 112; ///< Per Splash kernel.
constexpr std::uint16_t kReplayThreads[] = {1, 2, 4};
constexpr std::size_t kReplayRequests = 2000;    ///< Per round.

ws::Rng
stream(std::uint64_t seed, std::uint64_t salt, std::uint64_t index = 0)
{
    return ws::Rng(ws::hashCombine(ws::hashCombine(seed, salt), index));
}

template <typename T>
void
shuffle(std::vector<T> &v, ws::Rng rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.range(i)]);
}

std::vector<std::size_t>
iota(std::size_t n)
{
    std::vector<std::size_t> v(n);
    std::iota(v.begin(), v.end(), std::size_t{0});
    return v;
}

std::vector<std::size_t>
kernelsWhere(bool multithreaded)
{
    std::vector<std::size_t> out;
    const auto &reg = ws::kernelRegistry();
    for (std::size_t k = 0; k < reg.size(); ++k) {
        if (reg[k].multithreaded == multithreaded)
            out.push_back(k);
    }
    return out;
}

Request
single(const PointSpec &p)
{
    return Request{{p}, {}};
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::kSweepSpec: return "sweep-spec";
      case Workload::kSweepSplash: return "sweep-splash";
      case Workload::kReplayWarm: return "replay-warm";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::kSweepSpec, Workload::kSweepSplash,
                       Workload::kReplayWarm}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

std::vector<std::uint16_t>
threadCandidates(std::size_t perThreadInsts, std::uint64_t capacity)
{
    const std::uint64_t fit = std::max<std::uint64_t>(
        1, capacity / std::max<std::size_t>(1, perThreadInsts));
    std::uint16_t fit_pow2 = 1;
    while (fit_pow2 * 2u <= std::min<std::uint64_t>(fit, 64))
        fit_pow2 = static_cast<std::uint16_t>(fit_pow2 * 2);
    std::set<std::uint16_t> c{1, 2, fit_pow2};
    if (fit_pow2 > 2)
        c.insert(static_cast<std::uint16_t>(fit_pow2 / 2));
    if (fit_pow2 < 64)
        c.insert(static_cast<std::uint16_t>(fit_pow2 * 2));
    return {c.begin(), c.end()};
}

Plan::Plan(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed)
{
    const auto &reg = ws::kernelRegistry();
    const std::vector<ws::DesignPoint> designs = ws::enumerateCandidates();
    ws::Rng kseeds = stream(seed, kSaltKseed);
    for (std::size_t k = 0; k < reg.size(); ++k)
        kseed_.push_back(1 + kseeds.range(8));

    std::set<std::tuple<std::size_t, std::uint16_t, std::size_t>> seen;
    auto note = [&](const PointSpec &p) {
        if (seen.emplace(p.kernel, p.threads, p.design).second)
            points_.push_back(p);
    };

    switch (workload) {
      case Workload::kSweepSpec: {
        // Each kernel visits every design once per cycle: cycle round r
        // takes the r-th slice of that kernel's seeded design order.
        const std::vector<std::size_t> kernels = kernelsWhere(false);
        std::vector<std::vector<std::size_t>> perm;
        for (std::size_t k : kernels) {
            perm.push_back(iota(designs.size()));
            shuffle(perm.back(), stream(seed, kSaltPerm, k));
        }
        for (std::size_t r = 0; r < kSpecRoundsPerCycle; ++r) {
            std::vector<Request> reqs;
            const std::size_t lo = r * designs.size() / kSpecRoundsPerCycle;
            const std::size_t hi =
                (r + 1) * designs.size() / kSpecRoundsPerCycle;
            for (std::size_t i = 0; i < kernels.size(); ++i) {
                for (std::size_t j = lo; j < hi; ++j) {
                    const PointSpec p{kernels[i], 1, kseed_[kernels[i]],
                                      perm[i][j]};
                    reqs.push_back(single(p));
                    note(p);
                }
            }
            shuffle(reqs, stream(seed, kSaltRound, r));
            rounds_.push_back(std::move(reqs));
        }
        break;
      }
      case Workload::kSweepSplash: {
        // Every large design, its six Splash kernels paired at random:
        // one request asks for the best thread count of two kernels on
        // one design, so the two workers each take one group.
        const std::vector<std::size_t> kernels = kernelsWhere(true);
        std::vector<std::size_t> per_thread(reg.size(), 1);
        for (std::size_t k : kernels) {
            ws::KernelParams probe;
            probe.threads = 2;
            probe.seed = kseed_[k];
            per_thread[k] = reg[k].build(probe).size() / 2;
        }
        std::vector<Request> reqs;
        for (std::size_t d = 0; d < designs.size(); ++d) {
            if (designs[d].instCapacity() < kSplashMinCapacity)
                continue;
            std::vector<std::size_t> order = kernels;
            shuffle(order, stream(seed, kSaltPair, d));
            for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
                Request req;
                for (std::size_t k : {order[i], order[i + 1]}) {
                    for (std::uint16_t t : threadCandidates(
                             per_thread[k], designs[d].instCapacity())) {
                        const PointSpec p{k, t, kseed_[k], d};
                        req.points.push_back(p);
                        note(p);
                    }
                    req.groupEnd.push_back(req.points.size());
                }
                reqs.push_back(std::move(req));
            }
        }
        // Seeded order, but alternating design sizes, so that however
        // many requests a run gets through they mix sizes evenly.
        std::map<std::uint64_t, std::vector<Request>> by_size;
        for (Request &req : reqs)
            by_size[designs[req.points.front().design].instCapacity()]
                .push_back(std::move(req));
        reqs.clear();
        for (auto &[capacity, group] : by_size)
            shuffle(group, stream(seed, kSaltRound, capacity));
        for (std::size_t i = 0; !by_size.empty(); ++i) {
            for (auto it = by_size.begin(); it != by_size.end();) {
                if (i < it->second.size()) {
                    reqs.push_back(std::move(it->second[i]));
                    ++it;
                } else {
                    it = by_size.erase(it);
                }
            }
        }
        for (std::size_t i = 0; i < reqs.size();
             i += kSplashRequestsPerRound) {
            const std::size_t end =
                std::min(reqs.size(), i + kSplashRequestsPerRound);
            rounds_.emplace_back(reqs.begin() + static_cast<long>(i),
                                 reqs.begin() + static_cast<long>(end));
        }
        break;
      }
      case Workload::kReplayWarm: {
        // The store's distinct points: every kernel, seeded designs
        // (and small thread counts for Splash, which keep set-up cheap).
        for (std::size_t k = 0; k < reg.size(); ++k) {
            std::vector<PointSpec> options;
            for (std::size_t d = 0; d < designs.size(); ++d) {
                if (!reg[k].multithreaded) {
                    options.push_back(PointSpec{k, 1, kseed_[k], d});
                    continue;
                }
                for (std::uint16_t t : kReplayThreads)
                    options.push_back(PointSpec{k, t, kseed_[k], d});
            }
            shuffle(options, stream(seed, kSaltPerm, k));
            options.resize(std::min(options.size(),
                                    reg[k].multithreaded
                                        ? kReplaySplashPoints
                                        : kReplaySpecPoints));
            for (const PointSpec &p : options)
                note(p);
        }
        break;
      }
    }
    if (points_.empty())
        ws::fatal("wsbench: plan for %s has no points",
                  workloadName(workload));
}

std::size_t
Plan::cycleRounds() const
{
    return workload_ == Workload::kReplayWarm ? 1 : rounds_.size();
}

std::vector<Request>
Plan::round(std::size_t r) const
{
    if (workload_ != Workload::kReplayWarm)
        return rounds_[r % rounds_.size()];
    // Uniform draws with repeats: a point's first request in a round is
    // a disk-tier hit, its repeats are memory-tier hits.
    ws::Rng rng = stream(seed_, kSaltDraw, r);
    std::vector<Request> reqs;
    reqs.reserve(kReplayRequests);
    for (std::size_t i = 0; i < kReplayRequests; ++i)
        reqs.push_back(single(points_[rng.range(points_.size())]));
    return reqs;
}

std::string
Plan::describeRound(std::size_t r) const
{
    std::string out;
    for (const Request &req : round(r)) {
        for (std::size_t i = 0; i < req.points.size(); ++i) {
            const PointSpec &p = req.points[i];
            out += std::to_string(p.kernel) + "/" +
                   std::to_string(p.threads) + "/" +
                   std::to_string(p.kseed) + "/" +
                   std::to_string(p.design) + " ";
        }
        out += "; ";
    }
    return out;
}

} // namespace wsbench
