/**
 * @file
 * Seeded workload plans: which simulation points each client request
 * asks for, round by round.
 *
 * The benchmark's --seed picks every input: the kernel, its
 * KernelParams.seed, the design from enumerateCandidates(), and the
 * thread count. The program under test only ever receives the graphs
 * and configurations built from a plan.
 *
 * A round is the benchmark's unit of accounting: the timed phase runs
 * whole rounds until its time is up, and reports medians over them.
 * The sweep plans are cyclic — one cycle visits every point of the
 * workload's space once, so a run covers nearly the same points under
 * every seed and only their order, data seeds and pairing change.
 */

#ifndef WSBENCH_POINTS_H_
#define WSBENCH_POINTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsbench {

enum class Workload : std::uint8_t
{
    kSweepSpec,    ///< Cold single-threaded Spec/Media sweep, runOne.
    kSweepSplash,  ///< Cold best-thread Splash sweep, runGrouped.
    kReplayWarm,   ///< Warm answers from a populated disk store.
};

const char *workloadName(Workload w);

/** False when @p name names no workload. */
bool parseWorkload(const std::string &name, Workload *out);

/** Every simulated point gets the harness default budget. */
constexpr std::uint64_t kMaxCycles = 600'000;

/** One simulation point, before any graph is built. */
struct PointSpec
{
    std::size_t kernel = 0;   ///< Index into kernelRegistry().
    std::uint16_t threads = 1;
    std::uint64_t kseed = 1;  ///< KernelParams.seed.
    std::size_t design = 0;   ///< Index into enumerateCandidates().

    bool operator==(const PointSpec &) const = default;
};

/** What one client submits and waits for. */
struct Request
{
    std::vector<PointSpec> points;
    /** Exclusive ends of the best-of reduction groups (sweep-splash);
     *  empty when every point stands alone. */
    std::vector<std::size_t> groupEnd;
};

class Plan
{
  public:
    Plan(Workload workload, std::uint64_t seed);

    /** The requests of round @p r (any r; sweep rounds repeat after
     *  cycleRounds(), replay rounds are fresh draws from the pool). */
    std::vector<Request> round(std::size_t r) const;

    /** Rounds in one sweep cycle (replay-warm: 1). */
    std::size_t cycleRounds() const;

    /** Every distinct point the plan can ask for — the graphs set-up
     *  builds, and on replay-warm the records it stores. */
    const std::vector<PointSpec> &points() const { return points_; }

    /** Canonical text of round @p r (self-tests compare it). */
    std::string describeRound(std::size_t r) const;

  private:
    Workload workload_;
    std::uint64_t seed_;
    std::vector<std::uint64_t> kseed_;  ///< Per kernel.
    std::vector<PointSpec> points_;
    std::vector<std::vector<Request>> rounds_;  ///< One sweep cycle.
};

/**
 * Thread counts a best-thread search tries for a Splash kernel on a
 * design — the bench harnesses' full-run rule: the power-of-two
 * capacity fit (at most 64), half of it, one step of
 * oversubscription, and the 1- and 2-thread anchors.
 */
std::vector<std::uint16_t> threadCandidates(std::size_t perThreadInsts,
                                            std::uint64_t capacity);

} // namespace wsbench

#endif // WSBENCH_POINTS_H_
