/**
 * @file
 * The benchmark's own tests: seeded plans are reproducible and cover
 * every kernel, injected faults are detected and counted, a renamed
 * StatReport key is reported absent, and BENCHMARK.json names exactly
 * the metrics the driver reports. Run through `run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "kernels/kernel.h"
#include "layers.h"
#include "points.h"
#include "trace.h"
#include "workloads.h"

namespace wsbench {
namespace {

constexpr Workload kAll[] = {Workload::kSweepSpec, Workload::kSweepSplash,
                             Workload::kReplayWarm};

Options
quick(Workload w, std::uint64_t seed)
{
    static int seq = 0;
    ws::setQuiet(true);
    Options o;
    o.workload = w;
    o.seed = seed;
    o.seconds = 0;  // Exactly one round.
    o.setupRepeats = 1;
    o.workDir = (std::filesystem::current_path() /
                 ("selftest-work-" + std::to_string(getpid()) + "-" +
                  std::to_string(seq++)))
                    .string();
    return o;
}

const ws::Json *
field(const ws::Json &j, const std::string &name)
{
    const ws::Json *f = j.find(name);
    EXPECT_NE(f, nullptr) << name;
    return f;
}

TEST(Plan, SameSeedGivesSamePointList)
{
    for (Workload w : kAll) {
        const Plan a(w, 7);
        const Plan b(w, 7);
        EXPECT_EQ(a.describeRound(0), b.describeRound(0)) << workloadName(w);
        EXPECT_EQ(a.describeRound(1), b.describeRound(1)) << workloadName(w);
        EXPECT_EQ(a.points(), b.points()) << workloadName(w);
    }
}

TEST(Plan, DifferentSeedsGiveDifferentLists)
{
    for (Workload w : kAll) {
        EXPECT_NE(Plan(w, 1).describeRound(0), Plan(w, 2).describeRound(0))
            << workloadName(w);
    }
}

TEST(Plan, AFewSeedsCoverEveryKernel)
{
    std::set<std::size_t> seen;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (Workload w : kAll) {
            for (const Request &req : Plan(w, seed).round(0)) {
                for (const PointSpec &p : req.points)
                    seen.insert(p.kernel);
            }
        }
    }
    EXPECT_EQ(seen.size(), ws::kernelRegistry().size());
}

TEST(Plan, SweepCyclesRepeatAndGroupsCoverTheirRequest)
{
    for (Workload w : {Workload::kSweepSpec, Workload::kSweepSplash}) {
        const Plan plan(w, 3);
        EXPECT_EQ(plan.describeRound(0),
                  plan.describeRound(plan.cycleRounds()));
        for (const Request &req : plan.round(0)) {
            if (!req.groupEnd.empty())
                EXPECT_EQ(req.groupEnd.back(), req.points.size());
        }
    }
}

TEST(Run, SameSeedGivesSameDigestAndNoFailures)
{
    const Outcome a = runWorkload(quick(Workload::kSweepSpec, 5));
    const Outcome b = runWorkload(quick(Workload::kSweepSpec, 5));
    EXPECT_EQ(a.failed, 0u);
    EXPECT_GT(a.attempted, 0u);
    EXPECT_EQ(field(a.record, "digest")->asString(),
              field(b.record, "digest")->asString());
    const Outcome c = runWorkload(quick(Workload::kSweepSpec, 6));
    EXPECT_NE(field(a.record, "digest")->asString(),
              field(c.record, "digest")->asString());
}

TEST(Run, InjectedOracleMismatchIsCounted)
{
    Options o = quick(Workload::kSweepSpec, 1);
    o.inject = Inject::kOracle;
    const Outcome out = runWorkload(o);
    EXPECT_EQ(out.failed, 1u);
    EXPECT_GT(field(out.record, "failed_frac")->asNumber(), 0.0);
    EXPECT_NE(field(out.record, "failure_reasons")
                  ->find("useful differs from the interpreter"),
              nullptr);
}

TEST(Run, CorruptedStoreRecordIsCounted)
{
    Options o = quick(Workload::kReplayWarm, 1);
    o.inject = Inject::kStore;
    const Outcome out = runWorkload(o);
    EXPECT_GE(out.failed, 1u);
    EXPECT_GE(field(out.record, "disk_rejected")->asNumber(), 1.0);
    EXPECT_NE(field(out.record, "failure_reasons")
                  ->find("replay: point missing from the store"),
              nullptr);

    const Outcome clean = runWorkload(quick(Workload::kReplayWarm, 1));
    EXPECT_EQ(clean.failed, 0u);
    EXPECT_EQ(field(clean.record, "disk_rejected")->asNumber(), 0.0);
}

TEST(Run, TracedCountsRepeatExactly)
{
    Options o = quick(Workload::kSweepSpec, 2);
    o.trace = true;
    const Outcome a = runWorkload(o);
    const Outcome b = runWorkload(o);
    ASSERT_EQ(a.metrics.size(), layerMetricUnits().size());
    EXPECT_EQ(a.failed, 0u);
    for (std::size_t i = 0; i < a.metrics.size(); ++i) {
        if (a.metrics[i].unit == "count")
            EXPECT_EQ(a.metrics[i].value, b.metrics[i].value)
                << a.metrics[i].name;
    }
    // Every layer of the traced round left spans behind.
    const ws::Json *layers = field(a.record, "layers");
    for (const char *span :
         {"setup:kernels.build", "engine:driver.sweep.runOne",
          "traced:verify", "traced:place", "traced:core.construct",
          "traced:core.run", "traced:core.report",
          "traced:driver.sim_cache.lookup",
          "traced:driver.sim_cache.insert"}) {
        EXPECT_NE(layers->find(span), nullptr) << span;
    }
    EXPECT_GT(field(a.chromeTrace, "traceEvents")->size(), 0u);
}

TEST(Counts, MissingReportKeyIsAbsentNotACrash)
{
    ws::StatReport a;
    a.add("sim.cycles", ws::Counter{10});
    a.add("activity.active_cycles", ws::Counter{4});
    a.add("activity.skipped_cycles", ws::Counter{6});
    ws::StatReport b = a;
    b.add("pe.rejected", ws::Counter{3});
    Counts counts;
    counts.add(b);
    counts.add(a);  // a lacks pe.rejected and most other keys.
    EXPECT_EQ(counts.absent().count("pe.rejected"), 1u);
    bool has_skip_rate = false;
    for (const auto &[name, value] : counts.metrics()) {
        EXPECT_NE(name, "pe.rejected");
        if (name == "core.skip_rate") {
            has_skip_rate = true;
            EXPECT_DOUBLE_EQ(value, 0.6);
        }
    }
    EXPECT_TRUE(has_skip_rate);
}

TEST(Trace, SelfTimeExcludesChildren)
{
    Tracer t;
    {
        Scope outer(&t, "outer");
        Scope inner(&t, "inner");
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i)
            x = x + 1;
    }
    const auto lt = t.layerTimes();
    EXPECT_NEAR(lt.at("outer").selfMs,
                lt.at("outer").totalMs - lt.at("inner").totalMs, 1e-9);
    EXPECT_EQ(t.spans()[1].parent, 0);
    Scope noop(nullptr, "untraced");  // A null tracer records nothing.
    EXPECT_EQ(t.spans().size(), 2u);
}

TEST(BenchmarkJson, NamesExactlyTheDriversMetrics)
{
    const char *path = std::getenv("WSBENCH_BENCHMARK_JSON");
    if (path == nullptr)
        GTEST_SKIP() << "WSBENCH_BENCHMARK_JSON not set";
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    bool ok = false;
    const ws::Json spec = ws::Json::parse(ss.str(), &ok);
    ASSERT_TRUE(ok);
    const Outcome out = runWorkload(quick(Workload::kSweepSpec, 1));
    const auto &e2e = field(spec, "end_to_end")->items();
    ASSERT_EQ(e2e.size(), out.metrics.size());
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        EXPECT_EQ(field(e2e[i], "name")->asString(), out.metrics[i].name);
        EXPECT_EQ(field(e2e[i], "unit")->asString(), out.metrics[i].unit);
        EXPECT_GT(out.metrics[i].value, 0.0) << out.metrics[i].name;
    }
}

} // namespace
} // namespace wsbench
