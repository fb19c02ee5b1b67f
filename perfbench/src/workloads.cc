#include "workloads.h"

#include <sched.h>
#include <time.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/sim_io.h"
#include "driver/disk_cache.h"
#include "driver/sim_cache.h"
#include "driver/static_prune.h"
#include "driver/sweep_engine.h"
#include "kernels/kernel.h"
#include "layers.h"
#include "stats.h"
#include "trace.h"

namespace fs = std::filesystem;

namespace wsbench {

namespace {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Restrict the calling thread to @p cpus (an empty list leaves the
 *  mask alone). */
void
pinThread(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** Failed points, by reason. */
struct Failures
{
    std::uint64_t count = 0;
    std::map<std::string, std::uint64_t> reasons;

    void
    add(const std::string &why, std::uint64_t n = 1)
    {
        if (n == 0)
            return;
        count += n;
        reasons[why] += n;
    }
};

/** One round's measurements. */
struct Round
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t points = 0;
    std::uint64_t useful = 0;
    std::vector<double> latencyMs;  ///< One sample per request.
    std::uint64_t digest = 0;
    /** Sweep results, per request (kept for the traced run). */
    std::vector<std::vector<ws::SimResult>> results;
    ws::SweepStats sweep;
    ws::SimCacheStats cache;
};

using PoolKey = std::tuple<std::size_t, std::uint16_t, std::size_t>;

PoolKey
poolKey(const PointSpec &p)
{
    return {p.kernel, p.threads, p.design};
}

class Bench
{
  public:
    explicit Bench(const Options &opt) : opt_(opt)
    {
        fs::create_directories(opt_.workDir);
    }

    ~Bench()
    {
        std::error_code ec;
        fs::remove_all(opt_.workDir, ec);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    Outcome timed();
    Outcome traced();

  private:
    bool isReplay() const
    {
        return opt_.workload == Workload::kReplayWarm;
    }
    unsigned workers() const
    {
        return opt_.workload == Workload::kSweepSplash ? opt_.workers : 1;
    }

    double setUp(Tracer *tracer);
    void checkSetUp();
    Round runRound(std::size_t r, unsigned workers, Tracer *spans);
    void checkSweepRound(const std::vector<Request> &reqs, Round &rd);
    std::string responseLine(std::size_t index, const PointSpec &p,
                             const ws::SimResult &r, ws::SimCache::Tier tier,
                             Tracer *tracer) const;
    std::uint64_t tracedRound(Tracer &t, const Round &ref, Counts &counts,
                              std::vector<double> &recordBytes);
    std::string freshDir(const std::string &tag);
    void fillRecord(Outcome &out) const;
    void moveToNextCpu();

    Options opt_;
    std::unique_ptr<Plan> plan_;
    std::unique_ptr<Catalog> catalog_;
    std::string store_;  ///< replay-warm: the populated store.
    std::map<PoolKey, ws::SimResult> fresh_;  ///< replay-warm truth.
    Failures failures_;
    bool injected_ = false;
    std::uint64_t dirSeq_ = 0;
    const std::vector<int> cpus_ = allowedCpus();
    bool rotate_ = false;       ///< Move single-threaded work across CPUs.
    std::size_t cpuTurn_ = 0;
};

void
Bench::moveToNextCpu()
{
    if (rotate_ && !cpus_.empty())
        pinThread({cpus_[cpuTurn_++ % cpus_.size()]});
}

std::string
Bench::freshDir(const std::string &tag)
{
    const fs::path dir =
        fs::path(opt_.workDir) / (tag + "-" + std::to_string(dirSeq_++));
    fs::remove_all(dir);
    return dir.string();
}

ws::SweepEngine::Options
engineOptions(unsigned jobs, const std::string &cacheDir)
{
    ws::SweepEngine::Options o;
    o.jobs = jobs;
    o.progress = false;
    o.label = "wsbench";
    o.cacheDir = cacheDir;
    return o;
}

double
Bench::setUp(Tracer *tracer)
{
    // Each set-up starts from nothing: no graphs, no store.
    catalog_.reset();
    plan_.reset();
    fresh_.clear();
    if (!store_.empty())
        fs::remove_all(store_);

    const double t0 = nowSeconds();
    plan_ = std::make_unique<Plan>(opt_.workload, opt_.seed);
    catalog_ = std::make_unique<Catalog>(*plan_, tracer);
    if (isReplay()) {
        store_ = freshDir("store");
        ws::SweepEngine engine(engineOptions(opt_.populateWorkers, store_));
        std::vector<ws::SimJob> jobs;
        for (const PointSpec &p : plan_->points())
            jobs.push_back(catalog_->job(p));
        std::vector<ws::SimResult> results;
        {
            Scope span(tracer, "driver.sweep.run");
            results = engine.run(jobs);
        }
        for (std::size_t i = 0; i < results.size(); ++i)
            fresh_.emplace(poolKey(plan_->points()[i]),
                           std::move(results[i]));
    }
    return nowSeconds() - t0;
}

void
Bench::checkSetUp()
{
    catalog_->interpretAll();
    if (!isReplay())
        return;
    for (const PointSpec &p : plan_->points()) {
        const std::string why =
            checkResult(fresh_.at(poolKey(p)), catalog_->oracle(p));
        if (!why.empty())
            failures_.add("set-up: " + why);
    }
    if (opt_.inject == Inject::kStore) {
        // Truncate the record round 0 asks for first.
        const ws::SimKey key =
            catalog_->key(plan_->round(0).front().points.front());
        std::ofstream(ws::DiskSimCache(store_).recordPath(key),
                      std::ios::trunc)
            << "{\"key\": {\"graph_fp\": ";
    }
}

std::string
Bench::responseLine(std::size_t index, const PointSpec &p,
                    const ws::SimResult &r, ws::SimCache::Tier tier,
                    Tracer *tracer) const
{
    const auto id = static_cast<std::int64_t>(index);
    ws::Json line = ws::Json::object();
    line["index"] = static_cast<std::uint64_t>(index);
    line["kernel"] = ws::kernelRegistry()[p.kernel].name;
    line["threads"] = static_cast<unsigned>(p.threads);
    line["source"] = tier == ws::SimCache::Tier::kMemory ? "memory" : "disk";
    line["completed"] = r.completed;
    line["cycles"] = static_cast<std::uint64_t>(r.cycles);
    line["useful"] = static_cast<std::uint64_t>(r.useful);
    line["aipc"] = r.aipc;
    {
        Scope span(tracer, "sim_io.encode", id);
        line["result"] = ws::simResultToJson(r);
    }
    Scope span(tracer, "json.dump", id);
    return line.dump();
}

void
Bench::checkSweepRound(const std::vector<Request> &reqs, Round &rd)
{
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        for (std::size_t j = 0; j < reqs[i].points.size(); ++j) {
            const ws::SimResult &res = rd.results[i][j];
            ++rd.points;
            rd.useful += res.useful;
            rd.digest = digestResult(rd.digest, res);
            if (res.pruned)
                continue;
            Oracle oracle = catalog_->oracle(reqs[i].points[j]);
            if (opt_.inject == Inject::kOracle && !injected_) {
                ++oracle.useful;
                injected_ = true;
            }
            const std::string why = checkResult(res, oracle);
            if (!why.empty())
                failures_.add(why);
        }
    }
    failures_.add("simulated AIPC above its static bound (prune error)",
                  rd.sweep.pruneErrors);
}

Round
Bench::runRound(std::size_t r, unsigned workers, Tracer *spans)
{
    const std::vector<Request> reqs = plan_->round(r);
    Round rd;
    moveToNextCpu();
    switch (opt_.workload) {
      case Workload::kSweepSpec: {
        ws::SweepEngine engine(engineOptions(1, ""));
        const double c0 = processCpuSeconds();
        const double t0 = nowSeconds();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const ws::SimJob job = catalog_->job(reqs[i].points.front());
            const double a = nowSeconds();
            {
                Scope span(spans, "driver.sweep.runOne",
                           static_cast<std::int64_t>(i));
                rd.results.push_back({engine.runOne(job)});
            }
            rd.latencyMs.push_back((nowSeconds() - a) * 1e3);
        }
        rd.wallS = nowSeconds() - t0;
        rd.cpuS = processCpuSeconds() - c0;
        rd.sweep = engine.stats();
        rd.cache = engine.cache().stats();
        checkSweepRound(reqs, rd);
        break;
      }
      case Workload::kSweepSplash: {
        const std::string dir = freshDir("round");
        {
            ws::SweepEngine engine(engineOptions(workers, dir));
            ws::ProfileCache profiles;
            ws::SweepEngine::PruneOptions prune;
            prune.enabled = true;
            const double c0 = processCpuSeconds();
            const double t0 = nowSeconds();
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const double a = nowSeconds();
                std::vector<ws::SimJob> jobs;
                for (const PointSpec &p : reqs[i].points) {
                    ws::SimJob job = catalog_->job(p);
                    const ws::BoundBreakdown b =
                        profiles.boundFor(*job.graph, job.graphFp, job.cfg);
                    job.staticBound = b.bound;
                    job.boundTerm = b.binding;
                    jobs.push_back(std::move(job));
                }
                {
                    Scope span(spans, "driver.sweep.runGrouped",
                               static_cast<std::int64_t>(i));
                    rd.results.push_back(
                        engine.runGrouped(jobs, reqs[i].groupEnd, prune));
                }
                rd.latencyMs.push_back((nowSeconds() - a) * 1e3);
            }
            rd.wallS = nowSeconds() - t0;
            rd.cpuS = processCpuSeconds() - c0;
            rd.sweep = engine.stats();
            rd.cache = engine.cache().stats();
        }
        fs::remove_all(dir);
        checkSweepRound(reqs, rd);
        break;
      }
      case Workload::kReplayWarm: {
        // A fresh cache per round with only the store behind it. Only
        // the answer (probe, lookup, response line) is timed; checking
        // each answer against the fresh result happens between
        // requests and is taken out of the round's time and CPU.
        ws::SimCache cache;
        cache.attachDisk(store_);
        double check_cpu = 0.0;
        const double c0 = processCpuSeconds();
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const PointSpec &p = reqs[i].points.front();
            const ws::SimKey key = catalog_->key(p);
            ws::SimResult res;
            std::string line;
            const double a = nowSeconds();
            const ws::SimCache::Tier tier = cache.probe(key);
            bool hit = false;
            {
                Scope span(spans, "driver.sim_cache.lookup",
                           static_cast<std::int64_t>(i));
                hit = cache.lookup(key, &res);
            }
            if (hit)
                line = responseLine(i, p, res, tier, nullptr);
            const double b = nowSeconds();
            rd.latencyMs.push_back((b - a) * 1e3);
            rd.wallS += b - a;

            const double cc = threadCpuSeconds();
            ++rd.points;
            if (!hit) {
                failures_.add("replay: point missing from the store");
            } else if (!ws::simResultsEqual(res, fresh_.at(poolKey(p)))) {
                failures_.add("replay: result differs from the fresh run");
            } else if (line.empty()) {
                failures_.add("replay: empty response line");
            }
            rd.useful += res.useful;
            rd.digest = digestResult(rd.digest, res);
            check_cpu += threadCpuSeconds() - cc;
        }
        rd.cpuS = processCpuSeconds() - c0 - check_cpu;
        rd.cache = cache.stats();
        break;
      }
    }
    return rd;
}

/** Mean duration of the spans called @p name, in ms (0 if none). */
double
meanMs(const std::map<std::string, Tracer::LayerTime> &t,
       const std::string &name)
{
    const auto it = t.find(name);
    return it == t.end() || it->second.calls == 0
               ? 0.0
               : it->second.totalMs / static_cast<double>(it->second.calls);
}

double
totalMs(const std::map<std::string, Tracer::LayerTime> &t,
        const std::string &name)
{
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.totalMs;
}

std::uint64_t
calls(const std::map<std::string, Tracer::LayerTime> &t,
      const std::string &name)
{
    const auto it = t.find(name);
    return it == t.end() ? 0 : it->second.calls;
}

std::uint64_t
Bench::tracedRound(Tracer &t, const Round &ref, Counts &counts,
                   std::vector<double> &recordBytes)
{
    const std::vector<Request> reqs = plan_->round(0);
    std::uint64_t points = 0;
    auto sameAsEngine = [&](const ws::SimResult &traced,
                            const ws::SimResult &engine) {
        Scope span(&t, "bench.check");
        if (!ws::simResultsEqual(traced, engine))
            failures_.add("traced: result differs from the engine's");
    };
    // The store write path, encode and decode each timed on its own
    // (DiskSimCache::insert encodes again inside).
    auto encodeDecode = [&](const ws::SimResult &r, std::int64_t id) {
        ws::Json j;
        std::string text;
        {
            Scope span(&t, "sim_io.encode", id);
            j = ws::simResultToJson(r);
        }
        {
            Scope span(&t, "json.dump", id);
            text = j.dump();
        }
        recordBytes.push_back(static_cast<double>(text.size()));
        bool ok = false;
        ws::Json back;
        {
            Scope span(&t, "json.parse", id);
            back = ws::Json::parse(text, &ok);
        }
        ws::SimResult decoded;
        {
            Scope span(&t, "sim_io.decode", id);
            ok = ok && ws::simResultFromJson(back, &decoded);
        }
        Scope span(&t, "bench.check", id);
        if (!ok || !ws::simResultsEqual(decoded, r))
            failures_.add("traced: sim_io round trip changed a result");
    };

    switch (opt_.workload) {
      case Workload::kSweepSpec: {
        ws::SimCache memo;  // SweepEngine's memory tier, as runOne uses it.
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            const PointSpec &p = reqs[i].points.front();
            const ws::SimJob job = catalog_->job(p);
            const ws::SimKey key = catalog_->key(p);
            Scope span(&t, "point", id);
            ws::SimResult probe;
            {
                Scope s(&t, "driver.sim_cache.lookup", id);
                memo.lookup(key, &probe);
            }
            const ws::SimResult r = tracedSimulate(t, job, id);
            {
                Scope s(&t, "driver.sim_cache.insert", id);
                memo.insert(key, r);
            }
            sameAsEngine(r, ref.results[i].front());
            counts.add(r.report);
            ++points;
        }
        break;
      }
      case Workload::kSweepSplash: {
        ws::ProfileCache profiles;
        ws::SimCache memo;
        const std::string dir = freshDir("traced");
        {
            ws::DiskSimCache disk(dir);
            std::int64_t id = 0;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                Scope request(&t, "request", static_cast<std::int64_t>(i));
                std::vector<ws::SimJob> jobs;
                for (std::size_t j = 0; j < reqs[i].points.size(); ++j) {
                    jobs.push_back(catalog_->job(reqs[i].points[j]));
                    Scope s(&t, "analyze.bound", id + static_cast<long>(j));
                    profiles.boundFor(*jobs.back().graph, jobs.back().graphFp,
                                      jobs.back().cfg);
                }
                for (std::size_t j = 0; j < jobs.size(); ++j, ++id) {
                    ++points;
                    const ws::SimResult &engine = ref.results[i][j];
                    if (engine.pruned)
                        continue;  // The engine proved it dominated.
                    const ws::SimKey key = catalog_->key(reqs[i].points[j]);
                    Scope span(&t, "point", id);
                    ws::SimResult probe;
                    {
                        Scope s(&t, "driver.sim_cache.lookup", id);
                        memo.lookup(key, &probe);
                    }
                    const ws::SimResult r = tracedSimulate(t, jobs[j], id);
                    {
                        Scope s(&t, "driver.sim_cache.insert", id);
                        memo.insert(key, r);
                    }
                    encodeDecode(r, id);
                    {
                        Scope s(&t, "driver.disk.insert", id);
                        disk.insert(key, r);
                    }
                    sameAsEngine(r, engine);
                    counts.add(r.report);
                }
            }
        }
        fs::remove_all(dir);
        break;
      }
      case Workload::kReplayWarm: {
        ws::SimCache memo;
        ws::DiskSimCache disk(store_);
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            const PointSpec &p = reqs[i].points.front();
            const ws::SimKey key = catalog_->key(p);
            Scope request(&t, "request", id);
            ws::SimCache::Tier tier = ws::SimCache::Tier::kNone;
            {
                // SimCache::probe: the memory tier, then the record file.
                Scope s(&t, "driver.sim_cache.probe", id);
                tier = memo.probe(key);
                if (tier == ws::SimCache::Tier::kNone && disk.contains(key))
                    tier = ws::SimCache::Tier::kDisk;
            }
            ws::SimResult r;
            bool hit = false;
            {
                Scope s(&t, "driver.sim_cache.lookup", id);
                hit = memo.lookup(key, &r);
            }
            ++points;
            if (!hit) {
                {
                    Scope s(&t, "driver.disk.lookup", id);
                    hit = disk.lookup(key, &r);
                }
                if (!hit) {
                    failures_.add("traced: point missing from the store");
                    continue;
                }
                {
                    Scope s(&t, "driver.sim_cache.insert", id);
                    memo.insert(key, r);
                }
                // The disk read taken apart: raw bytes, parse, decode.
                std::string text;
                {
                    Scope s(&t, "driver.disk.read_file", id);
                    text = readFile(disk.recordPath(key));
                }
                recordBytes.push_back(static_cast<double>(text.size()));
                bool ok = false;
                ws::Json record;
                {
                    Scope s(&t, "json.parse", id);
                    record = ws::Json::parse(text, &ok);
                }
                ws::SimResult decoded;
                {
                    Scope s(&t, "sim_io.decode", id);
                    const ws::Json *result =
                        ok ? record.find("result") : nullptr;
                    ok = result != nullptr &&
                         ws::simResultFromJson(*result, &decoded);
                }
                if (!ok)
                    failures_.add("traced: stored record does not decode");
            }
            const std::string line = responseLine(i, p, r, tier, &t);
            Scope check(&t, "bench.check", id);
            if (line.empty())
                failures_.add("traced: empty response line");
            if (!ws::simResultsEqual(r, fresh_.at(poolKey(p))))
                failures_.add("traced: replayed result differs");
        }
        break;
      }
    }
    return points;
}

Outcome
Bench::timed()
{
    const unsigned repeats =
        opt_.setupRepeats != 0 ? opt_.setupRepeats : (isReplay() ? 3 : 15);
    // A single thread stays on whichever CPU the scheduler gave it, and
    // on a shared host CPUs differ in speed (by up to 2x, and over
    // time). Moving single-threaded work to the next CPU every set-up
    // and every round makes a run sample all of them, which steadies
    // run-to-run figures; moving it more often costs cold caches inside
    // the measurement. Pinning changes where the program runs, never
    // what it computes. Worker pools would inherit a pin, so
    // sweep-splash rounds and the replay-warm population are left to
    // the scheduler.
    std::vector<double> setups;
    rotate_ = !isReplay();
    for (unsigned i = 0; i < repeats; ++i) {
        moveToNextCpu();
        setups.push_back(setUp(nullptr));
    }
    rotate_ = false;
    pinThread(cpus_);
    checkSetUp();

    std::vector<Round> rounds;
    std::map<std::size_t, std::uint64_t> cycleDigest;
    const double start = nowSeconds();
    rotate_ = workers() == 1;
    for (std::size_t r = 0;
         rounds.empty() || nowSeconds() - start < opt_.seconds; ++r) {
        Round rd = runRound(r, workers(), nullptr);
        rd.results.clear();
        // A sweep round that comes round again must simulate the same.
        if (!isReplay()) {
            const auto [it, first] =
                cycleDigest.emplace(r % plan_->cycleRounds(), rd.digest);
            if (!first && it->second != rd.digest)
                failures_.add("round digest changed on repeat");
        }
        rounds.push_back(std::move(rd));
    }
    rotate_ = false;
    pinThread(cpus_);

    Outcome out;
    std::vector<double> lat;
    ws::Json table = ws::Json::array();
    double wall = 0.0;
    double cpu = 0.0;
    std::uint64_t points = 0;
    std::uint64_t useful = 0;
    for (const Round &rd : rounds) {
        wall += rd.wallS;
        cpu += rd.cpuS;
        points += rd.points;
        useful += rd.useful;
        lat.insert(lat.end(), rd.latencyMs.begin(), rd.latencyMs.end());
        out.attempted += rd.points;
        ws::Json row = ws::Json::object();
        row["wall_s"] = rd.wallS;
        row["cpu_s"] = rd.cpuS;
        row["points"] = static_cast<std::uint64_t>(rd.points);
        row["useful"] = static_cast<std::uint64_t>(rd.useful);
        row["requests"] = static_cast<std::uint64_t>(rd.latencyMs.size());
        row["digest"] = hex(rd.digest);
        table.push(std::move(row));
    }
    out.metrics = {
        {"points_per_s", static_cast<double>(points) / wall, "points/s"},
        {"sim_kips", static_cast<double>(useful) / wall / 1e3, "kinst/s"},
        {"cpu_s", cpu / static_cast<double>(rounds.size()), "s"},
        {"point_ms_p50", quantile(lat, 0.50), "ms"},
        {"point_ms_p95", quantile(lat, 0.95), "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    ws::Json &rec = out.record;
    rec["rounds"] = std::move(table);
    rec["digest"] = hex(rounds.front().digest);
    rec["latency_samples"] = static_cast<std::uint64_t>(lat.size());
    rec["rounds_measured"] = static_cast<std::uint64_t>(rounds.size());
    rec["point_ms_p99"] = quantile(lat, 0.99);
    std::uint64_t rejected = 0;
    for (const Round &rd : rounds)
        rejected += rd.cache.diskRejected;
    rec["disk_rejected"] = rejected;
    ws::Json s = ws::Json::array();
    for (double v : setups)
        s.push(v);
    rec["setup_s_samples"] = std::move(s);
    fillRecord(out);
    return out;
}

Outcome
Bench::traced()
{
    Tracer setup_spans;
    Tracer engine_spans;
    Tracer layer_spans;
    setUp(&setup_spans);
    checkSetUp();

    // The untraced reference: round 0 at the workload's worker count,
    // with one span per engine call (negligible next to a point).
    // The overhead compares two single-threaded runs of round 0, both
    // on one CPU: CPUs of a shared host differ in speed.
    const unsigned w = workers();
    const std::vector<int> one_cpu(cpus_.begin(),
                                   cpus_.begin() + (cpus_.empty() ? 0 : 1));
    if (w == 1)
        pinThread(one_cpu);
    const Round ref = runRound(0, w, &engine_spans);
    const double pool_busy =
        ref.cpuS / (static_cast<double>(w) * ref.wallS);
    pinThread(one_cpu);
    const double base_cpu = w > 1 ? runRound(0, 1, nullptr).cpuS : ref.cpuS;

    Counts counts;
    std::vector<double> record_bytes;
    const double c0 = processCpuSeconds();
    const std::uint64_t traced_points =
        tracedRound(layer_spans, ref, counts, record_bytes);
    const double traced_cpu = processCpuSeconds() - c0;
    pinThread(cpus_);

    const auto setup_t = setup_spans.layerTimes();
    const auto t = layer_spans.layerTimes();
    // Calls the traced run makes only to attribute time (standalone
    // verify/place, the separate encode/decode and raw read) or to
    // check results are not tracing overhead; they come off before the
    // comparison.
    double extra_ms = totalMs(t, "bench.check") + totalMs(t, "verify") +
                      totalMs(t, "place") +
                      totalMs(t, "driver.disk.read_file") +
                      totalMs(t, "json.parse") + totalMs(t, "sim_io.decode");
    if (opt_.workload == Workload::kSweepSplash)
        extra_ms += totalMs(t, "sim_io.encode") + totalMs(t, "json.dump");
    const double overhead = (traced_cpu - extra_ms / 1e3) / base_cpu - 1.0;

    const double run_ms = totalMs(t, "core.run");
    double sim_cycles = 0.0;
    double useful = 0.0;
    for (const auto &[name, value] : counts.metrics()) {
        if (name == "core.sim_cycles")
            sim_cycles = value;
        if (name == "core.useful_insts")
            useful = value;
    }
    const std::uint64_t encodes = calls(t, "sim_io.encode");
    const std::uint64_t decodes = calls(t, "sim_io.decode");
    const std::vector<double> &lat = ref.latencyMs;
    const bool replay = isReplay();
    auto us = [](double ms) { return ms * 1e3; };

    Outcome out;
    std::vector<Metric> m = {
        {"kernels.build_ms", meanMs(setup_t, "kernels.build"), "ms"},
        {"verify.ms", meanMs(t, "verify"), "ms"},
        {"place.ms", meanMs(t, "place"), "ms"},
        {"core.construct_ms", meanMs(t, "core.construct"), "ms"},
        {"core.run_ms", meanMs(t, "core.run"), "ms"},
        {"core.report_ms", meanMs(t, "core.report"), "ms"},
        {"core.ns_per_cycle",
         sim_cycles == 0.0 ? 0.0 : run_ms * 1e6 / sim_cycles, "ns"},
        {"core.ns_per_inst", useful == 0.0 ? 0.0 : run_ms * 1e6 / useful,
         "ns"},
    };
    for (const auto &[name, value] : counts.metrics()) {
        m.push_back({name, value, ""});
    }
    const double submitted = static_cast<double>(ref.sweep.jobsSubmitted);
    const std::vector<Metric> rest = {
        {"analyze.bound_ms", meanMs(t, "analyze.bound"), "ms"},
        {"driver.pruned", static_cast<double>(ref.sweep.pruned), ""},
        {"driver.prune_rate",
         submitted == 0.0 ? 0.0
                          : static_cast<double>(ref.sweep.pruned) / submitted,
         ""},
        {"driver.prune_errors", static_cast<double>(ref.sweep.pruneErrors),
         ""},
        {"driver.sim_cache.memory_hits",
         static_cast<double>(ref.cache.memoryHits), ""},
        {"driver.sim_cache.disk_hits", static_cast<double>(ref.cache.diskHits),
         ""},
        {"driver.sim_cache.misses", static_cast<double>(ref.cache.misses), ""},
        {"driver.pool_busy", replay ? 0.0 : pool_busy, ""},
        {"driver.lookup_us_p50", replay ? us(quantile(lat, 0.50)) : 0.0, ""},
        {"driver.lookup_us_p99", replay ? us(quantile(lat, 0.99)) : 0.0, ""},
        {"driver.disk.read_us", us(meanMs(t, "driver.disk.lookup")), ""},
        {"driver.disk.write_us", us(meanMs(t, "driver.disk.insert")), ""},
        {"driver.disk.rejected", static_cast<double>(ref.cache.diskRejected),
         ""},
        {"driver.disk.writes", static_cast<double>(ref.cache.diskWrites), ""},
        {"sim_io.encode_us",
         encodes == 0 ? 0.0
                      : us(totalMs(t, "sim_io.encode") +
                           totalMs(t, "json.dump")) /
                            static_cast<double>(encodes),
         ""},
        {"sim_io.decode_us",
         decodes == 0 ? 0.0
                      : us(totalMs(t, "json.parse") +
                           totalMs(t, "sim_io.decode")) /
                            static_cast<double>(decodes),
         ""},
        {"sim_io.record_bytes", median(record_bytes), ""},
        {"trace.overhead", overhead, ""},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    std::map<std::string, std::string> units;
    for (const auto &[name, unit] : layerMetricUnits())
        units[name] = unit;
    for (Metric &metric : m)
        metric.unit = units.at(metric.name);
    out.metrics = std::move(m);
    out.absent.assign(counts.absent().begin(), counts.absent().end());
    out.attempted = ref.points + traced_points;

    // Self time per layer: set-up, engine-level and layer-level spans.
    ws::Json layers = ws::Json::object();
    double traced_total = 0.0;
    for (const auto &[name, lt] : t)
        traced_total += lt.selfMs;
    auto addLayers = [&](const std::map<std::string, Tracer::LayerTime> &lt,
                         const std::string &phase) {
        for (const auto &[name, v] : lt) {
            ws::Json row = ws::Json::object();
            row["phase"] = phase;
            row["calls"] = static_cast<std::uint64_t>(v.calls);
            row["total_ms"] = v.totalMs;
            row["self_ms"] = v.selfMs;
            if (phase == "traced")
                row["self_share"] = v.selfMs / traced_total;
            layers[phase + ":" + name] = std::move(row);
        }
    };
    addLayers(setup_t, "setup");
    addLayers(engine_spans.layerTimes(), "engine");
    addLayers(t, "traced");
    ws::Json &rec = out.record;
    rec["layers"] = std::move(layers);
    rec["traced_cpu_s"] = traced_cpu;
    rec["untraced_cpu_s_1_worker"] = base_cpu;
    rec["attribution_calls_ms"] = extra_ms;
    rec["trace_overhead_gross"] = traced_cpu / base_cpu - 1.0;
    // The CPU comparison above rests on one round each and carries the
    // host's run-to-run noise; the cost of the span machinery itself,
    // calibrated here, bounds what tracing can add.
    {
        Tracer calib;
        const double t0 = nowSeconds();
        for (std::int64_t i = 0; i < 100000; ++i)
            Scope span(&calib, "driver.sim_cache.lookup", i);
        const double span_s = (nowSeconds() - t0) / 1e5;
        rec["span_cost_us"] = span_s * 1e6;
        rec["trace_overhead_spans"] =
            span_s * static_cast<double>(layer_spans.spans().size()) /
            traced_cpu;
    }
    rec["digest"] = hex(ref.digest);
    rec["latency_samples"] = static_cast<std::uint64_t>(lat.size());
    rec["spans"] = static_cast<std::uint64_t>(
        setup_spans.spans().size() + engine_spans.spans().size() +
        layer_spans.spans().size());

    ws::Json events = ws::Json::array();
    setup_spans.appendChromeEvents(events, 1);
    engine_spans.appendChromeEvents(events, 2);
    layer_spans.appendChromeEvents(events, 3);
    out.chromeTrace = ws::Json::object();
    out.chromeTrace["traceEvents"] = std::move(events);
    out.chromeTrace["displayTimeUnit"] = "ms";
    fillRecord(out);
    return out;
}

void
Bench::fillRecord(Outcome &out) const
{
    out.failed = failures_.count;
    ws::Json &rec = out.record;
    rec["failed_frac"] =
        out.attempted == 0
            ? 1.0
            : static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted);
    ws::Json reasons = ws::Json::object();
    for (const auto &[why, n] : failures_.reasons)
        reasons[why] = static_cast<std::uint64_t>(n);
    rec["failure_reasons"] = std::move(reasons);
    rec["graphs"] = static_cast<std::uint64_t>(catalog_->graphCount());
    rec["distinct_points"] =
        static_cast<std::uint64_t>(plan_->points().size());
    rec["points_per_round0"] = static_cast<std::uint64_t>([&] {
        std::size_t n = 0;
        for (const Request &req : plan_->round(0))
            n += req.points.size();
        return n;
    }());
    rec["workers"] = workers();
    if (isReplay())
        rec["populate_workers"] = opt_.populateWorkers;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
layerMetricUnits()
{
    std::vector<std::pair<std::string, std::string>> out = {
        {"kernels.build_ms", "ms"},   {"verify.ms", "ms"},
        {"place.ms", "ms"},           {"core.construct_ms", "ms"},
        {"core.run_ms", "ms"},        {"core.report_ms", "ms"},
        {"core.ns_per_cycle", "ns"},  {"core.ns_per_inst", "ns"},
    };
    for (const std::string &name : Counts::names()) {
        const char *unit = "count";
        if (name == "core.skip_rate")
            unit = "ratio";
        else if (name == "traffic.mean_latency")
            unit = "cycles";
        out.emplace_back(name, unit);
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"analyze.bound_ms", "ms"},
        {"driver.pruned", "count"},
        {"driver.prune_rate", "ratio"},
        {"driver.prune_errors", "count"},
        {"driver.sim_cache.memory_hits", "count"},
        {"driver.sim_cache.disk_hits", "count"},
        {"driver.sim_cache.misses", "count"},
        {"driver.pool_busy", "ratio"},
        {"driver.lookup_us_p50", "us"},
        {"driver.lookup_us_p99", "us"},
        {"driver.disk.read_us", "us"},
        {"driver.disk.write_us", "us"},
        {"driver.disk.rejected", "count"},
        {"driver.disk.writes", "count"},
        {"sim_io.encode_us", "us"},
        {"sim_io.decode_us", "us"},
        {"sim_io.record_bytes", "bytes"},
        {"trace.overhead", "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

Outcome
runWorkload(const Options &opt)
{
    Bench bench(opt);
    return opt.trace ? bench.traced() : bench.timed();
}

} // namespace wsbench
