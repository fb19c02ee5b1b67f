#include "layers.h"

#include "area/design_space.h"
#include "common/log.h"
#include "core/processor.h"
#include "isa/interp.h"
#include "kernels/kernel.h"
#include "place/placement.h"
#include "verify/verifier.h"

namespace wsbench {

Catalog::Catalog(const Plan &plan, Tracer *tracer)
{
    const auto &reg = ws::kernelRegistry();
    for (const PointSpec &p : plan.points()) {
        const GraphKey gk{p.kernel, p.threads, p.kseed};
        if (graphs_.count(gk) != 0)
            continue;
        ws::KernelParams params;
        params.threads = p.threads;
        params.seed = p.kseed;
        Scope span(tracer, "kernels.build");
        Entry e;
        e.graph = std::make_shared<const ws::DataflowGraph>(
            reg[p.kernel].build(params));
        e.fingerprint = ws::kernelFingerprint(reg[p.kernel], params);
        graphs_.emplace(gk, std::move(e));
    }
    for (const ws::DesignPoint &d : ws::enumerateCandidates())
        configs_.push_back(ws::toProcessorConfig(d));
}

const Catalog::Entry &
Catalog::entry(const PointSpec &p) const
{
    const auto it = graphs_.find(GraphKey{p.kernel, p.threads, p.kseed});
    if (it == graphs_.end())
        ws::fatal("wsbench: point outside the catalog");
    return it->second;
}

ws::SimJob
Catalog::job(const PointSpec &p) const
{
    const Entry &e = entry(p);
    ws::SimJob job;
    job.graph = e.graph;
    job.cfg = configs_.at(p.design);
    job.maxCycles = kMaxCycles;
    job.graphFp = e.fingerprint;
    return job;
}

ws::SimKey
Catalog::key(const PointSpec &p) const
{
    return ws::SimKey{entry(p).fingerprint, configs_.at(p.design).fingerprint(),
                      kMaxCycles};
}

void
Catalog::interpretAll()
{
    for (auto &[gk, e] : graphs_) {
        const ws::InterpResult r = ws::interpret(*e.graph);
        e.oracle = Oracle{r.useful, r.sinkTokens, r.completed};
    }
}

const Oracle &
Catalog::oracle(const PointSpec &p) const
{
    return entry(p).oracle;
}

std::string
checkResult(const ws::SimResult &r, const Oracle &o)
{
    if (r.pruned)
        return "";
    if (!o.completed)
        return "interpreter did not complete";
    if (!r.completed)
        return "did not complete within its budget";
    if (r.useful != o.useful)
        return "useful differs from the interpreter";
    if (!r.report.has("sim.sink_tokens"))
        return "sim.sink_tokens absent from the report";
    if (r.report.get("sim.sink_tokens") !=
        static_cast<double>(o.sinkTokens))
        return "sink tokens differ from the interpreter";
    return "";
}

namespace {

/** (metric name, StatReport key), grouped by the layer they describe. */
const std::vector<std::pair<std::string, std::string>> &
countKeys()
{
    static const std::vector<std::pair<std::string, std::string>> keys = {
        {"core.sim_cycles", "sim.cycles"},
        {"core.useful_insts", "sim.useful_executed"},
        {"core.active_cycles", "activity.active_cycles"},
        {"core.skipped_cycles", "activity.skipped_cycles"},
        {"pe.executed", "pe.executed"},
        {"pe.rejected", "pe.rejected"},
        {"pe.overflow_reinserts", "pe.overflow_reinserts"},
        {"pe.output_stalls", "pe.output_stalls"},
        {"match.inserts", "match.inserts"},
        {"match.misses", "match.misses"},
        {"istore.misses", "istore.misses"},
        {"sb.requests", "sb.requests"},
        {"sb.psq_full_stalls", "sb.psq_full_stalls"},
        {"sb.no_psq_stalls", "sb.no_psq_stalls"},
        {"l1.hits", "l1.hits"},
        {"l1.misses", "l1.misses"},
        {"home.l2_misses", "home.l2_misses"},
        {"home.invs_sent", "home.invs_sent"},
        {"traffic.total", "traffic.total"},
        {"traffic.congestion_events", "traffic.congestion_events"},
    };
    return keys;
}

/** Accumulator of traffic.mean_latency weighted by traffic.total. */
constexpr const char *kLatencyWeighted = "traffic.latency_x_total";

} // namespace

void
Counts::add(const ws::StatReport &report)
{
    for (const auto &[metric, key] : countKeys()) {
        if (report.has(key))
            sums_[metric] += report.get(key);
        else
            absent_.insert(metric);
    }
    if (report.has("traffic.mean_latency") && report.has("traffic.total")) {
        sums_[kLatencyWeighted] += report.get("traffic.mean_latency") *
                                   report.get("traffic.total");
    } else {
        absent_.insert("traffic.mean_latency");
    }
}

std::vector<std::string>
Counts::names()
{
    std::vector<std::string> out;
    for (const auto &[metric, key] : countKeys()) {
        out.push_back(metric);
        if (metric == "core.skipped_cycles")
            out.push_back("core.skip_rate");
        if (metric == "traffic.total")
            out.push_back("traffic.mean_latency");
    }
    return out;
}

std::vector<std::pair<std::string, double>>
Counts::metrics() const
{
    auto sum = [&](const std::string &name) {
        const auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    };
    std::vector<std::pair<std::string, double>> out;
    for (const std::string &name : names()) {
        if (absent_.count(name) != 0)
            continue;
        double value = sum(name);
        if (name == "core.skip_rate") {
            if (absent_.count("core.active_cycles") != 0 ||
                absent_.count("core.skipped_cycles") != 0)
                continue;
            const double total =
                sum("core.active_cycles") + sum("core.skipped_cycles");
            value = total == 0.0 ? 0.0 : sum("core.skipped_cycles") / total;
        } else if (name == "traffic.mean_latency") {
            const double total = sum("traffic.total");
            value = total == 0.0 ? 0.0 : sum(kLatencyWeighted) / total;
        }
        out.emplace_back(name, value);
    }
    return out;
}

ws::SimResult
tracedSimulate(Tracer &tracer, const ws::SimJob &job, std::int64_t point)
{
    {
        Scope span(&tracer, "verify", point);
        if (!ws::verify(*job.graph, job.cfg).ok())
            ws::fatal("wsbench: graph %s failed verification",
                      job.graph->name().c_str());
    }
    {
        Scope span(&tracer, "place", point);
        const ws::Placement placed =
            ws::place(*job.graph, job.cfg.placementGeometry(),
                      job.cfg.placement, job.cfg.seed);
        (void)placed;
    }
    std::unique_ptr<ws::Processor> proc;
    {
        Scope span(&tracer, "core.construct", point);
        proc = std::make_unique<ws::Processor>(*job.graph, job.cfg);
    }
    ws::SimResult r;
    {
        Scope span(&tracer, "core.run", point);
        r.completed = proc->run(job.maxCycles);
    }
    r.cycles = proc->cycle();
    r.useful = proc->usefulExecuted();
    r.aipc = proc->aipc();
    {
        Scope span(&tracer, "core.report", point);
        r.report = proc->report();
    }
    if (proc->checker() != nullptr) {
        r.checkViolations = proc->checker()->report().violationCount();
        r.checkLog = proc->checker()->report().render();
    }
    {
        Scope span(&tracer, "core.destroy", point);
        proc.reset();
    }
    return r;
}

} // namespace wsbench
