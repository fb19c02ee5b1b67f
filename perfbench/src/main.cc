/**
 * @file
 * wsbench: the benchmark driver. Runs one workload (timed, or traced),
 * prints every metric by name with its unit, writes the full run record
 * (and, traced, a Chrome trace) to --out-dir, and ends its standard
 * output with one JSON line: {"correct", "attempted", "failed",
 * "metrics"}.
 *
 *   wsbench --workload sweep-spec --seed 1 --seconds 30 --trace 0
 *           --work-dir DIR --out-dir DIR [--commit SHA] [--tree HASH]
 *   wsbench --list-metrics
 *
 * perfbench/run.py builds this binary and is the documented entry.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/log.h"
#include "workloads.h"

namespace {

using wsbench::Metric;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "wsbench: %s\n"
                 "usage: wsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --out-dir DIR\n"
                 "               [--commit SHA] [--tree HASH]\n"
                 "       wsbench --list-metrics\n",
                 why);
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage(("bad value for " + flag + ": " + text).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list-metrics") {
            for (const auto &[name, unit] : wsbench::layerMetricUnits())
                std::printf("%s %s\n", name.c_str(), unit.c_str());
            return 0;
        }
        if (a.rfind("--", 0) != 0)
            usage(("unexpected argument " + a).c_str());
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
            args[a.substr(2, eq - 2)] = a.substr(eq + 1);
        } else if (i + 1 < argc) {
            args[a.substr(2)] = argv[++i];
        } else {
            usage(("missing value for " + a).c_str());
        }
    }
    auto need = [&](const char *key) -> const std::string & {
        const auto it = args.find(key);
        if (it == args.end())
            usage((std::string("missing --") + key).c_str());
        return it->second;
    };

    wsbench::Options opt;
    if (!wsbench::parseWorkload(need("workload"), &opt.workload))
        usage(("unknown workload " + args["workload"]).c_str());
    opt.seed = parseCount("--seed", need("seed"));
    opt.seconds = static_cast<double>(parseCount("--seconds", need("seconds")));
    const std::string trace = need("trace");
    if (trace != "0" && trace != "1")
        usage("--trace must be 0 or 1");
    opt.trace = trace == "1";
    opt.workDir = need("work-dir");
    const std::string out_dir = need("out-dir");
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    opt.workers = std::min(2u, nproc);
    opt.populateWorkers = std::min(4u, nproc);
    ws::setQuiet(true);  // Verifier notes on oversubscribed designs.
    wsbench::Outcome out = wsbench::runWorkload(opt);

    const std::string tag = std::string(wsbench::workloadName(opt.workload)) +
                            "-s" + std::to_string(opt.seed) + "-t" + trace;
    ws::Json &rec = out.record;
    ws::Json &stamp = rec["stamp"];
    stamp["commit"] = args.count("commit") ? args["commit"] : "unknown";
    stamp["tree"] = args.count("tree") ? args["tree"] : "unknown";
#if defined(__clang__)
    stamp["compiler"] = "clang " __VERSION__;
#elif defined(__GNUC__)
    stamp["compiler"] = "gcc " __VERSION__;
#else
    stamp["compiler"] = "unknown";
#endif
    stamp["build_type"] = WSBENCH_BUILD_TYPE;
    stamp["lto"] = std::string(WSBENCH_LTO) == "ON" ||
                   std::string(WSBENCH_LTO) == "TRUE";
    stamp["nproc"] = nproc;
    stamp["cpu_model"] = cpuModel();
    rec["workload"] = wsbench::workloadName(opt.workload);
    rec["seed"] = static_cast<std::uint64_t>(opt.seed);
    rec["seconds"] = opt.seconds;
    rec["trace"] = opt.trace;
    rec["attempted"] = static_cast<std::uint64_t>(out.attempted);
    rec["failed"] = static_cast<std::uint64_t>(out.failed);
    ws::Json absent = ws::Json::array();
    for (const std::string &name : out.absent)
        absent.push(name);
    rec["absent"] = std::move(absent);

    ws::Json metrics = ws::Json::object();
    ws::Json result = ws::Json::object();
    std::printf("# wsbench %s seed=%llu trace=%s\n", tag.c_str(),
                static_cast<unsigned long long>(opt.seed), trace.c_str());
    for (const Metric &m : out.metrics) {
        std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        ws::Json &entry = metrics[m.name];
        entry["value"] = m.value;
        entry["unit"] = m.unit;
    }
    for (const std::string &name : out.absent)
        std::printf("%-30s %16s (report key missing)\n", name.c_str(),
                    "absent");
    if (opt.trace) {
        std::printf("# self time per layer (traced round):\n");
        for (const auto &[name, row] : rec.find("layers")->fields()) {
            if (name.rfind("traced:", 0) != 0)
                continue;
            std::printf("  %-28s %8llu calls %12.3f ms self %6.1f%%\n",
                        name.c_str() + 7,
                        static_cast<unsigned long long>(
                            row.find("calls")->asNumber()),
                        row.find("self_ms")->asNumber(),
                        100.0 * row.find("self_share")->asNumber());
        }
    }
    std::printf("# failed %llu of %llu points (failed_frac %.6g)\n",
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted),
                rec.find("failed_frac")->asNumber());
    rec["metrics"] = metrics;

    std::filesystem::create_directories(out_dir);
    const std::string record_path = out_dir + "/record-" + tag + ".json";
    std::ofstream(record_path) << rec.dump(2) << '\n';
    std::printf("# record: %s\n", record_path.c_str());
    if (opt.trace) {
        const std::string trace_path = out_dir + "/trace-" + tag + ".json";
        std::ofstream(trace_path) << out.chromeTrace.dump() << '\n';
        std::printf("# chrome trace: %s\n", trace_path.c_str());
    }

    result["correct"] = out.failed == 0 && out.attempted > 0;
    result["attempted"] = static_cast<std::uint64_t>(out.attempted);
    result["failed"] = static_cast<std::uint64_t>(out.failed);
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
