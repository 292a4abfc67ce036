/**
 * @file
 * Machine scale sweep: host events/sec of whole-machine simulation
 * across node counts, on the synthetic request workload (Section
 * 5.2's shape, sized per node: apps.synth.groups and apps.synth.n
 * default to 2 groups of 50 requests, 20 under FUGU_QUICK). Each cell
 * also reports the process-wide peak resident set (VmHWM, monotone
 * across cells).
 *
 * Writes BENCH_machine.json with --json; --trace records the first
 * run. An empty scale.apps or scale.nodes, or an unknown workload,
 * fails before any run (exit 2).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/benchmain.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

/** A /proc/self/status field such as "VmHWM", in KiB. */
std::uint64_t
procStatusKb(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
            std::sscanf(line + std::strlen(key), ": %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            break;
        }
    }
    std::fclose(f);
    return kb;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = std::getenv("FUGU_QUICK") != nullptr;
    std::string appsCsv = "synth";
    std::vector<unsigned> nodeCounts =
        quick ? std::vector<unsigned>{64, 256}
              : std::vector<unsigned>{64, 256, 1024};
    unsigned reps = 3; // best-of runs per cell (noise floor)

    BenchSpec spec;
    spec.name = "machine";
    spec.defaults = [quick](BenchContext &ctx) {
        // Engine throughput, not checker throughput: the invariant
        // checker's bookkeeping (and its O(nodes^2) sweeps) would
        // dominate at scale; the test suite covers correctness.
        ctx.machine.check.enabled = false;
        ctx.workloads.synth.groups = 2;
        ctx.workloads.synth.n = quick ? 20 : 50;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("scale");
        b.item("apps", appsCsv,
               "workloads to sweep (csv of workload names)");
        b.list("nodes", nodeCounts, "node counts to sweep (csv)");
        b.item("reps", reps,
               "runs per cell; the fastest is reported");
    };
    spec.body = [&](BenchContext &ctx) {
        std::string err;
        if (!checkList(ctx, "scale.apps", &err, "workload",
                       [&](const std::string &name) {
                           return bool(ctx.workloads.find(name));
                       }) ||
            !checkList(ctx, "scale.nodes", &err)) {
            std::fprintf(stderr, "machine: %s\n", err.c_str());
            return 2;
        }

        const apps::SynthAppConfig &synth = ctx.workloads.synth;
        ctx.report.meta("workload", "synth");
        ctx.report.meta("groups_per_node", synth.groups);
        ctx.report.meta("requests_per_group", synth.n);
        ctx.report.meta("units", "host events/sec");

        std::printf("Machine-simulation scale sweep (synth: "
                    "%u groups/node x %u requests)\n",
                    synth.groups, synth.n);
        std::printf("%-6s  %6s  %8s  %12s  %14s  %10s\n", "app",
                    "nodes", "secs", "events", "events/sec", "peak rss");

        std::string tracePath = ctx.tracePath;
        for (const std::string &app : sim::splitConfigList(appsCsv)) {
            for (unsigned nodes : nodeCounts) {
                glaze::MachineConfig cfg = ctx.machine;
                cfg.nodes = nodes;

                // Best of reps runs: host noise only ever slows a run
                // down, so the fastest rep is the least-noisy
                // estimate.
                RunStats r;
                double secs = 0;
                for (unsigned rep = 0; rep < std::max(reps, 1u); ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    const RunStats rr =
                        runJob(cfg, ctx.workloads.factory(app),
                               /*with_null=*/false, /*gang=*/false,
                               ctx.gang, ctx.maxCycles,
                               std::exchange(tracePath, ""));
                    const double s =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
                    if (rep == 0 || s < secs) {
                        r = rr;
                        secs = s;
                    }
                    if (!rr.completed) {
                        std::fprintf(stderr,
                                     "FAIL: %s at %u nodes did not "
                                     "complete\n",
                                     app.c_str(), nodes);
                        return 1;
                    }
                }

                const double eps = r.events / secs;
                const std::uint64_t peakRssKb = procStatusKb("VmHWM");
                std::printf("%-6s  %6u  %8.3f  %12llu  %14.0f  %9lluK\n",
                            app.c_str(), nodes, secs,
                            static_cast<unsigned long long>(r.events),
                            eps,
                            static_cast<unsigned long long>(peakRssKb));
                ctx.report.row({{"app", app},
                                {"nodes", nodes},
                                {"secs", secs},
                                {"events", r.events},
                                {"events_per_sec", eps},
                                {"peak_rss_kb", peakRssKb}});
            }
        }
        return 0;
    };
    return benchMain(spec, argc, argv);
}
