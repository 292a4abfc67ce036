/**
 * @file
 * Ablation: NI-buffering backend designs behind the NiBufferBackend
 * interface (`--set ni.backend=...`), swept over offered load under
 * the skewed multiprogrammed schedule that exercises both delivery
 * cases:
 *
 *  - static_fifo: the FUGU hardware's statically partitioned input
 *    ring (the oracle — bit-exact with the seed behavior);
 *  - damq: dynamically-shared queue space with per-(src,GID) caps and
 *    associative head select (charged via costs.damq_select);
 *  - zerocopy_remap: page-flip buffered delivery (cheaper insert, VM
 *    remap instead of vmalloc, cheaper drain, no record overhead).
 *
 * Emits one latency/buffered-fraction curve per backend plus timed
 * events/sec rows for the perf gate (baseline
 * bench/baselines/BENCH_backend.json, checked under
 * ci/perf_gate.py --strict).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/nibuf.hh"
#include "harness/benchmain.hh"

using namespace fugu;
using namespace fugu::harness;

int
main(int argc, char **argv)
{
    std::string backendsCsv = "static_fifo,damq,zerocopy_remap";
    std::vector<std::uint64_t> intervals{250, 350, 500, 1000};
    unsigned synthN = 100;
    unsigned groupsTotal = 2000;
    bool perf = false;
    unsigned perfReps = 2;
    std::uint64_t perfInterval = 300;

    BenchSpec spec;
    spec.name = "ablation_backend";
    spec.defaults = [](BenchContext &ctx) {
        ctx.machine.nodes = 8;
        ctx.gang.quantum = 50000;
        ctx.gang.skew = 0.3;
        ctx.workloads.synth.handlerStall = 200;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("abl");
        b.item("backends", backendsCsv,
               "ni.backend designs to sweep (csv of static_fifo, "
               "damq, zerocopy_remap)");
        b.list("intervals", intervals,
               "mean send-interval (T_betw) sweep", "cycles");
        b.item("synth_n", synthN,
               "messages per synth request group");
        b.item("groups_total", groupsTotal,
               "total requests per node (groups = groups_total/N)");
        b.item("perf", perf,
               "also emit host events/sec rows for the perf gate "
               "(wall-clock: off by default so the report stays "
               "deterministic and replayable)");
        b.item("perf_reps", perfReps,
               "wall-clock reps per backend for the perf-gate rows "
               "(fastest wins)");
        b.item("perf_interval", perfInterval,
               "T_betw of the timed perf-gate runs", "cycles");
    };
    spec.body = [&](BenchContext &ctx) {
        struct Point
        {
            core::NiBackendKind backend;
            Cycle betw;
        };
        std::vector<core::NiBackendKind> backends;
        for (const std::string &name : sim::splitConfigList(backendsCsv))
            backends.push_back(core::backendFromName(name));
        if (backends.empty())
            fugu_fatal("abl.backends is empty");
        std::vector<Point> points;
        for (core::NiBackendKind k : backends)
            for (Cycle betw : intervals)
                points.push_back({k, betw});

        auto factoryFor = [&](Cycle betw) {
            apps::SynthAppConfig scfg = ctx.workloads.synth;
            scfg.n = synthN;
            scfg.groups = std::max(1u, groupsTotal / synthN);
            scfg.tBetween = betw;
            return AppFactory([scfg](unsigned nodes,
                                     std::uint64_t seed) {
                apps::SynthAppConfig c = scfg;
                c.seed = seed;
                return apps::makeSynthApp(nodes, c);
            });
        };

        std::vector<RunStats> results(points.size());
        parallelFor(points.size(), [&](std::size_t i) {
            glaze::MachineConfig cfg = ctx.machine;
            cfg.ni.backend = points[i].backend;
            cfg.trace.runTag =
                std::string("backend=") +
                core::toString(points[i].backend);
            results[i] = runTrials(
                cfg, factoryFor(points[i].betw), /*with_null=*/true,
                /*gang=*/true, ctx.gang, ctx.trials, ctx.maxCycles,
                i == 0 ? ctx.tracePath : std::string());
        });

        std::printf(
            "Ablation: NI-buffering backends vs offered load "
            "(synth-%u, %u nodes, %g%% skew)\n",
            synthN, ctx.machine.nodes, ctx.gang.skew * 100);
        TablePrinter t({"backend", "T_betw", "%buffered", "fast p50",
                        "buf p50", "buf p95", "inserts"},
                       {14, 8, 10, 9, 9, 9, 9});
        t.printHeader();
        ctx.report.meta("trials", ctx.trials);
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("synth_n", synthN);

        bool allCompleted = true;
        double totalViolations = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RunStats &r = results[i];
            const char *name = core::toString(points[i].backend);
            allCompleted = allCompleted && r.completed;
            totalViolations += r.violations;
            t.printRow(
                {name,
                 TablePrinter::num(
                     static_cast<double>(points[i].betw)),
                 r.completed ? TablePrinter::num(r.bufferedPct, 2)
                             : "STUCK",
                 TablePrinter::num(r.fastLatency.percentile(50)),
                 TablePrinter::num(r.bufLatency.percentile(50)),
                 TablePrinter::num(r.bufLatency.percentile(95)),
                 TablePrinter::num(r.bufferInserts)});
            ctx.report.row(
                {{"section", std::string("ablation_") + name},
                 {"backend", name},
                 {"app", "synth"},
                 {"nodes", ctx.machine.nodes},
                 {"t_between", std::uint64_t{points[i].betw}},
                 {"completed", r.completed},
                 {"runtime", std::uint64_t{r.runtime}},
                 {"buffered_pct", r.bufferedPct},
                 {"buffer_inserts", r.bufferInserts},
                 {"fast_p50", r.fastLatency.percentile(50)},
                 {"fast_p95", r.fastLatency.percentile(95)},
                 {"buf_p50", r.bufLatency.percentile(50)},
                 {"buf_p95", r.bufLatency.percentile(95)},
                 {"violations", r.violations}});
        }

        // The acceptance comparison: at equal load with the whole
        // workload forced through the buffered path, page-flip
        // delivery must finish in less simulated time than copying.
        glaze::MachineConfig fifoCfg = ctx.machine;
        fifoCfg.alwaysBuffered = true;
        fifoCfg.ni.backend = core::NiBackendKind::StaticFifo;
        glaze::MachineConfig zcCfg = fifoCfg;
        zcCfg.ni.backend = core::NiBackendKind::ZerocopyRemap;
        const RunStats bf =
            runTrials(fifoCfg, factoryFor(perfInterval), true, true,
                      ctx.gang, ctx.trials, ctx.maxCycles);
        const RunStats bz =
            runTrials(zcCfg, factoryFor(perfInterval), true, true,
                      ctx.gang, ctx.trials, ctx.maxCycles);
        const double speedup =
            bz.runtime > 0 ? static_cast<double>(bf.runtime) /
                                 static_cast<double>(bz.runtime)
                           : 0;
        std::printf(
            "\nalways-buffered @ T_betw=%llu: static_fifo %llu cyc, "
            "zerocopy_remap %llu cyc (%.2fx)\n",
            static_cast<unsigned long long>(perfInterval),
            static_cast<unsigned long long>(bf.runtime),
            static_cast<unsigned long long>(bz.runtime), speedup);
        ctx.report.row(
            {{"section", "ablation_zerocopy_gain"},
             {"app", "synth_always_buffered"},
             {"nodes", ctx.machine.nodes},
             {"static_fifo_runtime", std::uint64_t{bf.runtime}},
             {"zerocopy_runtime", std::uint64_t{bz.runtime}},
             {"speedup", speedup}});
        allCompleted = allCompleted && bf.completed && bz.completed;
        totalViolations += bf.violations + bz.violations;
        if (bz.runtime >= bf.runtime) {
            std::printf("FAIL: zerocopy_remap is not cheaper than "
                        "static_fifo on the buffered path\n");
            return 1;
        }

        // Wall-clock throughput per backend for the perf gate.
        for (core::NiBackendKind k : backends) {
            if (!perf)
                break;
            glaze::MachineConfig cfg = ctx.machine;
            cfg.ni.backend = k;
            double secs = 0;
            std::uint64_t events = 0;
            for (unsigned rep = 0; rep < std::max(perfReps, 1u);
                 ++rep) {
                const auto t0 = std::chrono::steady_clock::now();
                const RunStats r =
                    runJob(cfg, factoryFor(perfInterval),
                           /*with_null=*/true, /*gang=*/true,
                           ctx.gang, ctx.maxCycles);
                const double s =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (!r.completed) {
                    std::fprintf(
                        stderr,
                        "FAIL: perf run (%s) did not complete\n",
                        core::toString(k));
                    return 1;
                }
                if (rep == 0 || s < secs) {
                    secs = s;
                    events = r.events;
                }
            }
            const double eps =
                secs > 0 ? static_cast<double>(events) / secs : 0;
            std::printf("perf %-14s  %.3fs  %llu events  "
                        "%.0f events/sec\n",
                        core::toString(k), secs,
                        static_cast<unsigned long long>(events), eps);
            ctx.report.row({{"section", "ablation_backend_perf"},
                            {"app", core::toString(k)},
                            {"nodes", ctx.machine.nodes},
                            {"secs", secs},
                            {"events", events},
                            {"events_per_sec", eps}});
        }

        if (totalViolations > 0) {
            std::printf("\nFAIL: %.0f invariant violation(s)\n",
                        totalViolations);
            return 1;
        }
        if (!allCompleted) {
            std::printf("\nFAIL: at least one run did not complete\n");
            return 1;
        }
        return 0;
    };
    return benchMain(spec, argc, argv);
}
