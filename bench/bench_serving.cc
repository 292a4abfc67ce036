/**
 * @file
 * Open-loop serving sweep: goodput-vs-offered-load and request-latency
 * curves for the serving tier (sharded KV on CRL + RPC echo over UDM)
 * under seeded arrival processes.
 *
 * Every (app, mix, offered) cell runs the machine with the serving
 * application on every node, optionally gang-scheduled against the
 * null app so quantum switches push deliveries onto the buffered
 * path, and reports per-request p50/p95/p99 latency split by the
 * delivery case that served the request. All serving rows are pure
 * simulation output — bit-identical for a fixed seed whatever
 * FUGU_THREADS — so CI replays the JSON for identity. Host-timing
 * rows (events/sec, for the perf gate) are only emitted under
 * --set serving.perf=true, keeping the default output deterministic.
 *
 * Fault storms run against this tier unchanged: set fault.* on the
 * config tree (e.g. --set fault.class=mixed); the invariant checker
 * stays on and the process exits nonzero on any violation.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/benchmain.hh"
#include "serve/serve.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

struct Point
{
    std::string app;
    std::string mix;
    double offered;
};

struct CellOut
{
    RunStats rs;
    serve::ServeResult sr;
};

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = std::getenv("FUGU_QUICK") != nullptr;

    serve::ServeConfig scfg;
    sim::ArrivalConfig acfg;
    if (quick) {
        scfg.requests = 300;
        scfg.warmup = 50;
    }

    std::string appsCsv = "kv,rpc";
    std::string mixesCsv = "poisson,bursty";
    std::vector<double> offered =
        quick ? std::vector<double>{0.5, 1, 2, 4}
              : std::vector<double>{0.5, 1, 2, 4, 8};
    bool multiprog = true;
    bool perf = false;
    unsigned perfReps = 3;
    double perfOffered = 2.0;

    BenchSpec spec;
    spec.name = "serving";
    spec.defaults = [](BenchContext &ctx) {
        ctx.machine.nodes = 8;
        ctx.trials = 1;
    };
    spec.params = [&](sim::Binder &b) {
        {
            auto s = b.push("serve");
            serve::bindConfig(b, scfg);
        }
        {
            auto s = b.push("arrival");
            sim::bindConfig(b, acfg);
        }
        auto s = b.push("serving");
        b.item("apps", appsCsv,
               "serving flavours to sweep (csv of kv, rpc)");
        b.item("mixes", mixesCsv,
               "arrival mixes to sweep (csv of poisson, bursty, "
               "diurnal)");
        b.list("offered", offered, "offered loads to sweep (csv)",
               "arrivals/kcycle/node");
        b.item("multiprog", multiprog,
               "gang-schedule against the null app so quantum "
               "switches exercise the buffered path");
        b.item("perf", perf,
               "also emit host events/sec rows for the perf gate "
               "(host timing; breaks JSON replay identity)");
        b.item("perf_reps", perfReps,
               "perf: runs per app; the fastest is reported");
        b.item("perf_offered", perfOffered,
               "perf: fixed poisson offered load",
               "arrivals/kcycle/node");
    };
    spec.body = [&](BenchContext &ctx) {
        const auto apps = sim::splitConfigList(appsCsv);
        const auto mixes = sim::splitConfigList(mixesCsv);
        if (apps.empty() || mixes.empty() || offered.empty())
            fugu_fatal("serving.apps, serving.mixes and "
                       "serving.offered must be non-empty");

        std::vector<Point> points;
        for (const auto &app : apps)
            for (const auto &mix : mixes)
                for (double off : offered)
                    points.push_back({app, mix, off});

        std::vector<CellOut> results(points.size());
        parallelFor(points.size(), [&](std::size_t i) {
            serve::ServeConfig sc = scfg;
            sc.app = points[i].app;
            sim::ArrivalConfig ac = acfg;
            ac.mix = points[i].mix;
            ac.ratePerKcycle = points[i].offered;

            CellOut out;
            out.rs.completed = true;
            for (unsigned t = 0; t < ctx.trials; ++t) {
                glaze::MachineConfig cfg = ctx.machine;
                cfg.seed = ctx.machine.seed + 1000003ull * t;
                auto slots =
                    std::make_shared<std::vector<serve::ServeResult>>(
                        cfg.nodes);
                AppFactory fac = [sc, ac, slots](unsigned n,
                                                 std::uint64_t seed) {
                    serve::ServeConfig s2 = sc;
                    s2.seed = seed;
                    sim::ArrivalConfig a2 = ac;
                    a2.seed = seed;
                    return serve::makeServingApp(n, s2, a2, slots);
                };
                const std::string tp =
                    i == 0 && t == 0 ? ctx.tracePath : std::string();
                const RunStats r =
                    runJob(cfg, fac, multiprog, multiprog, ctx.gang,
                           ctx.maxCycles, tp);
                out.rs.violations += r.violations;
                out.rs.faultEvents += r.faultEvents;
                if (!r.completed) {
                    out.rs.completed = false;
                    break;
                }
                out.rs.runtime += r.runtime;
                out.rs.sent += r.sent;
                out.rs.bufferedPct += r.bufferedPct;
                out.sr.merge(serve::mergeSlots(*slots));
            }
            if (out.rs.completed && ctx.trials > 1) {
                out.rs.runtime /= ctx.trials;
                out.rs.sent /= ctx.trials;
                out.rs.bufferedPct /= ctx.trials;
            }
            results[i] = out;
        });

        std::printf("Open-loop serving sweep: %zu app(s) x %zu "
                    "mix(es) x %zu offered point(s), %u node(s), "
                    "%u trial(s)%s\n",
                    apps.size(), mixes.size(), offered.size(),
                    ctx.machine.nodes, ctx.trials,
                    multiprog ? ", multiprogrammed vs null" : "");
        TablePrinter t({"App", "Mix", "offered", "goodput", "SLO%",
                        "buf req%", "fast p99", "buf p99",
                        "violations"},
                       {5, 8, 8, 8, 7, 9, 9, 9, 10});
        t.printHeader();
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("trials", ctx.trials);
        ctx.report.meta("requests_per_node", scfg.requests);
        ctx.report.meta("warmup_per_node", scfg.warmup);
        ctx.report.meta("slo_cycles", scfg.sloCycles);
        ctx.report.meta("offered_units", "arrivals/kcycle/node");

        double totalViolations = 0;
        bool allCompleted = true;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const CellOut &c = results[i];
            const serve::ServeResult &sr = c.sr;
            totalViolations += c.rs.violations;
            allCompleted = allCompleted && c.rs.completed;
            // Goodput: completed requests per kcycle per node over
            // the measured span (the latency-vs-load x axis is the
            // offered rate; this is the y axis that saturates).
            const double goodput =
                sr.span() ? static_cast<double>(sr.completed) *
                                1000.0 /
                                static_cast<double>(sr.span()) /
                                ctx.machine.nodes
                          : 0.0;
            const std::uint64_t bufReqs = sr.latBuffered.count;
            t.printRow(
                {points[i].app, points[i].mix,
                 TablePrinter::num(points[i].offered, 2),
                 c.rs.completed ? TablePrinter::num(goodput, 3)
                                : "STUCK",
                 TablePrinter::num(pct(sr.sloMet, sr.completed), 1),
                 TablePrinter::num(pct(bufReqs, sr.completed), 1),
                 TablePrinter::num(sr.latFast.percentile(99)),
                 TablePrinter::num(sr.latBuffered.percentile(99)),
                 TablePrinter::num(c.rs.violations)});
            ctx.report.row(
                {{"section", "serving"},
                 {"app", points[i].app},
                 {"mix", points[i].mix},
                 {"offered_per_kcycle_node", points[i].offered},
                 {"completed", c.rs.completed},
                 {"generated", sr.offeredArrivals},
                 {"completed_requests", sr.completed},
                 {"goodput_per_kcycle_node", goodput},
                 {"span_cycles", std::uint64_t{sr.span()}},
                 {"slo_met_pct", pct(sr.sloMet, sr.completed)},
                 {"served_buffered_pct",
                  pct(sr.servedBuffered, sr.completed)},
                 {"buffered_req_pct", pct(bufReqs, sr.completed)},
                 {"local_hits", sr.localHits},
                 {"puts", sr.puts},
                 {"fast_n", sr.latFast.count},
                 {"fast_p50", sr.latFast.percentile(50)},
                 {"fast_p95", sr.latFast.percentile(95)},
                 {"fast_p99", sr.latFast.percentile(99)},
                 {"buf_n", sr.latBuffered.count},
                 {"buf_p50", sr.latBuffered.percentile(50)},
                 {"buf_p95", sr.latBuffered.percentile(95)},
                 {"buf_p99", sr.latBuffered.percentile(99)},
                 {"violations", c.rs.violations}});
        }

        if (perf) {
            // Host-throughput rows for the CI perf gate: one per app
            // at a fixed mid-sweep load, best of perf_reps runs.
            for (const auto &app : apps) {
                serve::ServeConfig sc = scfg;
                sc.app = app;
                sim::ArrivalConfig ac = acfg;
                ac.mix = "poisson";
                ac.ratePerKcycle = perfOffered;
                glaze::MachineConfig cfg = ctx.machine;
                AppFactory fac = [sc, ac, &cfg](unsigned n,
                                                std::uint64_t seed) {
                    serve::ServeConfig s2 = sc;
                    s2.seed = seed;
                    sim::ArrivalConfig a2 = ac;
                    a2.seed = seed;
                    return serve::makeServingApp(
                        n, s2, a2,
                        std::make_shared<
                            std::vector<serve::ServeResult>>(
                            cfg.nodes));
                };
                double secs = 0;
                std::uint64_t events = 0;
                for (unsigned rep = 0; rep < std::max(perfReps, 1u);
                     ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    const RunStats r =
                        runJob(cfg, fac, multiprog, multiprog,
                               ctx.gang, ctx.maxCycles);
                    const double s = std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() -
                                         t0)
                                         .count();
                    if (!r.completed) {
                        std::fprintf(stderr,
                                     "FAIL: perf run of %s did not "
                                     "complete\n",
                                     app.c_str());
                        return 1;
                    }
                    if (rep == 0 || s < secs) {
                        secs = s;
                        events = r.events;
                    }
                }
                const double eps =
                    secs > 0 ? static_cast<double>(events) / secs : 0;
                std::printf("perf %-4s  %.3fs  %llu events  "
                            "%.0f events/sec\n",
                            app.c_str(), secs,
                            static_cast<unsigned long long>(events),
                            eps);
                ctx.report.row(
                    {{"section", "serving_" + app},
                     {"app", app},
                     {"nodes", ctx.machine.nodes},
                     {"secs", secs},
                     {"events", events},
                     {"events_per_sec", eps}});
            }
        }

        if (totalViolations > 0) {
            std::printf("\nFAIL: %.0f invariant violation(s)\n",
                        totalViolations);
            return 1;
        }
        if (!allCompleted) {
            std::printf("\nFAIL: at least one cell did not complete "
                        "within the cycle budget\n");
            return 1;
        }
        std::printf("\nPASS: zero invariant violations across the "
                    "sweep\n");
        return 0;
    };
    return benchMain(spec, argc, argv);
}
