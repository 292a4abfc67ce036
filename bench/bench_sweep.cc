/**
 * @file
 * Table 6, Figures 7-10, the Section 5.1 pages claim, the timeout,
 * two-case and NI-backend ablations, the fault-storm stress sweep and
 * the open-loop serving sweep as one driver: each is a scenario file
 * with a [sweep] section (harness/sweep.hh), e.g.
 *
 *   bench_sweep --scenario scenarios/fig7_skew.cfg --json
 *
 * Every row has the workload, the axis values, `completed`, the
 * RunStats fields the paper and the stress sweep report, the p50 and
 * p95 delivery latency of each path (fast_*, buf_*), and three
 * derived columns: rel_runtime (over the first completed point of the
 * last axis in its group: Figure 8's normalization, the two-case
 * slowdown), path_cost (buffer_insert_min + buffer_null_handler +
 * buffered_path_extra: Figure 10's x axis) and Table 6's paper_*
 * values (null elsewhere). --trace records grid point 0.
 *
 * The workload picks the run kind: the serving workloads (kv, rpc)
 * run through runServing, and their rows add the request outcome:
 * goodput (completed requests per kcycle per node over the measured
 * span), SLO attainment, the buffered-service fraction and request
 * latency split by the delivery case that served it (req_fast_*,
 * req_buf_*).
 *
 * The process prints FAIL and exits 1 if any cell records an
 * invariant violation or does not complete, so every sweep doubles as
 * a pass/fail gate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/sweep.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

/** Table 6 reference rows (the paper's measured system, not knobs). */
struct PaperRow
{
    const char *name;
    double cycles;
    double msgs;
    double tbetw;
    double thand;
};

constexpr PaperRow kPaper[] = {
    {"barnes", 45.7e6, 107849, 3390, 337},
    {"water", 47.6e6, 36303, 10500, 419},
    {"lu", 13.4e6, 7564, 14200, 478},
    {"barrier", 18.5e6, 240177, 615, 149},
    {"enum", 72.7e6, 610148, 953, 320},
};

/** A dumped config value as the JSON type it came from. */
JsonValue
typed(const std::string &v)
{
    if (v == "true" || v == "false")
        return JsonValue(v == "true");
    if (!v.empty() && v.find_first_not_of("0123456789") == v.npos)
        return JsonValue(std::uint64_t{std::strtoull(v.c_str(), nullptr,
                                                     10)});
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    return !v.empty() && *end == '\0' ? JsonValue(d) : JsonValue(v);
}

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
    SweepConfig sweep;
    BenchSpec spec;
    spec.name = "sweep";
    spec.params = [&](sim::Binder &b) { sweep.bind(b); };
    spec.body = [&](BenchContext &ctx) {
        std::vector<SweepPoint> points;
        std::string err;
        if (!expandSweep(spec, ctx, &points, &err)) {
            std::fprintf(stderr, "sweep: %s\n", err.c_str());
            return 2;
        }
        const auto apps = sim::splitConfigList(sweep.workloads);

        // Workload-major over the grid. Every run builds private
        // machines, so the whole matrix runs on parallelFor and rows
        // print afterwards in order, identical to a serial run. The
        // workload picks the run kind; only serving cells fill
        // `requests`.
        const std::size_t np = points.size();
        std::vector<ServeStats> results(apps.size() * np);
        parallelFor(results.size(), [&](std::size_t i) {
            const BenchContext &p = *points[i % np].cfg;
            const std::string &app = apps[i / np];
            const std::string tp = i == 0 ? ctx.tracePath : "";
            if (Workloads::serves(app))
                results[i] = runServing(p.machine, p.workloads, app,
                                        sweep.withNull, sweep.withNull,
                                        p.gang, p.trials, p.maxCycles,
                                        tp);
            else
                results[i].run = runTrials(
                    p.machine, p.workloads.factory(app), sweep.withNull,
                    /*gang=*/sweep.withNull, p.gang, p.trials,
                    p.maxCycles, tp);
        });
        const bool serving =
            std::any_of(apps.begin(), apps.end(), Workloads::serves);

        std::printf("%s: %zu workload(s) x %zu point(s), %s, %u "
                    "trial(s)\n%-8s",
                    sweep.name.c_str(), apps.size(), np,
                    sweep.withNull ? "gang-scheduled against null"
                                   : "standalone",
                    ctx.trials, "app");
        for (const auto &axis : points.front().axes)
            std::printf(" %s", axis.first.c_str());
        std::printf(" %9s %10s %7s %5s %8s %8s %7s %6s %5s %7s %6s "
                    "%4s %6s %6s %7s %7s",
                    "%buffered", "runtime", "rel", "pages", "timeouts",
                    "msgs", "T_betw", "T_hand", "path", "inserts",
                    "faults", "viol", "fast50", "fast95", "buf50",
                    "buf95");
        if (serving)
            std::printf(" %7s %5s %7s %8s %8s", "goodput", "SLO%",
                        "bufreq%", "reqf99", "reqb99");
        std::printf("\n");
        ctx.report.rename(sweep.name);
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("trials", ctx.trials);
        ctx.report.meta("with_null", sweep.withNull);

        double base = 0, violations = 0;
        bool completed = true;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::string &app = apps[i / np];
            const SweepPoint &p = points[i % np];
            const RunStats &r = results[i].run;
            violations += r.violations;
            completed = completed && r.completed;
            const auto runtime = static_cast<double>(r.runtime);
            if (p.groupStart)
                base = 0;
            if (r.completed && base == 0)
                base = runtime;
            const double rel = !r.completed ? std::nan("")
                               : base > 0   ? runtime / base
                                            : 1.0;
            const auto &c = p.cfg->machine.costs;
            const Cycle pathCost = c.bufferInsertMin +
                                   c.bufferNullHandler +
                                   c.bufferedPathExtra;
            PaperRow paper{nullptr, std::nan(""), std::nan(""),
                           std::nan(""), std::nan("")};
            for (const PaperRow &row : kPaper)
                if (app == row.name)
                    paper = row;

            std::printf("%-8s", app.c_str());
            std::vector<BenchReport::Cell> row{{"app", app}};
            for (const auto &[key, value] : p.axes) {
                std::printf(" %*s", static_cast<int>(key.size()),
                            value.c_str());
                row.emplace_back(key, typed(value));
            }
            const double fastP50 = r.fastLatency.percentile(50);
            const double fastP95 = r.fastLatency.percentile(95);
            const double bufP50 = r.bufLatency.percentile(50);
            const double bufP95 = r.bufLatency.percentile(95);
            std::printf(" %9s %10.0f %7.3f %5u %8.0f %8llu %7.0f %6.0f "
                        "%5llu %7.0f %6.0f %4.0f %6.0f %6.0f %7.0f "
                        "%7.0f",
                        r.completed ? TablePrinter::num(r.bufferedPct, 2)
                                          .c_str()
                                    : "STUCK",
                        runtime, rel, r.maxVbufPages,
                        r.atomicityTimeouts,
                        static_cast<unsigned long long>(r.sent),
                        r.tBetween, r.tHand,
                        static_cast<unsigned long long>(pathCost),
                        r.bufferInserts, r.faultEvents, r.violations,
                        fastP50, fastP95, bufP50, bufP95);
            row.insert(row.end(),
                       {{"completed", r.completed},
                        {"runtime", std::uint64_t{r.runtime}},
                        {"messages", r.sent},
                        {"buffered_pct", r.bufferedPct},
                        {"max_vbuf_pages", r.maxVbufPages},
                        {"atomicity_timeouts", r.atomicityTimeouts},
                        {"buffer_inserts", r.bufferInserts},
                        {"fault_events", r.faultEvents},
                        {"violations", r.violations},
                        {"fast_p50", fastP50},
                        {"fast_p95", fastP95},
                        {"buf_p50", bufP50},
                        {"buf_p95", bufP95},
                        {"t_between", r.tBetween},
                        {"t_hand", r.tHand},
                        {"rel_runtime", rel},
                        {"path_cost", std::uint64_t{pathCost}},
                        {"paper_cycles", paper.cycles},
                        {"paper_messages", paper.msgs},
                        {"paper_t_between", paper.tbetw},
                        {"paper_t_hand", paper.thand}});
            if (Workloads::serves(app)) {
                const serve::ServeResult &sr = results[i].requests;
                const double goodput =
                    sr.span() ? static_cast<double>(sr.completed) *
                                    1000.0 /
                                    static_cast<double>(sr.span()) /
                                    p.cfg->machine.nodes
                              : 0.0;
                const HistogramData &fast = sr.latFast;
                const HistogramData &buf = sr.latBuffered;
                const double slo = pct(sr.sloMet, sr.completed);
                const double bufReq = pct(buf.count, sr.completed);
                std::printf(" %7.3f %5.1f %7.1f %8.0f %8.0f", goodput,
                            slo, bufReq, fast.percentile(99),
                            buf.percentile(99));
                row.insert(
                    row.end(),
                    {{"generated", sr.offeredArrivals},
                     {"completed_requests", sr.completed},
                     {"goodput_per_kcycle_node", goodput},
                     {"span_cycles", std::uint64_t{sr.span()}},
                     {"slo_met_pct", slo},
                     {"served_buffered_pct",
                      pct(sr.servedBuffered, sr.completed)},
                     {"buffered_req_pct", bufReq},
                     {"local_hits", sr.localHits},
                     {"puts", sr.puts},
                     {"req_fast_n", fast.count},
                     {"req_fast_p50", fast.percentile(50)},
                     {"req_fast_p95", fast.percentile(95)},
                     {"req_fast_p99", fast.percentile(99)},
                     {"req_buf_n", buf.count},
                     {"req_buf_p50", buf.percentile(50)},
                     {"req_buf_p95", buf.percentile(95)},
                     {"req_buf_p99", buf.percentile(99)}});
            }
            std::printf("\n");
            ctx.report.row(std::move(row));
        }

        if (violations > 0) {
            std::printf("\nFAIL: %.0f invariant violation(s)\n",
                        violations);
            return 1;
        }
        if (!completed) {
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
