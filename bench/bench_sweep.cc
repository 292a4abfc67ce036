/**
 * @file
 * Table 6, Figures 7-10, the Section 5.1 pages claim, the timeout,
 * two-case and NI-backend ablations, the fault-storm stress sweep, the
 * open-loop serving sweep, the adversarial-neighbor isolation grid and
 * the machine-scale points as one driver: each is a scenario file with
 * a [sweep] section (harness/sweep.hh), e.g.
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
 * A non-empty sweep.adversaries picks the tenant run kind instead:
 * each cell runs through runAgainst once per adversary, as the
 * innermost loop, and its row is the victim's job plus the
 * `adversary`, the victim's own per-path extracts, p99 and buffered
 * share from the trace (victim_*), the fast and buffered p99
 * inflation over the `null` row of the same workload and point (0
 * without one), the checker's service-gap and frame-share
 * watermarks, DAMQ head-of-line bypasses and the covert pair's
 * decode accuracy and capacity bound,
 * (1 - H2(err)) / apps.covert.window_cycles in bits per Mcycle. Such
 * a row's `completed` is the run's: the covert prober ends it, so a
 * covert row's victim may still be mid-flight, with runtime 0.
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
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/** One cell's outcome; the run kind picks which parts it fills. */
struct Cell
{
    ServeStats serve;       ///< `run`, and `requests` if serving
    AdversaryStats tenants; ///< the tenant run kind's pairing
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
    SweepConfig sweep;
    BenchSpec spec;
    spec.name = "sweep";
    spec.params = [&](sim::Binder &b) { sweep.bind(b); };
    spec.body = [&](BenchContext &ctx) {
        std::vector<SweepPoint> points;
        std::string err;
        if (!expandSweep(sweep, spec, ctx, &points, &err)) {
            std::fprintf(stderr, "sweep: %s\n", err.c_str());
            return 2;
        }
        const auto apps = sim::splitConfigList(sweep.workloads);
        const auto advs = sim::splitConfigList(sweep.adversaries);
        const bool tenant = !advs.empty();

        // Workload-major over the grid, adversaries innermost. Every
        // run builds private machines, so the whole matrix runs on
        // parallelFor and rows print afterwards in order, identical
        // to a serial run.
        const std::size_t np = points.size();
        const std::size_t na = tenant ? advs.size() : 1;
        std::vector<Cell> results(apps.size() * np * na);
        parallelFor(results.size(), [&](std::size_t i) {
            const BenchContext &p = *points[i / na % np].cfg;
            const std::string &app = apps[i / na / np];
            const std::string tp = i == 0 ? ctx.tracePath : "";
            Cell &c = results[i];
            if (tenant) {
                c.tenants = runAgainst(p.machine, p.workloads, app,
                                       advs[i % na], p.gang, p.maxCycles,
                                       tp);
                // The cell completes with jobs[0]: the covert prober
                // ends the run, maybe before the victim finishes.
                const TenantRunStats &t = c.tenants.run;
                c.serve.run = t.tenants[c.tenants.victim].run;
                c.serve.run.completed = t.completed;
            } else if (Workloads::serves(app)) {
                c.serve = runServing(p.machine, p.workloads, app,
                                     sweep.withNull, sweep.withNull,
                                     p.gang, p.trials, p.maxCycles, tp);
            } else {
                c.serve.run = runTrials(
                    p.machine, p.workloads.factory(app), sweep.withNull,
                    /*gang=*/sweep.withNull, p.gang, p.trials,
                    p.maxCycles, tp);
            }
        });
        const bool serving =
            !tenant &&
            std::any_of(apps.begin(), apps.end(), Workloads::serves);

        std::printf("%s: %zu workload(s) x %zu point(s)",
                    sweep.name.c_str(), apps.size(), np);
        if (tenant)
            std::printf(" x %zu adversarie(s)", na);
        std::printf(", %s, %u trial(s)\n%-8s",
                    sweep.withNull ? "gang-scheduled against null"
                                   : "standalone",
                    ctx.trials, "app");
        for (const auto &axis : points.front().axes)
            std::printf(" %s", axis.first.c_str());
        if (tenant)
            std::printf(" %-9s", "adversary");
        std::printf(" %9s %10s %7s %5s %8s %8s %7s %6s %5s %7s %6s "
                    "%4s %6s %6s %7s %7s",
                    "%buffered", "runtime", "rel", "pages", "timeouts",
                    "msgs", "T_betw", "T_hand", "path", "inserts",
                    "faults", "viol", "fast50", "fast95", "buf50",
                    "buf95");
        if (serving)
            std::printf(" %7s %5s %7s %8s %8s", "goodput", "SLO%",
                        "bufreq%", "reqf99", "reqb99");
        if (tenant)
            std::printf(" %6s %7s %5s %5s %5s %8s", "vfst99", "vbuf99",
                        "inflF", "inflB", "vbuf%", "bits/Mcy");
        std::printf("\n");
        ctx.report.rename(sweep.name);
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("trials", ctx.trials);
        ctx.report.meta("with_null", sweep.withNull);

        // The tenant rows' inflation baseline: the null adversary.
        const auto nullAt = static_cast<std::size_t>(
            std::find(advs.begin(), advs.end(), "null") - advs.begin());
        double base = 0, violations = 0;
        bool completed = true;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const std::string &app = apps[i / na / np];
            const SweepPoint &p = points[i / na % np];
            const RunStats &r = results[i].serve.run;
            violations += r.violations;
            completed = completed && r.completed;
            const auto runtime = static_cast<double>(r.runtime);
            if (p.groupStart && i % na == 0)
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
            if (tenant) {
                std::printf(" %-9s", advs[i % na].c_str());
                row.emplace_back("adversary", advs[i % na]);
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
            if (serving && Workloads::serves(app)) {
                const serve::ServeResult &sr = results[i].serve.requests;
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
            if (tenant) {
                const AdversaryStats &a = results[i].tenants;
                const TenantStats &vic = a.run.tenants[a.victim];
                const Cycle fastP99 = vic.trace.fastLatency.p99;
                const Cycle bufP99 = vic.trace.bufferedLatency.p99;
                // Inflation over the null row of this workload and
                // point, if it completed.
                const AdversaryStats *b =
                    nullAt < na ? &results[i - i % na + nullAt].tenants
                                : nullptr;
                const trace::Summary::GidStats *baseline =
                    b && b->run.completed
                        ? &b->run.tenants[b->victim].trace
                        : nullptr;
                auto inflation = [](Cycle now, Cycle was) {
                    return was ? static_cast<double>(now) /
                                     static_cast<double>(was)
                               : 0.0;
                };
                const double inflF =
                    baseline ? inflation(fastP99,
                                         baseline->fastLatency.p99)
                             : 0.0;
                const double inflB =
                    baseline ? inflation(bufP99,
                                         baseline->bufferedLatency.p99)
                             : 0.0;
                // The covert pair's capacity bound: the decode as a
                // binary symmetric channel at its observed error rate,
                // one symbol per window.
                double bits = 0;
                if (advs[i % na] == "covert" && a.covert.windows) {
                    const double e = 1.0 - a.covert.accuracy();
                    bits = (e < 0.5 ? 1.0 - binaryEntropy(e) : 0.0) *
                           1e6 /
                           static_cast<double>(
                               p.cfg->workloads.covert.windowCycles);
                }
                std::printf(" %6llu %7llu %5.2f %5.2f %5.1f %8.2f",
                            static_cast<unsigned long long>(fastP99),
                            static_cast<unsigned long long>(bufP99),
                            inflF, inflB, vic.trace.bufferedPct(), bits);
                row.insert(
                    row.end(),
                    {{"victim_fast_extracts", vic.trace.fast},
                     {"victim_buf_extracts", vic.trace.buffered},
                     {"victim_fast_p99", std::uint64_t{fastP99}},
                     {"victim_buf_p99", std::uint64_t{bufP99}},
                     {"fast_inflation", inflF},
                     {"buf_inflation", inflB},
                     {"victim_buffered_pct", vic.trace.bufferedPct()},
                     {"service_gap_max",
                      std::uint64_t{vic.iso.serviceGapMax}},
                     {"frame_share_max", vic.iso.frameShareMax},
                     {"hol_bypasses", a.run.holBypasses},
                     {"covert_accuracy", a.covert.accuracy()},
                     {"covert_bits_per_mcycle", bits}});
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
