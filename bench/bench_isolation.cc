/**
 * @file
 * Adversarial-neighbor isolation grid: gang-schedule a victim tenant
 * against each adversary (NI-queue hog, overflow abuser, atomicity
 * squatter, covert tx/rx pair) on every NI buffering backend and
 * offered-load scale, with the invariant checker's starvation and
 * frame-share judges armed by the scenario, and report the victim's
 * fast- and buffered-path p99 inflation over the adversary-free
 * baseline plus an upper bound on the covert pair's bit rate.
 *
 * A healthy two-case-delivery implementation keeps every cell at
 * zero violations: adversaries may inflate the victim's tail latency
 * and force traffic onto the buffered path, but FIFO order, content
 * transparency, protection, conservation — and, with the limits set,
 * bounded starvation and frame-pool share — must all hold. The
 * process exits 1 on any violation or wedged cell, so CI runs it as a
 * single pass/fail gate, and 2 before any run on an empty iso.* list
 * or an unknown victim or adversary. --trace records cell 0.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/nibuf.hh"
#include "harness/benchmain.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

/** Scale the adversaries' pressure by the cell's load factor. */
Workloads
loadedWorkloads(const Workloads &base, double load)
{
    Workloads wl = base;
    auto denser = [load](Cycle &gap) {
        gap = std::max<Cycle>(
            1, static_cast<Cycle>(static_cast<double>(gap) / load));
    };
    denser(wl.hog.gap);
    denser(wl.abuser.gap);
    wl.covert.burst = std::max(
        1u, static_cast<unsigned>(wl.covert.burst * load));
    wl.squatter.holdCycles = std::max<Cycle>(
        1, static_cast<Cycle>(wl.squatter.holdCycles * load));
    return wl;
}

double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string victimsCsv = "barrier";
    std::string adversariesCsv = "none,hog,abuser,squatter,covert";
    std::string backendsCsv = "static_fifo,damq,zerocopy_remap";
    std::vector<double> loads{1.0};

    BenchSpec spec;
    spec.name = "isolation";
    spec.defaults = [](BenchContext &ctx) {
        ctx.machine.nodes = 4;
        ctx.gang.quantum = 20000;
        ctx.gang.skew = 0.3;
        ctx.trials = 1;
        // A victim long enough to overlap every adversary's attack.
        ctx.workloads.barrier.barriers = 400;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("iso");
        b.item("victims", victimsCsv,
               "comma-separated victim workloads");
        b.item("adversaries", adversariesCsv,
               "comma-separated adversaries (none, hog, abuser, "
               "squatter, covert)");
        b.item("backends", backendsCsv,
               "comma-separated ni.backend values for the grid");
        b.list("loads", loads,
               "comma-separated adversary pressure multipliers");
    };
    spec.body = [&](BenchContext &ctx) {
        std::string err;
        if (!checkList(ctx, "iso.victims", &err, "workload",
                       [&](const std::string &name) {
                           return bool(ctx.workloads.find(name));
                       }) ||
            !checkList(ctx, "iso.adversaries", &err, "adversary",
                       [](const std::string &name) {
                           return name == "none" || name == "hog" ||
                                  name == "abuser" ||
                                  name == "squatter" || name == "covert";
                       }) ||
            !checkList(ctx, "iso.backends", &err) ||
            !checkList(ctx, "iso.loads", &err)) {
            std::fprintf(stderr, "isolation: %s\n", err.c_str());
            return 2;
        }
        const auto victims = sim::splitConfigList(victimsCsv);
        const auto advs = sim::splitConfigList(adversariesCsv);
        const auto backends = sim::splitConfigList(backendsCsv);
        for (const std::string &backend : backends)
            core::backendFromName(backend); // unknown names exit here

        struct Cell
        {
            std::string victim;
            std::string adv;
            std::string backend;
            double load;
        };
        std::vector<Cell> cells;
        for (const auto &victim : victims)
            for (const auto &backend : backends)
                for (double load : loads)
                    for (const auto &adv : advs)
                        cells.push_back({victim, adv, backend, load});

        std::vector<TenantRunStats> results(cells.size());
        std::vector<apps::CovertResult> covert(cells.size());
        // Index of the victim tenant within each cell's job list.
        // runTenants runs until jobs[0] completes, and the covert
        // prober only writes its decode when it finishes — so covert
        // cells lead with covert_rx and carry the victim second.
        std::vector<std::size_t> vicIdx(cells.size(), 0);
        parallelFor(cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            glaze::MachineConfig mcfg = ctx.machine;
            mcfg.ni.backend = core::backendFromName(c.backend);
            const Workloads wl = loadedWorkloads(ctx.workloads, c.load);
            std::vector<std::pair<std::string, glaze::AppBody>> jobs;
            if (c.adv == "covert") {
                apps::CovertAppConfig cc = wl.covert;
                cc.seed = mcfg.seed;
                jobs.emplace_back(
                    "covert_rx",
                    apps::makeCovertRxApp(mcfg.nodes, cc,
                                          &covert[i]));
                jobs.emplace_back(
                    "victim",
                    wl.factory(c.victim)(mcfg.nodes, mcfg.seed));
                jobs.emplace_back("covert_tx",
                                  wl.factory("covert_tx")(mcfg.nodes,
                                                          mcfg.seed));
                vicIdx[i] = 1;
            } else {
                jobs.emplace_back(
                    "victim",
                    wl.factory(c.victim)(mcfg.nodes, mcfg.seed));
                if (c.adv == "none")
                    // Baseline keeps the same two-job gang shape, so
                    // the victim's machine share is comparable.
                    jobs.emplace_back("null", apps::makeNullApp());
                else
                    jobs.emplace_back(
                        c.adv,
                        wl.factory(c.adv)(mcfg.nodes, mcfg.seed));
            }
            results[i] = runTenants(mcfg, std::move(jobs), ctx.gang,
                                    ctx.maxCycles,
                                    i == 0 ? ctx.tracePath
                                           : std::string());
        });

        // Adversary-free baselines, keyed per (victim, backend, load).
        std::map<std::string, const trace::Summary::GidStats *> base;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].adv == "none" && results[i].completed)
                base[cells[i].victim + "/" + cells[i].backend + "/" +
                     std::to_string(cells[i].load)] =
                    &results[i].tenants[0].trace;

        const sim::ConfigAssignment *storm = ctx.tree.find("fault.class");
        const std::string faultClass = storm ? storm->value : "none";
        std::printf("Isolation grid: %zu victim(s) x %zu "
                    "adversarie(s) x %zu backend(s) x %zu load(s), "
                    "storm=%s\n",
                    victims.size(), advs.size(), backends.size(),
                    loads.size(), faultClass.c_str());
        TablePrinter t({"Victim", "Adversary", "Backend", "Load",
                        "fast-p99", "buf-p99", "inflF", "inflB",
                        "%buf", "bits/Mcy", "viol"},
                       {8, 9, 14, 5, 9, 9, 6, 6, 6, 8, 5});
        t.printHeader();
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("fault_class", faultClass);

        double totalViolations = 0;
        bool allCompleted = true;
        const TenantStats noStats;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const TenantRunStats &r = results[i];
            totalViolations += r.violations;
            allCompleted = allCompleted && r.completed;
            const TenantStats &vic = r.tenants.size() > vicIdx[i]
                                         ? r.tenants[vicIdx[i]]
                                         : noStats;
            const double fastP99 =
                static_cast<double>(vic.trace.fastLatency.p99);
            const double bufP99 =
                static_cast<double>(vic.trace.bufferedLatency.p99);
            auto bit = base.find(c.victim + "/" + c.backend + "/" +
                                 std::to_string(c.load));
            const trace::Summary::GidStats *b =
                bit == base.end() ? nullptr : bit->second;
            auto inflation = [](double now, Cycle was) {
                return was ? now / static_cast<double>(was) : 0.0;
            };
            const double inflF =
                b ? inflation(fastP99, b->fastLatency.p99) : 0.0;
            const double inflB =
                b ? inflation(bufP99, b->bufferedLatency.p99) : 0.0;

            // Covert-channel bit-rate upper bound: treat the decode
            // as a binary symmetric channel at the observed error
            // rate; capacity per window over the symbol period.
            double bitsPerMcycle = 0;
            if (c.adv == "covert" && covert[i].windows) {
                const double err = 1.0 - covert[i].accuracy();
                const double cap =
                    err < 0.5 ? 1.0 - binaryEntropy(err) : 0.0;
                bitsPerMcycle =
                    cap * 1e6 /
                    static_cast<double>(ctx.workloads.covert.windowCycles);
            }

            t.printRow(
                {c.victim, c.adv, c.backend,
                 TablePrinter::num(c.load, 2),
                 r.completed ? TablePrinter::num(fastP99) : "STUCK",
                 TablePrinter::num(bufP99),
                 TablePrinter::num(inflF, 2),
                 TablePrinter::num(inflB, 2),
                 TablePrinter::num(vic.trace.bufferedPct(), 1),
                 c.adv == "covert" ? TablePrinter::num(bitsPerMcycle, 2)
                                   : "-",
                 TablePrinter::num(r.violations)});
            ctx.report.row(
                {{"victim", c.victim},
                 {"adversary", c.adv},
                 {"backend", c.backend},
                 {"load", c.load},
                 {"completed", r.completed},
                 {"fast_extracts", vic.trace.fast},
                 {"buf_extracts", vic.trace.buffered},
                 {"fast_p99", std::uint64_t{vic.trace.fastLatency.p99}},
                 {"buf_p99",
                  std::uint64_t{vic.trace.bufferedLatency.p99}},
                 {"fast_inflation", inflF},
                 {"buf_inflation", inflB},
                 {"buffered_pct", vic.trace.bufferedPct()},
                 {"service_gap_max",
                  std::uint64_t{vic.iso.serviceGapMax}},
                 {"frame_share_max", vic.iso.frameShareMax},
                 {"hol_bypasses", r.holBypasses},
                 {"covert_accuracy", covert[i].accuracy()},
                 {"covert_bits_per_mcycle", bitsPerMcycle},
                 {"violations", r.violations}});
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
                    "isolation grid\n");
        return 0;
    };
    return benchMain(spec, argc, argv);
}
