/**
 * @file
 * Ablation: virtual buffering (frames allocated on demand, returned
 * when the buffer drains) versus a system that pins its buffer pages
 * up front. Section 4.2 argues virtual buffering "improves memory
 * performance by reducing the amount of physical buffer space
 * required versus a system that pins its buffer pages in memory".
 *
 * Measures peak physical frame usage per node for each workload under
 * the skewed multiprogrammed schedule of Figure 7.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/benchmain.hh"
#include "trace/export.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

/** Peak frames on any node over @p trials runs, seeded as runTrials
 *  seeds them (the first one traced); -1 if any run is stuck. */
double
peakFrames(const glaze::MachineConfig &mcfg,
           const glaze::GangConfig &gcfg, const AppFactory &app,
           unsigned trials, Cycle max_cycles,
           const std::string &trace_path = "")
{
    double peak = 0;
    for (unsigned t = 0; t < trials; ++t) {
        glaze::MachineConfig cfg = mcfg;
        cfg.seed = mcfg.seed + 1000003ull * t;
        const bool traced = t == 0 && !trace_path.empty();
        cfg.trace.enabled |= traced;
        glaze::Machine m(cfg);
        glaze::Job *job = m.addJob("app", app(cfg.nodes, cfg.seed));
        m.addJob("null", apps::makeNullApp());
        m.startGang(gcfg);
        const bool done = m.runUntilDone(job, max_cycles);
        if (traced) {
            std::string err;
            if (!fugu::trace::writeTraceFiles(
                    trace_path, m.tracer()->buffer(), &err))
                std::fprintf(stderr, "trace write failed: %s\n",
                             err.c_str());
        }
        if (!done)
            return -1;
        for (auto &n : m.nodes)
            peak = std::max(peak, n.frames.stats.peakUsed.value());
    }
    return peak;
}

} // namespace

int
main(int argc, char **argv)
{
    // A pinned system reserves worst-case buffer space per process;
    // 16 pages/process is a modest static reservation.
    unsigned pinnedPages = 16;

    BenchSpec spec;
    spec.name = "ablation_vbuf";
    spec.defaults = [](BenchContext &ctx) {
        ctx.machine.nodes = 8;
        ctx.gang.quantum = 100000;
        ctx.gang.skew = 0.3;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("abl");
        b.item("pinned_pages", pinnedPages,
               "per-process static buffer reservation for the "
               "pinned-comparison runs",
               "pages");
    };
    spec.body = [&](BenchContext &ctx) {
        const auto &names = Workloads::names();
        std::vector<double> virt(names.size());
        std::vector<double> pinned(names.size());
        parallelFor(names.size() * 2, [&](std::size_t i) {
            const std::size_t app = i / 2;
            glaze::MachineConfig cfg = ctx.machine;
            if (i % 2 == 0) {
                virt[app] = peakFrames(
                    cfg, ctx.gang, ctx.workloads.factory(names[app]),
                    ctx.trials, ctx.maxCycles,
                    i == 0 ? ctx.tracePath : std::string());
            } else {
                cfg.pinnedBufferPages = pinnedPages;
                pinned[app] = peakFrames(
                    cfg, ctx.gang, ctx.workloads.factory(names[app]),
                    ctx.trials, ctx.maxCycles);
            }
        });

        std::printf(
            "Ablation: virtual vs pinned buffering — peak frames "
            "in use on any node (pool=%u/node)\n",
            ctx.machine.framesPerNode);
        TablePrinter t({"App", "virtual (on demand)",
                        "pinned (" + std::to_string(pinnedPages) +
                            "/proc)"},
                       {8, 20, 18});
        t.printHeader();
        ctx.report.meta("nodes", ctx.machine.nodes);
        ctx.report.meta("pinned_pages_per_proc", pinnedPages);

        for (std::size_t i = 0; i < names.size(); ++i) {
            t.printRow({names[i],
                        virt[i] < 0 ? "STUCK"
                                    : TablePrinter::num(virt[i]),
                        pinned[i] < 0 ? "STUCK"
                                      : TablePrinter::num(pinned[i])});
            ctx.report.row({{"app", names[i]},
                            {"virtual_peak_frames", virt[i]},
                            {"pinned_peak_frames", pinned[i]}});
        }
        return 0;
    };
    return benchMain(spec, argc, argv);
}
