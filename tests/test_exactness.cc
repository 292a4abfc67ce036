/**
 * @file
 * Spend elision changes no simulated result.
 *
 * A spend whose end event would fire next ends without it
 * (EventQueue::tryAdvance). Each cell here runs twice: plainly, and
 * with a no-op event rescheduled every cycle from the moment the first
 * main thread starts. That event leaves no cycle idle, so it blocks
 * every later elision, yet it touches no simulator state and, since
 * events fire in (cycle, schedule) order, moves no other event. The
 * two runs must agree on every RunStats field but `events`, including
 * the latency histograms, and on every byte of the message trace.
 *
 * The cells are bench_sweep's: the fig7 quick point at skew 0.4 (one
 * per workload), serving kv at its golden point, the stress grid's
 * mixed fault class, and standalone lu at the quick size, whose
 * senders poll a full channel thousands of times.
 */

#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "harness/benchmain.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace
{

using namespace fugu;
using namespace fugu::harness;

/** A scenario narrowed by --set values, expanded as bench_sweep does. */
struct Grid
{
    SweepConfig sweep;
    BenchSpec spec;
    BenchContext ctx{"exactness"};
    std::vector<SweepPoint> points;

    Grid(const std::string &scenario, const std::vector<std::string> &sets)
    {
        spec.params = [this](sim::Binder &b) { sweep.bind(b); };
        std::string err;
        EXPECT_TRUE(ctx.tree.loadFile(
            std::string(FUGU_SCENARIO_DIR) + "/" + scenario, &err))
            << err;
        for (const std::string &s : sets)
            EXPECT_TRUE(ctx.tree.setCli(s, &err)) << err;
        EXPECT_TRUE(applyTree(spec, ctx, &err) &&
                    expandSweep(sweep, spec, ctx, &points, &err))
            << err;
    }
};

/** One run of a workload at a grid point. */
struct Cell
{
    std::string name;
    const BenchContext *cfg;
    std::string app;
    bool withNull;
};

struct Outcome
{
    RunStats run;
    std::string trace;      ///< the binary trace file's bytes
    std::uint64_t ticks = 0; ///< no-op events fired (blocked runs)
};

/** A no-op event every cycle, counting its fires. */
struct Tick
{
    EventQueue *eq;
    std::uint64_t *count;

    void
    operator()() const
    {
        ++*count;
        eq->scheduleFn(*this, eq->now() + 1, "tick");
    }
};

/** @p app, plus a Tick from the first main thread's start on. */
AppFactory
withTicks(AppFactory app, std::uint64_t *count)
{
    return [app, count](unsigned n, std::uint64_t seed) -> glaze::AppBody {
        glaze::AppBody body = app(n, seed);
        auto started = std::make_shared<bool>(false);
        return [body, started, count](glaze::Process &p) {
            if (!*started) {
                *started = true;
                EventQueue &eq = p.cpu().eq();
                eq.scheduleFn(Tick{&eq, count}, eq.now() + 1, "tick");
            }
            return body(p);
        };
    };
}

Outcome
runCell(const Cell &c, bool blocked, const std::string &trace_path)
{
    const BenchContext &p = *c.cfg;
    Outcome out;
    AppFactory app = Workloads::serves(c.app)
                         ? p.workloads.serving(c.app, nullptr)
                         : p.workloads.factory(c.app);
    if (blocked)
        app = withTicks(app, &out.ticks);
    out.run = runJob(p.machine, app, c.withNull, c.withNull, p.gang,
                     p.maxCycles, trace_path);
    std::ifstream f(trace_path, std::ios::binary);
    out.trace.assign(std::istreambuf_iterator<char>(f), {});
    return out;
}

TEST(ExactnessTest, ElidedSpendsChangeNoResult)
{
    const std::vector<std::string> quick{
        "apps.barrier.barriers=30", "apps.enum.side=4",
        "apps.barnes.bodies=24",    "apps.water.molecules=12",
        "apps.lu.n=32",             "apps.lu.block_size=8"};
    auto with = [&quick](std::vector<std::string> sets) {
        sets.insert(sets.end(), quick.begin(), quick.end());
        return sets;
    };
    std::deque<Grid> grids;
    grids.emplace_back("fig7_skew.cfg",
                       with({"gang.quantum=10000",
                             "sweep.axis1=gang.skew:0.4"}));
    grids.emplace_back(
        "serving.cfg",
        std::vector<std::string>{
            "sweep.workloads=kv", "sweep.axis1=arrival.mix:poisson",
            "sweep.axis2=arrival.rate_per_kcycle:1", "serve.requests=200",
            "serve.warmup=20"});
    grids.emplace_back("stress.cfg",
                       with({"sweep.axis1=fault.class:mixed"}));
    grids.emplace_back("table6_appchar.cfg",
                       with({"workloads.paper_scale=false",
                             "sweep.workloads=lu"}));

    std::vector<Cell> cells;
    for (const Grid &g : grids)
        for (const SweepPoint &pt : g.points)
            for (const std::string &app :
                 sim::splitConfigList(g.sweep.workloads))
                cells.push_back(Cell{g.sweep.name + "." + app,
                                     pt.cfg.get(), app,
                                     g.sweep.withNull});
    ASSERT_EQ(cells.size(), 11u);

    std::vector<Outcome> plain(cells.size()), blocked(cells.size());
    parallelFor(2 * cells.size(), [&](std::size_t i) {
        const Cell &c = cells[i / 2];
        const bool block = i % 2 == 1;
        const std::string tp = ::testing::TempDir() + "exactness_" +
                               c.name + (block ? ".blocked" : ".plain") +
                               ".trace";
        (block ? blocked : plain)[i / 2] = runCell(c, block, tp);
    });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].name);
        const Outcome &a = plain[i];
        const Outcome &b = blocked[i];
        EXPECT_TRUE(a.run.completed);
        EXPECT_EQ(a.run.violations, 0);
        // Every field but events, the latency histograms included.
        EXPECT_TRUE(a.run == b.run);
        EXPECT_FALSE(a.trace.empty());
        EXPECT_TRUE(a.trace == b.trace) << "traces differ";
        // The blocked run fired every event the plain one elided.
        EXPECT_GT(b.ticks, 0u);
        EXPECT_LT(a.run.events, b.run.events - b.ticks);
    }
}

} // namespace
