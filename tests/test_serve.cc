/**
 * @file
 * Serving-tier tests: the sharded KV store and the RPC echo complete
 * every open-loop request with consistent accounting, the run is
 * bit-identical whatever FUGU_THREADS is, a fault storm against the
 * tier finishes with zero invariant violations, and a multi-trial
 * cell merges its trials as runTrials averages them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "serve/serve.hh"

using namespace fugu;
using harness::ServeStats;

namespace
{

/** One single-trial serving cell, run as bench_sweep runs one. */
ServeStats
runServe(const std::string &app, unsigned nodes, unsigned requests,
         bool gang = false, bool faults = false)
{
    glaze::MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.seed = 7;
    if (faults)
        cfg.fault.cls = sim::FaultClass::Mixed;
    harness::Workloads wl;
    wl.serve.requests = requests;
    wl.serve.warmup = 20;
    wl.arrival.ratePerKcycle = 2.0;
    glaze::GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return harness::runServing(cfg, wl, app, /*with_null=*/gang, gang, g,
                               /*trials=*/1);
}

/** Scoped FUGU_THREADS override. */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char *v)
    {
        const char *old = std::getenv("FUGU_THREADS");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv("FUGU_THREADS", v, 1);
    }
    ~ThreadsEnv()
    {
        if (had_)
            setenv("FUGU_THREADS", old_.c_str(), 1);
        else
            unsetenv("FUGU_THREADS");
    }

  private:
    bool had_ = false;
    std::string old_;
};

void
expectConsistent(const ServeStats &r, unsigned nodes, unsigned requests)
{
    EXPECT_TRUE(r.run.completed);
    EXPECT_DOUBLE_EQ(r.run.violations, 0.0);
    const serve::ServeResult &sr = r.requests;
    const std::uint64_t expect =
        static_cast<std::uint64_t>(nodes) * requests;
    EXPECT_EQ(sr.offeredArrivals, expect);
    EXPECT_EQ(sr.completed, expect);
    // Every completed request was classified exactly once.
    EXPECT_EQ(sr.latFast.count + sr.latBuffered.count, expect);
    EXPECT_LE(sr.sloMet, sr.completed);
    EXPECT_LE(sr.servedBuffered, sr.completed);
    EXPECT_GT(sr.span(), 0u);
    EXPECT_GT(sr.latFast.maxValue() + sr.latBuffered.maxValue(), 0.0);
}

TEST(ServeTest, KvCompletesWithConsistentAccounting)
{
    const ServeStats r = runServe("kv", 4, 100);
    expectConsistent(r, 4, 100);
    // put_frac=0.10 over 400 requests: some puts, mostly gets.
    EXPECT_GT(r.requests.puts, 0u);
    EXPECT_LT(r.requests.puts, r.requests.completed / 2);
    // ~1/4 of a uniform-hashed keyspace is home on the requester.
    EXPECT_GT(r.requests.localHits, 0u);
}

TEST(ServeTest, RpcCompletesWithConsistentAccounting)
{
    const ServeStats r = runServe("rpc", 4, 100);
    expectConsistent(r, 4, 100);
    // The RPC echo never touches the store.
    EXPECT_EQ(r.requests.puts, 0u);
    EXPECT_EQ(r.requests.localHits, 0u);
}

TEST(ServeTest, FixedShardsBitIdenticalAcrossThreads)
{
    ServeStats a, b;
    {
        ThreadsEnv env("1");
        a = runServe("kv", 4, 60);
    }
    {
        ThreadsEnv env("4");
        b = runServe("kv", 4, 60);
    }
    EXPECT_TRUE(a.run == b.run);
    EXPECT_TRUE(a.requests == b.requests);
}

TEST(ServeTest, GangSchedulingExercisesTheBufferedCase)
{
    // A short skewed quantum against the null app forces quantum
    // switches mid-stream: some requests must be served off the
    // buffered path, and both delivery cases stay violation-free.
    const ServeStats r = runServe("kv", 4, 120, /*gang=*/true);
    expectConsistent(r, 4, 120);
    EXPECT_GT(r.requests.latBuffered.count, 0u);
    EXPECT_GT(r.requests.latFast.count, 0u);
}

TEST(ServeTest, FaultStormAgainstServingTierIsViolationFree)
{
    for (const char *app : {"kv", "rpc"}) {
        const ServeStats r =
            runServe(app, 4, 80, /*gang=*/true, /*faults=*/true);
        expectConsistent(r, 4, 80);
        EXPECT_GT(r.run.faultEvents, 0.0) << app;
    }
}

TEST(ServeTest, TwoTrialCellMergesTrialsInSeedOrder)
{
    glaze::MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 7;
    harness::Workloads wl;
    wl.serve.requests = 60;
    wl.serve.warmup = 20;
    glaze::GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    const ServeStats cell =
        harness::runServing(cfg, wl, "kv", true, true, g, /*trials=*/2);

    // The requests are the two single-trial runs' (seeds s and
    // s + 1000003), merged in that order...
    serve::ServeResult want;
    for (unsigned t = 0; t < 2; ++t) {
        glaze::MachineConfig one = cfg;
        one.seed = cfg.seed + 1000003ull * t;
        auto slots =
            std::make_shared<std::vector<serve::ServeResult>>(cfg.nodes);
        ASSERT_TRUE(
            harness::runJob(one, wl.serving("kv", slots), true, true, g)
                .completed);
        want.merge(serve::mergeSlots(*slots));
    }
    EXPECT_EQ(cell.requests.completed, 2u * 4 * 60);
    EXPECT_TRUE(cell.requests == want);
    // ...and the run stats are runTrials' on the same workload.
    EXPECT_TRUE(cell.run ==
                harness::runTrials(cfg, wl.factory("kv"), true, true, g,
                                   /*trials=*/2));
}

TEST(ServeTest, ResultMergeAccumulates)
{
    serve::ServeResult a, b;
    a.offeredArrivals = 10;
    a.completed = 9;
    a.sloMet = 5;
    a.firstArrival = 100;
    a.lastReply = 900;
    a.latFast.sample(40);
    b.offeredArrivals = 4;
    b.completed = 4;
    b.sloMet = 4;
    b.firstArrival = 50;
    b.lastReply = 700;
    b.latBuffered.sample(8000);
    a.merge(b);
    EXPECT_EQ(a.offeredArrivals, 14u);
    EXPECT_EQ(a.completed, 13u);
    EXPECT_EQ(a.sloMet, 9u);
    EXPECT_EQ(a.firstArrival, 50u);
    EXPECT_EQ(a.lastReply, 900u);
    EXPECT_EQ(a.span(), 850u);
    EXPECT_EQ(a.latFast.count, 1u);
    EXPECT_EQ(a.latBuffered.count, 1u);
}

} // namespace
