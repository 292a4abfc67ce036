/**
 * @file
 * Serving-tier tests: the sharded KV store and the RPC echo complete
 * every open-loop request with consistent accounting, the run is
 * bit-identical whatever FUGU_THREADS is, and a fault storm against
 * the tier finishes with zero invariant violations.
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
using harness::RunStats;

namespace
{

struct ServeRun
{
    RunStats rs;
    serve::ServeResult sr;
};

ServeRun
runServe(const std::string &app, unsigned nodes, unsigned requests,
         bool gang = false, bool faults = false)
{
    glaze::MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.seed = 7;
    if (faults)
        cfg.fault.cls = sim::FaultClass::Mixed;
    serve::ServeConfig sc;
    sc.app = app;
    sc.requests = requests;
    sc.warmup = 20;
    sim::ArrivalConfig ac;
    ac.ratePerKcycle = 2.0;
    auto slots =
        std::make_shared<std::vector<serve::ServeResult>>(cfg.nodes);
    harness::AppFactory fac = [sc, ac,
                               slots](unsigned n, std::uint64_t seed) {
        serve::ServeConfig s2 = sc;
        s2.seed = seed;
        sim::ArrivalConfig a2 = ac;
        a2.seed = seed;
        return serve::makeServingApp(n, s2, a2, slots);
    };
    glaze::GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    ServeRun out;
    out.rs = harness::runJob(cfg, fac, /*with_null=*/gang, gang, g);
    out.sr = serve::mergeSlots(*slots);
    return out;
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
expectConsistent(const ServeRun &r, unsigned nodes, unsigned requests)
{
    EXPECT_TRUE(r.rs.completed);
    EXPECT_DOUBLE_EQ(r.rs.violations, 0.0);
    const std::uint64_t expect =
        static_cast<std::uint64_t>(nodes) * requests;
    EXPECT_EQ(r.sr.offeredArrivals, expect);
    EXPECT_EQ(r.sr.completed, expect);
    // Every completed request was classified exactly once.
    EXPECT_EQ(r.sr.latFast.count + r.sr.latBuffered.count, expect);
    EXPECT_LE(r.sr.sloMet, r.sr.completed);
    EXPECT_LE(r.sr.servedBuffered, r.sr.completed);
    EXPECT_GT(r.sr.span(), 0u);
    EXPECT_GT(r.sr.latFast.maxValue() + r.sr.latBuffered.maxValue(),
              0.0);
}

TEST(ServeTest, KvCompletesWithConsistentAccounting)
{
    const ServeRun r = runServe("kv", 4, 100);
    expectConsistent(r, 4, 100);
    // put_frac=0.10 over 400 requests: some puts, mostly gets.
    EXPECT_GT(r.sr.puts, 0u);
    EXPECT_LT(r.sr.puts, r.sr.completed / 2);
    // ~1/4 of a uniform-hashed keyspace is home on the requester.
    EXPECT_GT(r.sr.localHits, 0u);
}

TEST(ServeTest, RpcCompletesWithConsistentAccounting)
{
    const ServeRun r = runServe("rpc", 4, 100);
    expectConsistent(r, 4, 100);
    // The RPC echo never touches the store.
    EXPECT_EQ(r.sr.puts, 0u);
    EXPECT_EQ(r.sr.localHits, 0u);
}

TEST(ServeTest, FixedShardsBitIdenticalAcrossThreads)
{
    ServeRun a, b;
    {
        ThreadsEnv env("1");
        a = runServe("kv", 4, 60);
    }
    {
        ThreadsEnv env("4");
        b = runServe("kv", 4, 60);
    }
    EXPECT_TRUE(a.rs == b.rs);
    EXPECT_TRUE(a.sr == b.sr);
}

TEST(ServeTest, GangSchedulingExercisesTheBufferedCase)
{
    // A short skewed quantum against the null app forces quantum
    // switches mid-stream: some requests must be served off the
    // buffered path, and both delivery cases stay violation-free.
    const ServeRun r = runServe("kv", 4, 120, /*gang=*/true);
    expectConsistent(r, 4, 120);
    EXPECT_GT(r.sr.latBuffered.count, 0u);
    EXPECT_GT(r.sr.latFast.count, 0u);
}

TEST(ServeTest, FaultStormAgainstServingTierIsViolationFree)
{
    for (const char *app : {"kv", "rpc"}) {
        const ServeRun r =
            runServe(app, 4, 80, /*gang=*/true, /*faults=*/true);
        expectConsistent(r, 4, 80);
        EXPECT_GT(r.rs.faultEvents, 0.0) << app;
    }
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
