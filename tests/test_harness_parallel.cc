/**
 * @file
 * Determinism tests for the parallel experiment harness: runTrials
 * and parallelFor must return bit-identical results no matter how
 * many worker threads execute the jobs, because each job builds a
 * private machine and results are combined in input (seed) order.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

/** Scoped FUGU_THREADS override. */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("FUGU_THREADS"))
            saved_ = old;
        setenv("FUGU_THREADS", value, 1);
    }

    ~ThreadsEnv()
    {
        if (saved_.empty())
            unsetenv("FUGU_THREADS");
        else
            setenv("FUGU_THREADS", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

AppFactory
synthFactory()
{
    return [](unsigned nodes, std::uint64_t seed) {
        apps::SynthAppConfig cfg;
        cfg.n = 10;
        cfg.groups = 6;
        cfg.tBetween = 400;
        cfg.handlerStall = 200;
        cfg.seed = seed;
        return apps::makeSynthApp(nodes, cfg);
    };
}

RunStats
runSweepPoint(unsigned trials)
{
    glaze::MachineConfig mcfg;
    mcfg.nodes = 4;
    glaze::GangConfig gcfg;
    gcfg.quantum = 100000;
    gcfg.skew = 0.05;
    return runTrials(mcfg, synthFactory(), /*with_null=*/true,
                     /*gang=*/true, gcfg, trials);
}

void
expectBitIdentical(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.direct, b.direct);       // exact, not approximate:
    EXPECT_EQ(a.buffered, b.buffered);   // same seeds, same machines
    EXPECT_EQ(a.bufferedPct, b.bufferedPct);
    EXPECT_EQ(a.tBetween, b.tBetween);
    EXPECT_EQ(a.tHand, b.tHand);
    EXPECT_EQ(a.maxVbufPages, b.maxVbufPages);
    EXPECT_EQ(a.overflowEvents, b.overflowEvents);
    EXPECT_EQ(a.atomicityTimeouts, b.atomicityTimeouts);
}

TEST(HarnessParallelTest, WorkerCountHonorsEnvOverride)
{
    ThreadsEnv env("3");
    EXPECT_EQ(workerCount(), 3u);
}

TEST(HarnessParallelTest, RunTrialsIsBitIdenticalAcrossThreadCounts)
{
    RunStats serial, threaded;
    {
        ThreadsEnv env("1");
        serial = runSweepPoint(4);
    }
    {
        ThreadsEnv env("4");
        threaded = runSweepPoint(4);
    }
    ASSERT_TRUE(serial.completed);
    expectBitIdentical(serial, threaded);
}

TEST(HarnessParallelTest, RunManyPreservesInputOrder)
{
    // parallelFor hands each slot its own index, whatever thread
    // takes it, so results land in input order.
    ThreadsEnv env("4");
    std::vector<std::size_t> out(17, ~std::size_t{0});
    parallelFor(out.size(), [&](std::size_t i) { out[i] = i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i);
}

TEST(HarnessParallelTest, NestedParallelismStaysDeterministic)
{
    // Sweep points on the pool, each running multi-trial runTrials
    // inside a worker (which serializes the nested jobs): results
    // must match the all-serial run exactly.
    std::vector<RunStats> serial(2), nested(2);
    {
        ThreadsEnv env("1");
        parallelFor(2, [&](std::size_t i) {
            serial[i] = runSweepPoint(static_cast<unsigned>(1 + i));
        });
    }
    {
        ThreadsEnv env("4");
        parallelFor(2, [&](std::size_t i) {
            nested[i] = runSweepPoint(static_cast<unsigned>(1 + i));
        });
    }
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectBitIdentical(serial[i], nested[i]);
}

} // namespace
