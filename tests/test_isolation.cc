/**
 * @file
 * Adversarial-neighbor isolation tests: a victim sharing the machine
 * with each adversary tenant keeps every transparency invariant
 * (cross-GID FIFO, content, protection, frame conservation) on all
 * three NI buffering backends and whatever FUGU_THREADS is set to; the new starvation/isolation
 * checker metrics observe the abuse and their limits trip when armed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "apps/adversary.hh"
#include "glaze/machine.hh"
#include "harness/experiment.hh"

using namespace fugu;
using namespace fugu::glaze;
using harness::TenantRunStats;
using harness::TenantStats;

namespace
{

MachineConfig
baseConfig()
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    return cfg;
}

GangConfig
gangConfig()
{
    GangConfig g;
    g.quantum = 15000;
    g.skew = 0.3;
    return g;
}

/** The victim: a plain barrier tenant, long enough to overlap the
 *  adversary's whole attack window. */
AppBody
victimBody(unsigned nodes, std::uint64_t seed)
{
    harness::Workloads wl;
    wl.barrier.barriers = 400;
    return wl.factory("barrier")(nodes, seed);
}

apps::AbuserAppConfig
abuserConfig()
{
    apps::AbuserAppConfig a;
    a.messages = 150;
    a.warmup = 30000;
    return a;
}

TenantRunStats
runAbuserPair(const MachineConfig &cfg)
{
    return harness::runTenants(
        cfg,
        {{"victim", victimBody(cfg.nodes, cfg.seed)},
         {"abuser", apps::makeAbuserApp(cfg.nodes, abuserConfig())}},
        gangConfig(), 400000000ull);
}

class IsolationBackendTest
    : public ::testing::TestWithParam<core::NiBackendKind>
{
};

TEST_P(IsolationBackendTest, AbuserPinsVbufWithoutBreakingInvariants)
{
    const core::NiBackendKind backend = GetParam();
    MachineConfig cfg = baseConfig();
    cfg.ni.backend = backend;
    const TenantRunStats r = runAbuserPair(cfg);
    ASSERT_TRUE(r.completed)
        << core::toString(backend) << ": victim never finished";
    EXPECT_EQ(r.violations, 0.0) << core::toString(backend);

    const TenantStats &vic = r.tenants[0];
    const TenantStats &abu = r.tenants[1];
    // The victim's traffic really flowed and was trace-attributed.
    EXPECT_GT(vic.run.sent, 0u);
    EXPECT_GT(vic.trace.latency.count, 0u);
    EXPECT_GT(vic.run.direct + vic.run.buffered, 0.0);
    // The abuser really refused to drain: its squat diverted arrivals
    // into its vbuf and the checker saw the page occupancy.
    EXPECT_GT(abu.run.buffered, 0.0) << core::toString(backend);
    EXPECT_GE(abu.run.maxVbufPages, 1u);
    EXPECT_GT(abu.iso.framePeak, 0u);
    EXPECT_GT(abu.iso.frameShareMax, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IsolationBackendTest,
    ::testing::Values(core::NiBackendKind::StaticFifo,
                      core::NiBackendKind::Damq,
                      core::NiBackendKind::ZerocopyRemap),
    [](const auto &info) {
        return std::string(core::toString(info.param));
    });

class AdversaryGridTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AdversaryGridTest, VictimSurvivesWithZeroViolations)
{
    MachineConfig cfg = baseConfig();
    // Below the squatter's hold, so revocation actually fires.
    cfg.ni.atomicityTimeout = 1000;
    harness::Workloads wl;
    wl.hog.messages = 300;
    wl.hog.holdCycles = 400;
    wl.hog.warmup = 30000;
    wl.squatter.rounds = 40;
    const TenantRunStats r = harness::runTenants(
        cfg,
        {{"victim", victimBody(cfg.nodes, cfg.seed)},
         {"adversary", wl.factory(GetParam())(cfg.nodes, cfg.seed)}},
        gangConfig(), 400000000ull);
    ASSERT_TRUE(r.completed) << GetParam() << " starved the victim out";
    EXPECT_EQ(r.violations, 0.0) << GetParam();
    EXPECT_GT(r.tenants[0].trace.latency.count, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAdversaries, AdversaryGridTest,
                         ::testing::Values("hog", "abuser", "squatter"),
                         [](const auto &info) { return info.param; });

TEST(IsolationMetricsTest, ServiceGapLimitTripsWhenArmed)
{
    // A 1-cycle limit makes every real service gap a violation; the
    // same pairing reports zero with the limit off (grid test above),
    // so any violations here come from the starvation judge.
    MachineConfig cfg = baseConfig();
    cfg.check.serviceGapLimit = 1;
    const TenantRunStats r = runAbuserPair(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.violations, 0.0);
}

TEST(IsolationMetricsTest, FrameShareLimitTripsWhenArmed)
{
    // Any held frame exceeds a near-zero share limit at sweep time.
    MachineConfig cfg = baseConfig();
    cfg.check.frameShareLimit = 1e-6;
    const TenantRunStats r = runAbuserPair(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.violations, 0.0);
}

TEST(IsolationMetricsTest, WatermarksStayZeroCostWhenUnarmed)
{
    // Defaults (limits at 0) record watermarks without judging: the
    // service-gap watermark is populated, violations stay zero.
    MachineConfig cfg = baseConfig();
    const TenantRunStats r = runAbuserPair(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0.0);
    EXPECT_GT(r.tenants[0].iso.serviceGapMax, 0u);
}

/** isolation.cfg's machine: atomicity revocation and a mixed storm. */
MachineConfig
stormConfig()
{
    MachineConfig cfg = baseConfig();
    cfg.ni.atomicityTimeout = 1000;
    cfg.fault.cls = sim::FaultClass::Mixed;
    cfg.fault.intensity = 0.5;
    return cfg;
}

GangConfig
stormGang()
{
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return g;
}

apps::CovertAppConfig
covertConfig(std::uint64_t seed)
{
    apps::CovertAppConfig ccfg;
    ccfg.windows = 8;
    ccfg.windowCycles = 40000;
    ccfg.warmup = 30000;
    ccfg.seed = seed;
    return ccfg;
}

/** The prober first, so the run lasts until it has decoded. */
TenantRunStats
runCovertAroundVictim(const MachineConfig &cfg, apps::CovertResult *res)
{
    const apps::CovertAppConfig ccfg = covertConfig(cfg.seed);
    return harness::runTenants(
        cfg,
        {{"covert_rx", apps::makeCovertRxApp(cfg.nodes, ccfg, res)},
         {"victim", victimBody(cfg.nodes, cfg.seed)},
         {"covert_tx", apps::makeCovertTxApp(cfg.nodes, ccfg)}},
        stormGang(), 400000000ull);
}

TEST(StartupRaceTest, MessageBeforeFirstScheduleBuffersCleanly)
{
    // Regression: in a 3-tenant gang under a divert storm, a tenant's
    // message can arrive at a peer node before that peer's process
    // has EVER run (skewed quantum boundaries) — it must divert into
    // the software buffer and wait for the main's startup prologue,
    // not upcall into a handler table the application never filled.
    // This exact pairing panicked with "no handler registered".
    apps::CovertResult res;
    const TenantRunStats r = runCovertAroundVictim(stormConfig(), &res);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0.0);
    // The mid-gang victim really ran and its traffic was delivered —
    // the pre-start arrivals drained once startup had registered.
    EXPECT_GT(r.tenants[1].trace.latency.count, 0u);
}

TEST(CovertChannelTest, ProberDecodesWindowsWithZeroViolations)
{
    MachineConfig cfg = baseConfig();
    const apps::CovertAppConfig ccfg = covertConfig(cfg.seed);
    apps::CovertResult res;
    const TenantRunStats r = harness::runTenants(
        cfg,
        {{"covert_rx", apps::makeCovertRxApp(cfg.nodes, ccfg, &res)},
         {"covert_tx", apps::makeCovertTxApp(cfg.nodes, ccfg)}},
        gangConfig(), 400000000ull);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0.0);
    // The prober sampled real windows and produced a decode; whether
    // the channel is *good* is the isolation grid's question
    // (covert_bits_per_mcycle), not a correctness invariant.
    EXPECT_GT(res.windows, 0u);
    EXPECT_LE(res.correct, res.windows);
}

void
expectSameRun(const TenantRunStats &a, const TenantRunStats &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.holBypasses, b.holBypasses);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        const TenantStats &x = a.tenants[i];
        const TenantStats &y = b.tenants[i];
        EXPECT_TRUE(x.run == y.run) << i;
        EXPECT_EQ(x.run.events, y.run.events) << i;
        EXPECT_EQ(x.trace.fast, y.trace.fast) << i;
        EXPECT_EQ(x.trace.buffered, y.trace.buffered) << i;
        EXPECT_EQ(x.trace.latency.count, y.trace.latency.count) << i;
        EXPECT_EQ(x.trace.latency.p99, y.trace.latency.p99) << i;
        EXPECT_EQ(x.trace.latency.max, y.trace.latency.max) << i;
        EXPECT_EQ(x.iso.serviceGapMax, y.iso.serviceGapMax) << i;
        EXPECT_EQ(x.iso.framePeak, y.iso.framePeak) << i;
        EXPECT_EQ(x.iso.frameShareMax, y.iso.frameShareMax) << i;
    }
}

TEST(AdversaryPairingTest, RunAgainstMatchesHandBuiltTenantLists)
{
    // The isolation grid's pairings are runTenants job lists; the
    // harness builds the same ones the tests build by hand.
    const MachineConfig cfg = stormConfig();
    harness::Workloads wl;
    wl.barrier.barriers = 400;
    wl.covert = covertConfig(cfg.seed);

    const harness::AdversaryStats covert = harness::runAgainst(
        cfg, wl, "barrier", "covert", stormGang(), 400000000ull);
    apps::CovertResult res;
    const TenantRunStats trio = runCovertAroundVictim(cfg, &res);
    EXPECT_EQ(covert.victim, 1u);
    expectSameRun(covert.run, trio);
    EXPECT_EQ(covert.covert.windows, res.windows);
    EXPECT_EQ(covert.covert.correct, res.correct);

    const harness::AdversaryStats null = harness::runAgainst(
        cfg, wl, "barrier", "null", stormGang(), 400000000ull);
    EXPECT_EQ(null.victim, 0u);
    expectSameRun(null.run,
                  harness::runTenants(
                      cfg,
                      {{"victim", victimBody(cfg.nodes, cfg.seed)},
                       {"null", apps::makeNullApp()}},
                      stormGang(), 400000000ull));
}

TEST(IsolationMetricsTest, RunIndependentOfWorkerThreads)
{
    const char *saved = std::getenv("FUGU_THREADS");
    const std::string saved_val = saved ? saved : "";

    MachineConfig cfg = baseConfig();
    ::setenv("FUGU_THREADS", "1", 1);
    const TenantRunStats r1 = runAbuserPair(cfg);
    ::setenv("FUGU_THREADS", "4", 1);
    const TenantRunStats r4 = runAbuserPair(cfg);
    if (saved)
        ::setenv("FUGU_THREADS", saved_val.c_str(), 1);
    else
        ::unsetenv("FUGU_THREADS");

    ASSERT_TRUE(r1.completed);
    expectSameRun(r1, r4);
}

} // namespace
