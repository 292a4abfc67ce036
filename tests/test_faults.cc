/**
 * @file
 * Fault-injection tests: every fault class survives a transition
 * storm with zero invariant violations, the injector is off by
 * default and inert at zero rates, and a faulted run is bit-for-bit
 * deterministic — same seed, same stats, same trace bytes —
 * whatever FUGU_THREADS is set to.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/common.hh"
#include "core/arch.hh"
#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/fault.hh"

using namespace fugu;
using namespace fugu::glaze;
using harness::RunStats;

namespace
{

/** A 4-node config with @p sets applied as --set values, then fixed. */
MachineConfig
configWith(std::initializer_list<std::string> sets)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    sim::Config tree;
    std::string err;
    for (const std::string &s : sets)
        EXPECT_TRUE(tree.setCli(s, &err)) << err;
    sim::Binder b(tree, sim::Binder::Mode::Apply);
    bindConfig(b, cfg);
    EXPECT_TRUE(b.ok()) << b.error();
    return Machine::fix(cfg);
}

/** The stress.cfg shape in miniature: barrier + null, skewed gang. */
MachineConfig
stormConfig(const std::string &cls)
{
    return configWith({"fault.class=" + cls});
}

RunStats
runStorm(const MachineConfig &cfg, unsigned trials = 1,
         const std::string &trace_path = "")
{
    harness::Workloads wl;
    wl.barrier.barriers = 300;
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return harness::runTrials(cfg, wl.factory("barrier"),
                              /*with_null=*/true, /*gang=*/true, g,
                              trials, 100000000000ull, trace_path);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

class FaultStormTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FaultStormTest, SurvivesStormWithZeroViolations)
{
    const RunStats r = runStorm(stormConfig(GetParam()));
    ASSERT_TRUE(r.completed) << GetParam() << " wedged the machine";
    EXPECT_EQ(r.violations, 0.0) << GetParam();
    // The storm must actually exercise the mechanism it targets.
    EXPECT_GT(r.faultEvents, 0.0) << GetParam();
}

TEST_P(FaultStormTest, SameSeedIsBitIdentical)
{
    const MachineConfig cfg = stormConfig(GetParam());
    const RunStats a = runStorm(cfg);
    const RunStats b = runStorm(cfg);
    EXPECT_TRUE(a == b) << GetParam()
                        << ": faulted run is not reproducible";
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FaultStormTest,
    ::testing::Values("jitter", "inqfull", "outqfull", "framedeny",
                      "divert", "timeout", "pagefault", "mixed"),
    [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Atomicity-timeout revocation vs squatters (glaze/kernel.cc)
// ---------------------------------------------------------------------

/**
 * A tenant that arms the user-settable timer-force UAC bit and never
 * opens (or closes) an atomic section, while doing real barrier
 * traffic. The atomicity timer then expires repeatedly with
 * interrupt-disable clear; each expiry must revoke into plain
 * buffered mode, not raise the atomicity gate — there is no atomic
 * section, so no endAtomic trap will ever come to clear it. Pre-fix,
 * onAtomicityTimeout committed from_atomic unconditionally and the
 * first expiry wedged the process's drain forever.
 */
glaze::AppBody
makeTimerForceSquatter(unsigned nnodes, unsigned barriers)
{
    return [=](glaze::Process &p) -> exec::CoTask<void> {
        auto &e = apps::env(p, nnodes);
        p.port().ni().beginAtom(core::kUacTimerForce);
        for (unsigned i = 0; i < barriers; ++i) {
            co_await p.compute(400);
            co_await e.barrier.wait();
        }
    };
}

/**
 * A tenant that re-arms physical atomicity back to back, holding each
 * section past the timeout preset so revocation keeps firing, with a
 * timeout storm layered on top to land stale interrupts in the
 * modeTransition window.
 */
glaze::AppBody
makeAtomicSquatter(unsigned nnodes, unsigned barriers)
{
    return [=](glaze::Process &p) -> exec::CoTask<void> {
        auto &e = apps::env(p, nnodes);
        for (unsigned i = 0; i < barriers; ++i) {
            co_await p.port().beginAtomic();
            co_await p.compute(3000); // > the timeout preset below
            co_await p.port().endAtomic();
            co_await e.barrier.wait();
        }
    };
}

TEST(AtomicityTest, TimerForceSquatterCannotWedgeTheDrain)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    // Every dispose restarts the timer with a fresh preset, so the
    // preset must be shorter than the squatter's compute leg for the
    // forced timer to actually expire between barrier rounds.
    cfg.ni.atomicityTimeout = 250;
    const RunStats r = harness::runJob(
        cfg,
        [](unsigned n, std::uint64_t) {
            return makeTimerForceSquatter(n, 80);
        },
        /*with_null=*/false, /*gang=*/false, {},
        /*max_cycles=*/200000000ull);
    ASSERT_TRUE(r.completed)
        << "timer-force squatter wedged its own drain";
    EXPECT_EQ(r.violations, 0.0);
    // The squat must actually fire the timer (else the test is inert).
    EXPECT_GT(r.atomicityTimeouts, 0.0);
}

TEST(AtomicityTest, TimeoutStormAgainstAtomicitySquatter)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    cfg.ni.atomicityTimeout = 1000;
    cfg.fault.enabled = true;
    cfg.fault.atomTimeoutProb = 0.5;
    cfg.fault.divertStormProb = 0.3;
    const auto factory = [](unsigned n, std::uint64_t) {
        return makeAtomicSquatter(n, 60);
    };
    const RunStats r = harness::runJob(cfg, factory,
                                       /*with_null=*/true,
                                       /*gang=*/true, {},
                                       /*max_cycles=*/400000000ull);
    ASSERT_TRUE(r.completed) << "squatter + storm wedged the machine";
    EXPECT_EQ(r.violations, 0.0);
    EXPECT_GT(r.atomicityTimeouts, 0.0);
    const RunStats replay = harness::runJob(cfg, factory, true, true,
                                            {}, 400000000ull);
    EXPECT_TRUE(r == replay);
}

/** The seven fault.*_prob rates, in declaration order. */
std::array<double, 7>
rates(const sim::FaultConfig &f)
{
    return {f.delayJitterProb, f.inputFullProb,  f.outputFullProb,
            f.frameDenyProb,   f.divertStormProb, f.atomTimeoutProb,
            f.pageFaultProb};
}

TEST(FaultTest, ClassResolvesToItsBaseRates)
{
    // Every storm at intensity 1 keeps the exact rates the stress
    // sweep has always run; mixed at 0.5 is the isolation grid's.
    const struct
    {
        const char *cls;
        const char *intensity;
        std::array<double, 7> want;
    } rows[] = {
        {"jitter", "1", {0.30, 0, 0, 0, 0, 0, 0}},
        {"inqfull", "1", {0, 0.05, 0, 0, 0, 0, 0}},
        {"outqfull", "1", {0, 0, 0.30, 0, 0, 0, 0}},
        {"framedeny", "1", {0, 0, 0, 0.20, 0, 0, 0}},
        {"divert", "1", {0, 0, 0, 0, 0.50, 0, 0}},
        {"timeout", "1", {0, 0, 0, 0, 0, 0.50, 0}},
        {"pagefault", "1", {0, 0, 0, 0, 0, 0, 0.10}},
        {"mixed", "1", {0.10, 0.02, 0.10, 0.05, 0.15, 0.15, 0.03}},
        {"mixed", "0.5", {0.05, 0.01, 0.05, 0.025, 0.075, 0.075, 0.015}},
    };
    for (const auto &r : rows) {
        const sim::FaultConfig f =
            configWith({std::string("fault.class=") + r.cls,
                        std::string("fault.intensity=") + r.intensity})
                .fault;
        EXPECT_TRUE(f.enabled) << r.cls;
        EXPECT_EQ(rates(f), r.want) << r.cls << " x " << r.intensity;
        sim::FaultConfig again = f;
        sim::resolveFaultClass(again);
        EXPECT_EQ(rates(again), rates(f)) << r.cls << " is not idempotent";
    }
    EXPECT_FALSE(configWith({"fault.class=none"}).fault.enabled);

    // An explicit nonzero rate beats the class; the rest still fill.
    const sim::FaultConfig f =
        configWith({"fault.class=mixed", "fault.divert_storm_prob=0.4"})
            .fault;
    EXPECT_EQ(rates(f), (std::array<double, 7>{0.10, 0.02, 0.10, 0.05,
                                               0.4, 0.15, 0.03}));
}

TEST(FaultTest, DisabledByDefaultInjectsNothing)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    const RunStats r = runStorm(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.faultEvents, 0.0);
    EXPECT_EQ(r.violations, 0.0);
}

TEST(FaultTest, EnabledWithZeroRatesMatchesDisabled)
{
    // fault.enabled with every probability at 0 must not perturb the
    // simulation: zero-rate classes draw no randomness and inject
    // nothing, so the timeline is the baseline's.
    MachineConfig base;
    base.nodes = 4;
    base.seed = 11;
    MachineConfig armed = base;
    armed.fault.enabled = true;
    const RunStats a = runStorm(base);
    const RunStats b = runStorm(armed);
    EXPECT_EQ(b.faultEvents, 0.0);
    EXPECT_TRUE(a == b);
}

TEST(FaultTest, ExplicitFaultSeedDecouplesFromMachineSeed)
{
    // Same machine seed, different fault seeds: the injected streams
    // must differ (else fault.seed is dead weight).
    MachineConfig a = stormConfig("mixed");
    a.fault.seed = 1;
    MachineConfig b = a;
    b.fault.seed = 2;
    const RunStats ra = runStorm(a);
    const RunStats rb = runStorm(b);
    EXPECT_EQ(ra.violations, 0.0);
    EXPECT_EQ(rb.violations, 0.0);
    EXPECT_FALSE(ra == rb);
}

TEST(FaultTest, StormIndependentOfWorkerThreads)
{
    const char *saved = std::getenv("FUGU_THREADS");
    const std::string saved_val = saved ? saved : "";

    const MachineConfig cfg = stormConfig("mixed");
    const std::string p1 = testing::TempDir() + "fault_threads1.trace";
    const std::string p4 = testing::TempDir() + "fault_threads4.trace";
    ::setenv("FUGU_THREADS", "1", 1);
    const RunStats r1 = runStorm(cfg, /*trials=*/2, p1);
    ::setenv("FUGU_THREADS", "4", 1);
    const RunStats r4 = runStorm(cfg, /*trials=*/2, p4);
    if (saved)
        ::setenv("FUGU_THREADS", saved_val.c_str(), 1);
    else
        ::unsetenv("FUGU_THREADS");

    ASSERT_TRUE(r1.completed);
    EXPECT_TRUE(r1 == r4) << "faulted stats depend on FUGU_THREADS";
    EXPECT_EQ(readFile(p1), readFile(p4))
        << "faulted trace bytes depend on FUGU_THREADS";
    std::remove(p1.c_str());
    std::remove((p1 + ".json").c_str());
    std::remove(p4.c_str());
    std::remove((p4 + ".json").c_str());
}

} // namespace
