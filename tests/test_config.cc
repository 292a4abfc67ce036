/**
 * @file
 * Tests for the unified scenario/config layer: parsing, precedence,
 * diagnostics, dump/parse round-trips, and bit-identical replay of a
 * run from its own --dump-config output.
 */

#include <gtest/gtest.h>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sim/config.hh"

using namespace fugu;
using namespace fugu::sim;

namespace
{

/** One shared-registry walk over the given structs. */
void
bindAll(Binder &b, glaze::MachineConfig &machine,
        glaze::GangConfig &gang, harness::Workloads &wl)
{
    glaze::bindConfig(b, machine);
    glaze::bindConfig(b, gang);
    wl.bind(b);
}

std::string
dumpAll(Config &tree, glaze::MachineConfig &machine,
        glaze::GangConfig &gang, harness::Workloads &wl)
{
    Binder d(tree, Binder::Mode::Dump);
    bindAll(d, machine, gang, wl);
    EXPECT_TRUE(d.ok()) << d.error();
    return d.dumpText();
}

TEST(Config, ParsesSectionsCommentsAndValues)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("# comment\n"
                                "machine.nodes = 16\n"
                                "\n"
                                "[gang]\n"
                                "quantum = 50000  \n"
                                "skew = 0.25\n"
                                "[net]\n"
                                "per_hop = 4\n",
                                "inline.cfg", &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_TRUE(tree.checkUnknown(&err)) << err;
    EXPECT_EQ(machine.nodes, 16u);
    EXPECT_EQ(gang.quantum, 50000u);
    EXPECT_DOUBLE_EQ(gang.skew, 0.25);
    EXPECT_EQ(machine.net.perHop, 4u);
}

TEST(Config, PrecedenceCliBeatsFileBeatsDefault)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("machine.nodes = 16\n"
                                "gang.quantum = 77\n",
                                "a.cfg", &err))
        << err;
    // A later file overrides an earlier one...
    ASSERT_TRUE(tree.loadString("machine.nodes = 32\n", "b.cfg", &err))
        << err;
    // ...and the CLI beats both, regardless of order.
    ASSERT_TRUE(tree.setCli("machine.nodes=64", &err)) << err;
    ASSERT_TRUE(tree.loadString("machine.nodes = 48\n", "c.cfg", &err))
        << err;

    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_EQ(machine.nodes, 64u);   // CLI
    EXPECT_EQ(gang.quantum, 77u);    // file
    EXPECT_EQ(gang.skew, 0.0);       // default
    EXPECT_TRUE(tree.explicitlySet("machine.nodes"));
    EXPECT_FALSE(tree.explicitlySet("gang.skew"));
}

TEST(Config, UnknownKeyNamesFileAndLine)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("machine.nodes = 4\n"
                                "machine.nodez = 8\n",
                                "typo.cfg", &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_FALSE(tree.checkUnknown(&err));
    EXPECT_NE(err.find("typo.cfg:2"), std::string::npos) << err;
    EXPECT_NE(err.find("machine.nodez"), std::string::npos) << err;
}

TEST(Config, ParShardsIsAnUnknownKey)
{
    // The parallel engine and its knobs are gone: a scenario that
    // still asks for shards must fail loudly, not run serially.
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("[machine]\n"
                                "nodes = 4\n"
                                "par_shards = 4\n",
                                "old.cfg", &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_FALSE(tree.checkUnknown(&err));
    EXPECT_NE(err.find("old.cfg:3"), std::string::npos) << err;
    EXPECT_NE(err.find("machine.par_shards"), std::string::npos) << err;
}

TEST(Config, TypeMismatchNamesOffender)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("machine.nodes = lots\n", "bad.cfg",
                                &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    EXPECT_FALSE(b.ok());
    EXPECT_NE(b.error().find("bad.cfg:1"), std::string::npos)
        << b.error();
    EXPECT_NE(b.error().find("machine.nodes"), std::string::npos)
        << b.error();
    EXPECT_NE(b.error().find("lots"), std::string::npos) << b.error();
}

TEST(Config, EnumAndBoolParsing)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("machine.atomicity = soft\n"
                                "machine.always_buffered = yes\n"
                                "trace.enabled = 1\n"
                                "fault.class = divert\n",
                                "e.cfg", &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_EQ(machine.atomicity, core::AtomicityMode::Soft);
    EXPECT_TRUE(machine.alwaysBuffered);
    EXPECT_TRUE(machine.trace.enabled);
    EXPECT_EQ(machine.fault.cls, FaultClass::Divert);

    ASSERT_TRUE(tree.setCli("machine.atomicity=firm", &err)) << err;
    Binder b2(tree, Binder::Mode::Apply);
    bindAll(b2, machine, gang, wl);
    EXPECT_FALSE(b2.ok());
    EXPECT_NE(b2.error().find("kernel|hard|soft"), std::string::npos)
        << b2.error();

    // An unknown storm names its file:line and the menu.
    Config bad;
    ASSERT_TRUE(bad.loadString("[fault]\nclass = hurricane\n", "f.cfg",
                               &err))
        << err;
    Binder b3(bad, Binder::Mode::Apply);
    bindAll(b3, machine, gang, wl);
    EXPECT_FALSE(b3.ok());
    EXPECT_NE(b3.error().find("f.cfg:2: parameter 'fault.class' expects "
                              "one of none|jitter|inqfull|outqfull|"
                              "framedeny|divert|timeout|pagefault|mixed"),
              std::string::npos)
        << b3.error();
}

TEST(Config, BackendAcceptsKnownNamesRejectsUnknown)
{
    // The ablation axis: every backend name selects its kind, and a
    // typo'd name fails loudly with the file:line of the offender and
    // the full menu, so a bad scenario never runs as static_fifo.
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.loadString("ni.backend = damq\n", "be.cfg", &err))
        << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_EQ(machine.ni.backend, core::NiBackendKind::Damq);

    ASSERT_TRUE(tree.setCli("ni.backend=zerocopy_remap", &err)) << err;
    Binder b2(tree, Binder::Mode::Apply);
    bindAll(b2, machine, gang, wl);
    ASSERT_TRUE(b2.ok()) << b2.error();
    EXPECT_EQ(machine.ni.backend, core::NiBackendKind::ZerocopyRemap);

    Config bad;
    ASSERT_TRUE(bad.loadString("ni.backend = hybrid_ring\n",
                               "be_bad.cfg", &err))
        << err;
    Binder b3(bad, Binder::Mode::Apply);
    bindAll(b3, machine, gang, wl);
    EXPECT_FALSE(b3.ok());
    EXPECT_NE(b3.error().find("be_bad.cfg:1"), std::string::npos)
        << b3.error();
    EXPECT_NE(b3.error().find("ni.backend"), std::string::npos)
        << b3.error();
    EXPECT_NE(b3.error().find("static_fifo|damq|zerocopy_remap"),
              std::string::npos)
        << b3.error();
}

TEST(Config, BadSyntaxAndBadKeysRejected)
{
    Config tree;
    std::string err;
    EXPECT_FALSE(
        tree.loadString("machine.nodes 8\n", "s.cfg", &err));
    EXPECT_NE(err.find("s.cfg:1"), std::string::npos) << err;
    EXPECT_FALSE(
        tree.loadString("machine..nodes = 8\n", "s2.cfg", &err));
    EXPECT_FALSE(tree.setCli("justakeynovalue", &err));
    EXPECT_FALSE(tree.loadFile("/nonexistent/x.cfg", &err));
}

TEST(Config, DumpParseDumpIsByteIdentical)
{
    // Dump the defaults, parse the dump, dump again: byte-identical.
    Config tree;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    {
        Binder apply(tree, Binder::Mode::Apply);
        bindAll(apply, machine, gang, wl);
        ASSERT_TRUE(apply.ok()) << apply.error();
    }
    const std::string first = dumpAll(tree, machine, gang, wl);

    Config tree2;
    std::string err;
    ASSERT_TRUE(tree2.loadString(first, "dump.cfg", &err)) << err;
    glaze::MachineConfig machine2;
    glaze::GangConfig gang2;
    harness::Workloads wl2;
    {
        Binder apply(tree2, Binder::Mode::Apply);
        bindAll(apply, machine2, gang2, wl2);
        ASSERT_TRUE(apply.ok()) << apply.error();
        ASSERT_TRUE(tree2.checkUnknown(&err)) << err;
    }
    EXPECT_EQ(first, dumpAll(tree2, machine2, gang2, wl2));
}

TEST(Config, OverriddenDumpReplaysToSameMachineAndStats)
{
    // An overridden run, dumped and re-applied, must produce the same
    // effective machine and bit-identical RunStats.
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.setCli("machine.nodes=4", &err)) << err;
    ASSERT_TRUE(tree.setCli("gang.skew=0.3", &err)) << err;
    ASSERT_TRUE(tree.setCli("apps.barrier.barriers=40", &err)) << err;
    ASSERT_TRUE(tree.setCli("fault.class=mixed", &err)) << err;

    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    gang.quantum = 100000;
    harness::Workloads wl;
    {
        Binder apply(tree, Binder::Mode::Apply);
        bindAll(apply, machine, gang, wl);
        ASSERT_TRUE(apply.ok()) << apply.error();
    }
    machine = glaze::Machine::fix(machine);
    const std::string dump = dumpAll(tree, machine, gang, wl);

    Config tree2;
    ASSERT_TRUE(tree2.loadString(dump, "replay.cfg", &err)) << err;
    glaze::MachineConfig machine2;
    glaze::GangConfig gang2;
    harness::Workloads wl2;
    {
        Binder apply(tree2, Binder::Mode::Apply);
        bindAll(apply, machine2, gang2, wl2);
        ASSERT_TRUE(apply.ok()) << apply.error();
        ASSERT_TRUE(tree2.checkUnknown(&err)) << err;
    }
    machine2 = glaze::Machine::fix(machine2);
    EXPECT_EQ(dump, dumpAll(tree2, machine2, gang2, wl2));
    EXPECT_TRUE(machine2.fault.enabled);

    const harness::RunStats a = harness::runTrials(
        machine, wl.factory("barrier"), /*with_null=*/true,
        /*gang=*/true, gang, /*trials=*/2);
    const harness::RunStats b = harness::runTrials(
        machine2, wl2.factory("barrier"), /*with_null=*/true,
        /*gang=*/true, gang2, /*trials=*/2);
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(a == b);
}

TEST(Config, PaperScaleRespectsExplicitKeys)
{
    Config tree;
    std::string err;
    ASSERT_TRUE(tree.setCli("workloads.paper_scale=true", &err)) << err;
    ASSERT_TRUE(tree.setCli("apps.lu.n=64", &err)) << err;
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    Binder b(tree, Binder::Mode::Apply);
    bindAll(b, machine, gang, wl);
    ASSERT_TRUE(b.ok()) << b.error();
    wl.resolvePaperScale(tree);
    EXPECT_EQ(wl.lu.n, 64u);            // explicit key wins
    EXPECT_EQ(wl.barnes.bodies, 2048u); // paper value applied
}

/** bench_sweep's spec: the shared registry plus the [sweep] section. */
struct SweepFixture
{
    harness::SweepConfig sweep;
    harness::BenchSpec spec;
    harness::BenchContext ctx{"sweep"};

    explicit SweepFixture(const std::string &scenario)
    {
        spec.params = [this](Binder &b) { sweep.bind(b); };
        std::string err;
        EXPECT_TRUE(ctx.tree.loadString(scenario, "grid.cfg", &err))
            << err;
    }

    bool
    expand(std::vector<harness::SweepPoint> *points, std::string *err)
    {
        return harness::applyTree(spec, ctx, err) &&
               harness::expandSweep(sweep, spec, ctx, points, err);
    }
};

TEST(Config, SweepAxisErrorsNameFileAndLine)
{
    const struct
    {
        const char *scenario;
        const char *want;
        const char *set = nullptr; ///< a --set to apply first
    } cases[] = {
        {"[sweep]\naxis1 = apps.synth.nn: 1, 2\n",
         "grid.cfg:2: unknown parameter 'apps.synth.nn'"},
        {"[sweep]\naxis1 = gang.skew: 0\naxis2 = apps.synth.n: 10, ten\n",
         "grid.cfg:3: parameter 'apps.synth.n' expects an unsigned "
         "integer, got 'ten'"},
        {"[sweep]\naxis1 = apps.synth.n: 1, 2 / apps.synth.groups: 3\n",
         "grid.cfg:2: sweep.axis1 expects"},
        {"[sweep]\naxis1 = apps.synth.n 1, 2\n",
         "grid.cfg:2: sweep.axis1 expects"},
        {"[sweep]\naxis1 = ni.backend:\n", "grid.cfg:2: sweep.axis1 expects"},
        {"[sweep]\naxis1 = fault.class: mixed, nosuch\n",
         "grid.cfg:2: parameter 'fault.class' expects one of none|"},
        {"[sweep]\naxis1 = sweep.with_null: true, false\n",
         "grid.cfg:2: sweep.axis1 cannot step 'sweep.with_null'"},
        {"[sweep]\naxis1 = arrival.mix: poisson, nosuch\n",
         "grid.cfg:2: parameter 'arrival.mix' expects one of "
         "poisson|bursty|diurnal, got 'nosuch'"},
        {"[sweep]\naxis1 = gang.skew: 0\n"
         "axis2 = arrival.rate_per_kcycle: 0.5, abc\n",
         "grid.cfg:3: parameter 'arrival.rate_per_kcycle' expects a "
         "number, got 'abc'"},
        {"[sweep]\nworkloads =\n", "grid.cfg:2: sweep.workloads is empty"},
        {"[sweep]\nworkloads = barnes, nosuch\n",
         "grid.cfg:2: unknown workload 'nosuch' in sweep.workloads"},
        // The axis would silently override the --set at every point.
        {"[gang]\nskew = 0.1\n[sweep]\naxis1 = apps.synth.n: 10, 100\n"
         "axis2 = gang.skew: 0, 0.25\n",
         "--set gang.skew=0.3: gang.skew is stepped by sweep.axis2 at "
         "grid.cfg:5",
         "gang.skew=0.3"},
        {"[harness]\ntrials = 1\n[sweep]\nadversaries = hog, barrier\n",
         "grid.cfg:4: unknown adversary 'barrier' in sweep.adversaries"},
        {"[harness]\ntrials = 1\n[sweep]\nwith_null = false\n"
         "adversaries = null, hog\n",
         "grid.cfg:5: sweep.adversaries needs sweep.with_null = true, "
         "not false (grid.cfg:4)"},
        {"[sweep]\nadversaries = covert\n",
         "grid.cfg:2: sweep.adversaries needs harness.trials = 1, not 3 "
         "(--set harness.trials=3)",
         "harness.trials=3"},
    };
    for (const auto &c : cases) {
        SweepFixture f(c.scenario);
        std::vector<harness::SweepPoint> points;
        std::string err;
        if (c.set) {
            ASSERT_TRUE(f.ctx.tree.setCli(c.set, &err)) << err;
        }
        EXPECT_FALSE(f.expand(&points, &err)) << c.scenario;
        EXPECT_NE(err.find(c.want), std::string::npos) << err;
    }
}

TEST(Config, SweepPointsApplyAxesLikeSet)
{
    // An axis beats its own file's value of the same key.
    SweepFixture f("[gang]\nskew = 0.1\n[sweep]\n"
                   "axis1 = apps.synth.n: 10, 100 / "
                   "apps.synth.groups: 40, 4\n"
                   "axis2 = gang.skew: 0, 0.25\n");
    std::string err;
    std::vector<harness::SweepPoint> points;
    ASSERT_TRUE(f.expand(&points, &err)) << err;
    ASSERT_EQ(points.size(), 4u);
    const std::vector<std::pair<std::string, std::string>> want{
        {"apps.synth.n", "100"},
        {"apps.synth.groups", "4"},
        {"gang.skew", "0.25"}};
    EXPECT_EQ(points[3].axes, want);
    EXPECT_EQ(points[3].cfg->workloads.synth.n, 100u);
    EXPECT_EQ(points[3].cfg->workloads.synth.groups, 4u);
    EXPECT_EQ(points[3].cfg->gang.skew, 0.25);
    EXPECT_EQ(points[0].cfg->gang.skew, 0.0);
    // rel_runtime groups restart where axis2 wraps.
    EXPECT_TRUE(points[0].groupStart);
    EXPECT_FALSE(points[1].groupStart);
    EXPECT_TRUE(points[2].groupStart);
    EXPECT_FALSE(points[3].groupStart);
}

TEST(Config, OversizedMeshFailsLoudly)
{
    // net::channelKey packs two NodeIds into 32 bits; a mesh that
    // overflows the 16-bit NodeId space must fail loudly instead of
    // silently aliasing channels.
    detail::setThrowOnError(true);
    glaze::MachineConfig cfg;
    cfg.nodes = 70000; // > 0xffff
    EXPECT_THROW(
        { auto fixed = glaze::Machine::fix(cfg); (void)fixed; },
        SimError);
    detail::setThrowOnError(false);
}

} // namespace
