/**
 * @file
 * BenchMain: the shared driver every bench binary runs under.
 *
 * Replaces the per-bench argv parsing with one uniform CLI:
 *
 *   --scenario=FILE   load a scenario file (repeatable; later files
 *                     override earlier ones)
 *   --set KEY=VALUE   override one parameter (repeatable; CLI beats
 *                     scenario files, which beat built-in defaults)
 *   --json[=PATH]     write the machine-readable BENCH_<name>.json
 *   --trace=FILE      record a message-lifecycle trace
 *   --trials=N        shorthand for --set harness.trials=N
 *   --threads=N       worker threads (sets FUGU_THREADS)
 *   --list-params     print every parameter (value, doc, units); exit
 *   --dump-config     print the effective post-fix tree; exit
 *   --dump-config=F   write the effective tree to F and keep running,
 *                     so one invocation yields both results and a
 *                     replayable scenario ("--scenario F" reproduces
 *                     the run bit-identically)
 *
 * A bench supplies programmatic defaults (applied before the tree so
 * scenario files and --set can override them), bench-local parameter
 * registrations (sweep axes etc.), and a body.
 */

#ifndef FUGU_HARNESS_BENCHMAIN_HH
#define FUGU_HARNESS_BENCHMAIN_HH

#include <functional>
#include <string>

#include "harness/benchjson.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"

namespace fugu::harness
{

/** Everything a bench body needs, fully resolved. */
struct BenchContext
{
    explicit BenchContext(std::string name)
        : report(std::move(name))
    {
    }

    /** The raw parameter tree (for explicitlySet queries). */
    sim::Config tree;

    /** Effective machine config (post Machine::fix). */
    glaze::MachineConfig machine;

    /** Effective gang-scheduler config. */
    glaze::GangConfig gang;

    /** Workload set with effective app configs. */
    Workloads workloads;

    /** harness.trials: trials averaged per data point. */
    unsigned trials = 3;

    /** harness.max_cycles: per-run budget before "STUCK". */
    Cycle maxCycles = 100000000000ull;

    /** --trace output path ("" = tracing off). */
    std::string tracePath;

    /** --json report (disabled unless the flag was given). */
    BenchReport report;
};

struct BenchSpec
{
    /** Bench name (report file BENCH_<name>.json). */
    std::string name;

    /** Adjust programmatic defaults before the tree is applied. */
    std::function<void(BenchContext &)> defaults;

    /** Register bench-local parameters (sweep axes etc.). */
    std::function<void(sim::Binder &)> params;

    /** The bench body. @return the process exit code. */
    std::function<int(BenchContext &)> body;
};

/** Run a bench under the shared driver. @return process exit code. */
int benchMain(const BenchSpec &spec, int argc, char **argv);

/** Bind machine, gang, workloads, harness.* and @p spec's section. */
void bindAll(sim::Binder &b, BenchContext &ctx, const BenchSpec &spec);

/**
 * Resolve ctx.tree into @p ctx as benchMain does before the body:
 * bindAll, reject unknown keys, env fallbacks, Machine::fix. A
 * non-null @p listing gets the --list-params table. @return false
 * with @p err naming the offending file:line.
 */
bool applyTree(const BenchSpec &spec, BenchContext &ctx,
               std::string *err, std::string *listing = nullptr);

/**
 * Check a grid list before any run: the list @p key of ctx.tree must
 * be non-empty, and @p known, if given, must accept every element
 * (@p what names one in the message, e.g. "workload"). A key left at
 * its default passes. @return false with @p err naming the key's
 * file:line, or its --set.
 */
bool checkList(
    const BenchContext &ctx, const std::string &key, std::string *err,
    const std::string &what = "",
    const std::function<bool(const std::string &)> &known = nullptr);

} // namespace fugu::harness

#endif // FUGU_HARNESS_BENCHMAIN_HH
