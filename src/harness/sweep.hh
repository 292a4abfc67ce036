/**
 * @file
 * The [sweep] scenario section behind bench_sweep: which workloads
 * run, standalone or against the null app, over up to two axes.
 *
 *   [sweep]
 *   name = fig9_synth_interval      # report file BENCH_<name>.json
 *   workloads = synth
 *   with_null = true
 *   axis1 = apps.synth.n: 10, 100, 1000 / apps.synth.groups: 400, 40, 4
 *   axis2 = apps.synth.t_between: 250, 500, 1000
 *
 * An axis is `key: values` terms joined by '/' that step together,
 * over any registered keys but sweep.*; axis1 is the outer loop.
 *
 * A non-empty `adversaries` list (null, hog, abuser, squatter, covert)
 * runs every cell through runAgainst instead, once per adversary as
 * the innermost loop; it needs with_null = true and one trial.
 */

#ifndef FUGU_HARNESS_SWEEP_HH
#define FUGU_HARNESS_SWEEP_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/benchmain.hh"

namespace fugu::harness
{

/** The [sweep] section's keys. */
struct SweepConfig
{
    std::string name = "sweep";
    std::string workloads = "barnes, water, lu, barrier, enum";
    bool withNull = true;
    std::string adversaries; ///< empty: no tenant run kind
    std::string axis1;
    std::string axis2;

    /** Register sweep.* on @p b. */
    void bind(sim::Binder &b);
};

/** One grid point. */
struct SweepPoint
{
    std::unique_ptr<BenchContext> cfg; ///< its resolved configs

    /** (key, effective value) of every axis term, axis1's first. */
    std::vector<std::pair<std::string, std::string>> axes;

    bool groupStart; ///< the last axis is at its first value here
};

/**
 * Expand sweep.axis1 x sweep.axis2 of ctx.tree into grid points. Each
 * point is ctx.tree plus its axis values, applied by applyTree just as
 * --set values are. These fail here, before any run, naming the
 * file:line or --set at fault: a malformed axis, an unknown or
 * sweep.* key, a value of the wrong type, a --set of a key an axis
 * steps, an empty sweep.workloads or an unknown name in it or in
 * sweep.adversaries, and adversaries with with_null = false or
 * harness.trials other than 1.
 */
bool expandSweep(const SweepConfig &sweep, const BenchSpec &spec,
                 const BenchContext &ctx, std::vector<SweepPoint> *out,
                 std::string *err);

} // namespace fugu::harness

#endif // FUGU_HARNESS_SWEEP_HH
