#include "harness/sweep.hh"

namespace fugu::harness
{

namespace
{

using sim::splitConfigList;

/** One `key: values` term of an axis. */
struct Term
{
    std::string key;
    std::vector<std::string> values;
};

struct Axis
{
    const sim::ConfigAssignment *decl; ///< the sweep.axisN assignment
    std::vector<Term> terms;

    std::size_t size() const { return terms.front().values.size(); }
};

/**
 * The list @p key of ctx.tree must be non-empty, and @p known must
 * accept every element (@p what names one in the message). A key left
 * at its default passes. @return false with @p err naming the key's
 * file:line, or its --set.
 */
bool
checkList(const BenchContext &ctx, const std::string &key,
          const std::string &what,
          const std::function<bool(const std::string &)> &known,
          std::string *err)
{
    const sim::ConfigAssignment *decl = ctx.tree.find(key);
    if (!decl)
        return true;
    const auto names = splitConfigList(decl->value);
    if (names.empty()) {
        *err = decl->where() + ": " + key + " is empty";
        return false;
    }
    for (const std::string &name : names) {
        if (!known(name)) {
            *err = decl->where() + ": unknown " + what + " '" + name +
                   "' in " + key;
            return false;
        }
    }
    return true;
}

bool
parseAxis(const sim::Config &tree, const sim::ConfigAssignment &decl,
          Axis *axis, std::string *err)
{
    axis->decl = &decl;
    for (const std::string &text : splitConfigList(decl.value, '/')) {
        const auto kv = splitConfigList(text, ':');
        Term t;
        if (kv.size() == 2)
            t = {kv[0], splitConfigList(kv[1])};
        if (t.key.empty() || t.values.empty() ||
            (!axis->terms.empty() && t.values.size() != axis->size())) {
            *err = decl.where() + ": " + decl.key +
                   " expects 'key: v, v, ...' terms joined by '/', "
                   "each with as many values, got '" +
                   decl.value + "'";
            return false;
        }
        // Every grid point binds the one [sweep] section, so a
        // sweep.* term would silently take its last value everywhere.
        if (t.key.rfind("sweep.", 0) == 0) {
            *err = decl.where() + ": " + decl.key + " cannot step '" +
                   t.key + "': every grid point shares one [sweep]";
            return false;
        }
        // The axis would silently override the --set at every point.
        const sim::ConfigAssignment *set = tree.find(t.key);
        if (set && set->source == sim::ConfigSource::Cli) {
            *err = set->where() + ": " + t.key + " is stepped by " +
                   decl.key + " at " + decl.where() +
                   "; narrow " + decl.key + " instead";
            return false;
        }
        axis->terms.push_back(std::move(t));
    }
    return true;
}

} // namespace

void
SweepConfig::bind(sim::Binder &b)
{
    auto s = b.push("sweep");
    b.item("name", name, "report name (writes BENCH_<name>.json)");
    b.item("workloads", workloads, "comma-separated workloads to run");
    b.item("with_null", withNull, "gang-schedule each against null");
    b.item("adversaries", adversaries,
           "innermost loop: run each cell against these tenants (null, "
           "hog, abuser, squatter, covert)");
    b.item("axis1", axis1, "outer axis: 'key: v, v' terms joined by /");
    b.item("axis2", axis2, "inner axis; rel_runtime is relative to it");
}

bool
expandSweep(const SweepConfig &sweep, const BenchSpec &spec,
            const BenchContext &ctx, std::vector<SweepPoint> *out,
            std::string *err)
{
    if (!checkList(ctx, "sweep.workloads", "workload",
                   [&](const std::string &name) {
                       return bool(ctx.workloads.find(name));
                   },
                   err))
        return false;
    if (!splitConfigList(sweep.adversaries).empty()) {
        if (!checkList(ctx, "sweep.adversaries", "adversary",
                       isAdversary, err))
            return false;
        // runTenants always gang-schedules and reports one run's
        // per-GID p99, which trials cannot average.
        const sim::ConfigAssignment &decl =
            *ctx.tree.find("sweep.adversaries");
        auto where = [&](const char *key) {
            const sim::ConfigAssignment *a = ctx.tree.find(key);
            return a ? a->where() : std::string("the default");
        };
        if (!sweep.withNull) {
            *err = decl.where() + ": sweep.adversaries needs " +
                   "sweep.with_null = true, not false (" +
                   where("sweep.with_null") + ")";
            return false;
        }
        if (ctx.trials != 1) {
            *err = decl.where() + ": sweep.adversaries needs " +
                   "harness.trials = 1, not " +
                   std::to_string(ctx.trials) + " (" +
                   where("harness.trials") + ")";
            return false;
        }
    }

    std::vector<Axis> axes;
    std::size_t npoints = 1;
    for (const char *key : {"sweep.axis1", "sweep.axis2"}) {
        const sim::ConfigAssignment *decl = ctx.tree.find(key);
        if (!decl || splitConfigList(decl->value, '/').empty())
            continue;
        axes.emplace_back();
        if (!parseAxis(ctx.tree, *decl, &axes.back(), err))
            return false;
        npoints *= axes.back().size();
    }
    const std::size_t inner = axes.empty() ? 1 : axes.back().size();

    out->clear();
    for (std::size_t i = 0; i < npoints; ++i) {
        SweepPoint p{std::make_unique<BenchContext>(spec.name), {},
                     i % inner == 0};
        BenchContext &pc = *p.cfg;
        pc.tree = ctx.tree;
        // Mixed-radix digits of i, axis1 most significant.
        std::size_t stride = npoints;
        for (const Axis &a : axes) {
            stride /= a.size();
            for (const Term &t : a.terms)
                pc.tree.setPoint(*a.decl, t.key,
                                 t.values[i / stride % a.size()]);
        }
        if (!applyTree(spec, pc, err))
            return false;

        sim::Binder dump(pc.tree, sim::Binder::Mode::Dump);
        bindAll(dump, pc, spec);
        for (const Axis &a : axes)
            for (const Term &t : a.terms)
                for (const auto &param : dump.params())
                    if (param.key == t.key)
                        p.axes.emplace_back(t.key, param.value);
        out->push_back(std::move(p));
    }
    return true;
}

} // namespace fugu::harness
