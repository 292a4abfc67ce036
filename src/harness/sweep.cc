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

bool
parseAxis(const sim::ConfigAssignment &decl, Axis *axis,
          std::string *err)
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
    b.item("axis1", axis1, "outer axis: 'key: v, v' terms joined by /");
    b.item("axis2", axis2, "inner axis; rel_runtime is relative to it");
}

bool
expandSweep(const BenchSpec &spec, const BenchContext &ctx,
            std::vector<SweepPoint> *out, std::string *err)
{
    if (!checkList(ctx, "sweep.workloads", err, "workload",
                   [&](const std::string &name) {
                       return bool(ctx.workloads.find(name));
                   }))
        return false;

    std::vector<Axis> axes;
    std::size_t npoints = 1;
    for (const char *key : {"sweep.axis1", "sweep.axis2"}) {
        const sim::ConfigAssignment *decl = ctx.tree.find(key);
        if (!decl || splitConfigList(decl->value, '/').empty())
            continue;
        axes.emplace_back();
        if (!parseAxis(*decl, &axes.back(), err))
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
