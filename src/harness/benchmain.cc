#include "harness/benchmain.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace fugu::harness
{

namespace
{

void
usage(const std::string &name)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --scenario=FILE   load a scenario file (repeatable)\n"
        "  --set KEY=VALUE   override one parameter (repeatable)\n"
        "  --json[=PATH]     write BENCH_%s.json (or PATH)\n"
        "  --trace=FILE      record a message-lifecycle trace\n"
        "  --trials=N        shorthand for --set harness.trials=N\n"
        "  --threads=N       worker threads (sets FUGU_THREADS)\n"
        "  --list-params     print every parameter and exit\n"
        "  --dump-config[=F] print (or write) the effective config;\n"
        "                    with =F the bench still runs, so F replays\n"
        "                    this run via --scenario=F\n",
        name.c_str(), name.c_str());
}

} // namespace

void
bindAll(sim::Binder &b, BenchContext &ctx, const BenchSpec &spec)
{
    glaze::bindConfig(b, ctx.machine);
    glaze::bindConfig(b, ctx.gang);
    ctx.workloads.bind(b);
    {
        auto s = b.push("harness");
        b.item("trials", ctx.trials,
               "trials (differing only in seed) averaged per data "
               "point");
        b.item("max_cycles", ctx.maxCycles,
               "per-run cycle budget before a run is declared "
               "stuck",
               "cycles");
    }
    if (spec.params)
        spec.params(b);
}

bool
applyTree(const BenchSpec &spec, BenchContext &ctx, std::string *err,
          std::string *listing)
{
    sim::Binder apply(ctx.tree, sim::Binder::Mode::Apply);
    bindAll(apply, ctx, spec);
    if (!apply.ok()) {
        *err = apply.error();
        return false;
    }
    if (!ctx.tree.checkUnknown(err)) {
        *err += " (see --list-params)";
        return false;
    }
    if (listing)
        *listing = apply.listText();

    ctx.workloads.resolvePaperScale(ctx.tree);

    ctx.machine = glaze::Machine::fix(ctx.machine);
    return true;
}

int
benchMain(const BenchSpec &spec, int argc, char **argv)
{
    BenchContext ctx(spec.name);
    if (spec.defaults)
        spec.defaults(ctx);

    // ---- CLI --------------------------------------------------------
    bool wantJson = false, listParams = false, dumpConfig = false;
    std::string jsonPath, dumpPath;
    std::string err;

    auto fail = [&](const std::string &msg) {
        std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                     msg.c_str());
        return 2;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        // "--flag=VALUE" or "--flag VALUE"; empty VALUE means the
        // flag was given bare.
        auto arg = [&](const char *flag, std::string *val) {
            const std::string f(flag);
            if (a == f) {
                if (val && i + 1 < argc && argv[i + 1][0] != '-')
                    *val = argv[++i];
                return true;
            }
            if (val && a.rfind(f + "=", 0) == 0) {
                *val = a.substr(f.size() + 1);
                return true;
            }
            return false;
        };

        std::string v;
        if (arg("--scenario", &v)) {
            if (v.empty())
                return fail("--scenario needs a file path");
            if (!ctx.tree.loadFile(v, &err))
                return fail(err);
        } else if (arg("--set", &v)) {
            if (!ctx.tree.setCli(v, &err))
                return fail(err);
        } else if (a == "--json" || a.rfind("--json=", 0) == 0) {
            // '='-form only: a bare --json must not swallow the next
            // argument (the default BENCH_<name>.json path is used).
            wantJson = true;
            if (a.size() > 7)
                jsonPath = a.substr(7);
        } else if (arg("--trace", &v)) {
            if (v.empty())
                return fail("--trace needs a file path");
            ctx.tracePath = v;
        } else if (arg("--trials", &v)) {
            if (v.empty())
                return fail("--trials needs a count");
            if (!ctx.tree.setCli("harness.trials=" + v, &err))
                return fail(err);
        } else if (arg("--threads", &v)) {
            if (v.empty())
                return fail("--threads needs a count");
            ::setenv("FUGU_THREADS", v.c_str(), 1);
        } else if (arg("--dump-config", &v)) {
            dumpConfig = true;
            dumpPath = v;
        } else if (arg("--list-params", nullptr)) {
            listParams = true;
        } else if (arg("--help", nullptr) || a == "-h") {
            usage(spec.name);
            return 0;
        } else {
            usage(spec.name);
            return fail("unknown argument '" + a + "'");
        }
    }

    // ---- Bind + apply the tree -------------------------------------
    std::string listing;
    if (!applyTree(spec, ctx, &err, listParams ? &listing : nullptr))
        return fail(err);
    if (listParams) {
        std::fputs(listing.c_str(), stdout);
        return 0;
    }

    // ---- Effective-config dump -------------------------------------
    if (dumpConfig) {
        sim::Binder dump(ctx.tree, sim::Binder::Mode::Dump);
        bindAll(dump, ctx, spec);
        if (dumpPath.empty()) {
            std::fputs(dump.dumpText().c_str(), stdout);
            return 0;
        }
        std::ofstream os(dumpPath);
        if (!os)
            return fail("cannot write config dump to '" + dumpPath +
                        "'");
        os << dump.dumpText();
    }

    if (wantJson)
        ctx.report.enable(jsonPath);

    return spec.body ? spec.body(ctx) : 0;
}

} // namespace fugu::harness
