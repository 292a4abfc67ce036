/**
 * @file
 * Scenario-file tooling for CI and editors:
 *
 *   scenariotool params          print the shared parameter registry
 *   scenariotool check FILE...   parse each scenario and validate
 *                                every key against the shared
 *                                registry (machine/net/ni/costs/...)
 *
 * `check` accepts bench-local sections (sweep.*, abl.*, table4.*, ...)
 * without validating them — only the bench that owns a section knows
 * its keys; the CI scenario-smoke job covers those by running the
 * bench itself.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "serve/serve.hh"
#include "sim/arrival.hh"
#include "sim/config.hh"

using namespace fugu;

namespace
{

/** Sections owned by the shared registry (everything else is
 *  bench-local). */
const std::vector<std::string> kSharedSections{
    "machine", "net",  "osnet",     "ni",   "costs",   "trace",
    "gang",    "workloads", "apps", "harness", "serve", "arrival"};

/** One Apply walk over default-constructed shared config structs. */
void
bindShared(sim::Binder &b, glaze::MachineConfig &machine,
           glaze::GangConfig &gang, harness::Workloads &wl,
           serve::ServeConfig &serve_cfg, sim::ArrivalConfig &arrival,
           unsigned &trials, Cycle &max_cycles)
{
    glaze::bindConfig(b, machine);
    glaze::bindConfig(b, gang);
    wl.bind(b);
    {
        auto s = b.push("serve");
        serve::bindConfig(b, serve_cfg);
    }
    {
        auto s = b.push("arrival");
        sim::bindConfig(b, arrival);
    }
    auto s = b.push("harness");
    b.item("trials", trials,
           "trials (differing only in seed) averaged per data point");
    b.item("max_cycles", max_cycles,
           "per-run cycle budget before a run is declared stuck",
           "cycles");
}

int
cmdParams()
{
    sim::Config tree;
    sim::Binder b(tree, sim::Binder::Mode::Apply);
    glaze::MachineConfig machine;
    glaze::GangConfig gang;
    harness::Workloads wl;
    serve::ServeConfig serve_cfg;
    sim::ArrivalConfig arrival;
    unsigned trials = 3;
    Cycle max_cycles = 100000000000ull;
    bindShared(b, machine, gang, wl, serve_cfg, arrival, trials,
               max_cycles);
    if (!b.ok()) {
        std::fprintf(stderr, "%s\n", b.error().c_str());
        return 1;
    }
    std::fputs(b.listText().c_str(), stdout);
    return 0;
}

int
cmdCheck(const std::vector<std::string> &files)
{
    int rc = 0;
    for (const std::string &path : files) {
        sim::Config tree;
        std::string err;
        if (!tree.loadFile(path, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            rc = 1;
            continue;
        }
        sim::Binder b(tree, sim::Binder::Mode::Apply);
        glaze::MachineConfig machine;
        glaze::GangConfig gang;
        harness::Workloads wl;
        serve::ServeConfig serve_cfg;
        sim::ArrivalConfig arrival;
        unsigned trials = 3;
        Cycle max_cycles = 100000000000ull;
        bindShared(b, machine, gang, wl, serve_cfg, arrival, trials,
                   max_cycles);
        if (!b.ok()) {
            std::fprintf(stderr, "%s\n", b.error().c_str());
            rc = 1;
            continue;
        }
        std::vector<std::string> skipped;
        if (!tree.checkUnknownIn(kSharedSections, &err, &skipped)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            rc = 1;
            continue;
        }
        if (skipped.empty()) {
            std::printf("%s: ok\n", path.c_str());
        } else {
            std::string list;
            for (const std::string &k : skipped)
                list += (list.empty() ? "" : ", ") + k;
            std::printf("%s: ok (bench-local, not validated: %s)\n",
                        path.c_str(), list.c_str());
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "params" && argc == 2)
        return cmdParams();
    if (cmd == "check" && argc > 2) {
        std::vector<std::string> files(argv + 2, argv + argc);
        return cmdCheck(files);
    }
    std::fprintf(stderr,
                 "usage: scenariotool params\n"
                 "       scenariotool check FILE...\n");
    return 2;
}
