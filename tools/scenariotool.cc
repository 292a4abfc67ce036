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

#include "harness/benchmain.hh"

using namespace fugu;

namespace
{

/** Sections owned by the shared registry (everything else is
 *  bench-local). */
const std::vector<std::string> kSharedSections{
    "machine", "net",  "osnet",     "ni",   "costs",   "trace",
    "gang",    "workloads", "apps", "harness", "serve", "arrival"};

/** One Apply walk of @p tree over benchMain's shared registry. */
bool
bindShared(sim::Config &tree, std::string *listing = nullptr)
{
    sim::Binder b(tree, sim::Binder::Mode::Apply);
    harness::BenchContext ctx("scenariotool");
    harness::bindAll(b, ctx, harness::BenchSpec{});
    if (!b.ok()) {
        std::fprintf(stderr, "%s\n", b.error().c_str());
        return false;
    }
    if (listing)
        *listing = b.listText();
    return true;
}

int
cmdParams()
{
    sim::Config tree;
    std::string listing;
    if (!bindShared(tree, &listing))
        return 1;
    std::fputs(listing.c_str(), stdout);
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
        if (!bindShared(tree)) {
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
