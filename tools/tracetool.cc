/**
 * @file
 * tracetool: offline analysis of fugutrace binary trace files.
 *
 *   tracetool summarize FILE   per-type event counts, buffered-entry
 *                              cause attribution, latency percentiles
 *                              and per-channel peak occupancy
 *   tracetool diff A B         side-by-side summary of two traces
 *
 * Exit status: 0 on success, 1 on a malformed trace or bad usage, so
 * CI can use `summarize` as a round-trip check. An empty (but well
 * formed) trace is not an error: a run may legitimately record zero
 * events, and every degenerate section prints `n/a` instead.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "trace/export.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: tracetool summarize FILE\n"
                 "       tracetool diff A B\n";
    return 1;
}

bool
load(const std::string &path, std::vector<fugu::trace::TraceEvent> &ev)
{
    std::string err;
    if (!fugu::trace::readBinaryFile(path, ev, &err)) {
        std::cerr << "tracetool: " << path << ": " << err << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fugu::trace;

    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "summarize") {
        if (argc != 3)
            return usage();
        std::vector<TraceEvent> ev;
        if (!load(argv[2], ev))
            return 1;
        std::cout << argv[2] << ":\n";
        printSummary(std::cout, summarize(ev));
        return 0;
    }

    if (cmd == "diff") {
        if (argc != 4)
            return usage();
        std::vector<TraceEvent> a, b;
        if (!load(argv[2], a) || !load(argv[3], b))
            return 1;
        std::cout << "A = " << argv[2] << "\nB = " << argv[3] << "\n";
        printDiff(std::cout, summarize(a), summarize(b));
        return 0;
    }

    return usage();
}
