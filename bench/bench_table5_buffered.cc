/**
 * @file
 * Reproduces Table 5: overheads of the virtual buffering path —
 * minimum buffer-insert handler cost, maximum (with demand page
 * allocation), and the cost of executing a null handler from the
 * software buffer.
 *
 * Method: the machine runs in always-buffered mode (every message
 * diverts), the receiver holds an atomic section so drain is deferred
 * and inserts can be counted in isolation, and costs are read as
 * kernel-cycle deltas on the receiving node across runs with 1 and
 * with kBurst (10) messages. The burst's messages arrive kSpacing
 * cycles apart, past the longest insert, so each takes a mismatch
 * interrupt of its own and every insert includes its handler's entry,
 * as the paper's per-invocation costs do.
 */

#include <cstdio>

#include "apps/common.hh"
#include "harness/benchmain.hh"

using namespace fugu;
using namespace fugu::glaze;
using namespace fugu::harness;
using exec::CoTask;

namespace
{

/**
 * Messages in the many-message run: the first pays the demand page
 * allocation (vmalloc), the remaining kBurst-1 isolate the minimum
 * insert cost.
 */
constexpr int kBurst = 10;

/**
 * Cycles between the burst's sends: more than the 3,162-cycle insert
 * with vmalloc, so no message arrives while the previous one's
 * interrupt still runs and drains it too.
 */
constexpr Cycle kSpacing = 4000;

/** The receiver's atomic section, which outlasts the whole burst. */
constexpr Cycle kHold = 60000;
static_assert(2000 + kBurst * kSpacing < kHold);

struct BufferedRun
{
    double kernelCycles = 0;  ///< receiver-node kernel busy cycles
    double handlerMean = 0;   ///< mean wall cycles per drain handler
    double inserts = 0;
};

CoTask<void>
gatedReceiver(Process &p, int expect, int *received)
{
    rt::CondVar cv(p.threads());
    rt::CondVar *cvp = &cv;
    p.port().setHandler(
        0,
        [received, cvp](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await port.dispose();
            ++*received;
            cvp->notifyAll();
        });
    // Hold an atomic section so buffered handling is deferred and the
    // messages pile into the software buffer.
    co_await p.port().beginAtomic();
    co_await p.compute(kHold);
    co_await p.port().endAtomic();
    while (*received < expect)
        co_await cv.wait();
}

CoTask<void>
burstSender(Process &p, int count)
{
    co_await p.compute(2000); // let the receiver enter its section
    for (int i = 0; i < count; ++i) {
        co_await p.port().send(1, 0);
        co_await p.compute(kSpacing);
    }
}

BufferedRun
run(const MachineConfig &base, int messages,
    const std::string &trace_path = "")
{
    MachineConfig cfg = base;
    cfg.alwaysBuffered = true;
    cfg.trace.enabled = !trace_path.empty();
    Machine m(cfg);
    int received = 0;
    Job *job = m.addJob(
        "t5", [messages, &received](Process &p) -> CoTask<void> {
            if (p.node() == 1)
                return gatedReceiver(p, messages, &received);
            return burstSender(p, messages);
        });
    m.installJob(job);
    fugu_assert(m.runUntilDone(job, 100000000ull), "t5 run stuck");
    writeTrace(m, trace_path);
    BufferedRun out;
    out.kernelCycles = m.node(1).cpu.stats.kernelCycles.value();
    out.handlerMean = job->procs[1]->stats.handlerCycles.mean();
    out.inserts = m.node(1).kernel.stats.bufferInserts.value();
    fugu_assert(out.inserts == messages, "expected ", messages,
                " inserts, saw ", out.inserts);
    return out;
}

void
printTable(BenchReport &report, const MachineConfig &base,
           const std::string &trace_path)
{
    const BufferedRun one = run(base, 1);
    // The traced run is the buffered-path exemplar: every message
    // diverts into the software buffer and drains from it.
    const BufferedRun many = run(base, kBurst, trace_path);
    const double insert_max = one.kernelCycles;
    const double insert_min =
        (many.kernelCycles - one.kernelCycles) / (kBurst - 1);
    const double from_buffer = many.handlerMean;

    TablePrinter t({"Item", "measured", "paper"}, {40, 10, 8});
    std::printf("Table 5: software buffer overheads (cycles)\n");
    t.printHeader();
    t.printRow({"Minimum buffer-insert handler",
                TablePrinter::num(insert_min), "180"});
    t.printRow({"Maximum handler (w/ vmalloc)",
                TablePrinter::num(insert_max), "3162"});
    t.printRow({"Execute null handler from buffer",
                TablePrinter::num(from_buffer), "52"});
    t.printRow({"Total per message (min + handler)",
                TablePrinter::num(insert_min + from_buffer), "232"});

    report.meta("units", "simulated cycles");
    report.row({{"item", "min_buffer_insert"},
                {"measured", insert_min},
                {"paper", 180u}});
    report.row({{"item", "max_handler_vmalloc"},
                {"measured", insert_max},
                {"paper", 3162u}});
    report.row({{"item", "execute_from_buffer"},
                {"measured", from_buffer},
                {"paper", 52u}});
    report.row({{"item", "total_per_message"},
                {"measured", insert_min + from_buffer},
                {"paper", 232u}});
}

} // namespace

int
main(int argc, char **argv)
{
    BenchSpec spec;
    spec.name = "table5_buffered";
    spec.defaults = [](BenchContext &ctx) { ctx.machine.nodes = 2; };
    spec.body = [](BenchContext &ctx) {
        printTable(ctx.report, ctx.machine, ctx.tracePath);
        return 0;
    };
    return benchMain(spec, argc, argv);
}
