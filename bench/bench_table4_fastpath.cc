/**
 * @file
 * Reproduces Table 4: cycle counts to send and receive a null message
 * at kernel level (unprotected), with hardware atomicity, and with
 * software-emulated atomicity; interrupt and polling receive paths.
 *
 * Method: a two-node machine; the receiver's thread is parked so the
 * entire receive path is the only activity on its Cpu, and the cost is
 * read as the node's busy (user+kernel) cycle delta. All costs emerge
 * from the modelled code paths (core::CostModel), so this bench also
 * verifies that the implementation charges exactly the paper's
 * per-stage structure (and --set costs.* moves the measured numbers).
 */

#include <cstdio>

#include "apps/common.hh"
#include "harness/benchmain.hh"
#include "trace/export.hh"

using namespace fugu;
using namespace fugu::glaze;
using namespace fugu::harness;
using exec::CoTask;

namespace
{

struct PathCosts
{
    double send = 0;
    double recvInterrupt = 0;
    double recvPoll = 0;
};

double
busy(Machine &m, NodeId n)
{
    return m.node(n).cpu.stats.userCycles.value() +
           m.node(n).cpu.stats.kernelCycles.value();
}

CoTask<void>
parkedReceiver(Process &p)
{
    p.port().setHandler(
        0, [](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await port.dispose();
        });
    rt::CondVar cv(p.threads());
    co_await cv.wait(); // parked forever
}

CoTask<void>
oneUserSend(Process &p, double *send_cost)
{
    const double before = p.cpu().userCycles();
    co_await p.port().send(1, 0);
    *send_cost = p.cpu().userCycles() - before;
}

exec::Task
oneKernelSend(Kernel *k, double *send_cost)
{
    const double before = k->cpu().stats.kernelCycles.value();
    co_await k->kernelSend(1, kOsNull);
    *send_cost = k->cpu().stats.kernelCycles.value() - before;
}

/** Interrupt-path costs for user messages (Hard/Soft atomicity). */
PathCosts
measureUser(const MachineConfig &base, core::AtomicityMode mode,
            const std::string &trace_path = "")
{
    MachineConfig cfg = base;
    cfg.atomicity = mode;
    cfg.trace.enabled = !trace_path.empty();
    Machine m(cfg);
    PathCosts out;
    Job *job = m.addJob("t4", [&out](Process &p) -> CoTask<void> {
        if (p.node() == 1)
            return parkedReceiver(p);
        return [](Process &) -> CoTask<void> { co_return; }(p);
    });
    m.installJob(job);
    m.run(); // settle: receiver registered and parked

    // One null-message send, measured on the sender.
    job->procs[0]->threads().spawn(
        "send", rt::kPrioNormal,
        [](Process *p, double *cost) -> exec::Task {
            co_await oneUserSend(*p, cost);
        }(job->procs[0], &out.send));
    const double rx_before = busy(m, 1);
    m.run();
    out.recvInterrupt = busy(m, 1) - rx_before;
    if (!trace_path.empty()) {
        std::string err;
        if (!trace::writeTraceFiles(trace_path, m.tracer()->buffer(),
                                    &err))
            std::fprintf(stderr, "trace write failed: %s\n",
                         err.c_str());
    }
    return out;
}

CoTask<void>
pollingReceiver(Process &p, double *poll_cost, bool *got)
{
    p.port().setHandler(
        0, [](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await port.dispose();
        });
    co_await p.port().beginAtomic();
    // Let the message arrive and sit at the head (interrupts are
    // disabled), then measure one successful poll.
    while (!p.port().messageAvailable())
        co_await p.compute(100);
    const double before = p.cpu().userCycles();
    const bool ok = co_await p.port().poll();
    *poll_cost = p.cpu().userCycles() - before;
    *got = ok;
    co_await p.port().endAtomic();
}

double
measurePolling(const MachineConfig &base, std::uint64_t polling_timeout)
{
    MachineConfig cfg = base;
    cfg.ni.atomicityTimeout =
        polling_timeout; // keep revocation out of frame
    Machine m(cfg);
    double poll_cost = 0;
    bool got = false;
    Job *job = m.addJob("t4p", [&](Process &p) -> CoTask<void> {
        if (p.node() == 1)
            return pollingReceiver(p, &poll_cost, &got);
        return [](Process &pp) -> CoTask<void> {
            co_await pp.port().send(1, 0);
        }(p);
    });
    m.installJob(job);
    m.run();
    fugu_assert(got, "polling bench never received");
    return poll_cost;
}

/** Kernel-to-kernel messaging (Table 4, first column). */
PathCosts
measureKernel(const MachineConfig &base)
{
    MachineConfig cfg = base;
    cfg.atomicity = core::AtomicityMode::Kernel;
    Machine m(cfg);
    PathCosts out;
    m.run();
    const double rx_before = busy(m, 1);
    auto sender = m.node(0).cpu.spawn(
        "ksend", /*kernel=*/true,
        oneKernelSend(&m.node(0).kernel, &out.send));
    m.node(0).cpu.switchTo(sender);
    m.run();
    out.recvInterrupt = busy(m, 1) - rx_before;
    return out;
}

void
printTable(BenchReport &report, const MachineConfig &base,
           const std::string &trace_path, std::uint64_t polling_timeout)
{
    const PathCosts kernel = measureKernel(base);
    // The traced run is the fast-path exemplar: one send, one
    // interrupt receive, hardware atomicity.
    const PathCosts hard =
        measureUser(base, core::AtomicityMode::Hard, trace_path);
    const PathCosts soft = measureUser(base, core::AtomicityMode::Soft);
    const double poll = measurePolling(base, polling_timeout);

    TablePrinter t({"Item", "kernel", "hard atom", "soft atom",
                    "paper(k/h/s)"},
                   {28, 10, 10, 10, 14});
    std::printf("Table 4: cycles to send and receive a null message\n");
    t.printHeader();
    t.printRow({"send total", TablePrinter::num(kernel.send),
                TablePrinter::num(hard.send),
                TablePrinter::num(soft.send), "7/7/7"});
    t.printRow({"interrupt receive total",
                TablePrinter::num(kernel.recvInterrupt),
                TablePrinter::num(hard.recvInterrupt),
                TablePrinter::num(soft.recvInterrupt), "54/87/115"});
    t.printRow({"polling receive total", "n.a.",
                TablePrinter::num(poll), "n.a.", "9/9/-"});

    report.meta("units", "simulated cycles");
    report.row({{"item", "send_total"},
                {"kernel", kernel.send},
                {"hard_atomicity", hard.send},
                {"soft_atomicity", soft.send}});
    report.row({{"item", "interrupt_receive_total"},
                {"kernel", kernel.recvInterrupt},
                {"hard_atomicity", hard.recvInterrupt},
                {"soft_atomicity", soft.recvInterrupt}});
    report.row({{"item", "polling_receive_total"},
                {"hard_atomicity", poll}});
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t pollingTimeout = 1u << 20;

    BenchSpec spec;
    spec.name = "table4_fastpath";
    spec.defaults = [](BenchContext &ctx) { ctx.machine.nodes = 2; };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("table4");
        b.item("polling_timeout", pollingTimeout,
               "atomicity timeout for the polling measurement (large "
               "enough to keep revocation out of frame)",
               "cycles");
    };
    spec.body = [&](BenchContext &ctx) {
        printTable(ctx.report, ctx.machine, ctx.tracePath,
                   pollingTimeout);
        return 0;
    };
    return benchMain(spec, argc, argv);
}
