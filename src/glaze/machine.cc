#include "glaze/machine.hh"

#include <cmath>

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::glaze
{

void
bindConfig(sim::Binder &b, MachineConfig &c)
{
    {
        auto s = b.push("machine");
        b.item("nodes", c.nodes, "number of nodes (processors)");
        b.enumItem("atomicity", c.atomicity,
                   {{"kernel", core::AtomicityMode::Kernel},
                    {"hard", core::AtomicityMode::Hard},
                    {"soft", core::AtomicityMode::Soft}},
                   "receive-path atomicity implementation (Table 4)");
        b.item("frames_per_node", c.framesPerNode,
               "physical page frames per node", "pages");
        b.item("always_buffered", c.alwaysBuffered,
               "ablation: deliver every message via the buffered path");
        b.item("pinned_buffer_pages", c.pinnedBufferPages,
               "ablation: frames pinned per process at creation",
               "pages");
        b.item("seed", c.seed, "base RNG seed");
    }
    {
        auto s = b.push("net");
        net::bindConfig(b, c.net);
    }
    {
        auto s = b.push("osnet");
        net::bindConfig(b, c.osNet);
    }
    {
        auto s = b.push("ni");
        core::bindConfig(b, c.ni);
    }
    {
        auto s = b.push("costs");
        core::bindConfig(b, c.costs);
    }
    {
        auto s = b.push("trace");
        trace::bindConfig(b, c.trace);
    }
    {
        auto s = b.push("fault");
        sim::bindConfig(b, c.fault);
    }
    {
        auto s = b.push("check");
        bindConfig(b, c.check);
    }
}

void
bindConfig(sim::Binder &b, GangConfig &c)
{
    auto s = b.push("gang");
    b.item("quantum", c.quantum, "gang-scheduler timeslice", "cycles");
    b.item("skew", c.skew,
           "schedule-quality knob: per-node quantum offset drawn from "
           "[0, skew*quantum]",
           "fraction");
}

Machine::Node::Node(Machine &m, NodeId id)
    : cpu(m.eq, id, &m.root),
      ni(cpu, m.net, id, m.cfg.ni, &m.root),
      frames(m.cfg.framesPerNode, &m.root, id),
      osnic(cpu, m.osnet, id),
      kernel(m, id)
{
}

MachineConfig
Machine::fix(MachineConfig cfg)
{
    fugu_assert(cfg.nodes >= 1, "machine needs at least one node");
    // NodeId is 16 bits (and kNoNode is reserved): a larger machine
    // would silently alias network channels and wrap per-node loops.
    fugu_assert(cfg.nodes <= kNoNode, "machine of ", cfg.nodes,
                " nodes exceeds the NodeId address space");
    // Size both meshes to cover the node count: prefer a near-square
    // user mesh and a linear OS network.
    auto fit = [&](net::NetworkConfig &n) {
        if (n.meshX * n.meshY >= cfg.nodes && n.meshX > 0 && n.meshY > 0)
            return;
        unsigned x = 1;
        while (x * x < cfg.nodes)
            ++x;
        n.meshX = x;
        n.meshY = (cfg.nodes + x - 1) / x;
    };
    fit(cfg.net);
    fit(cfg.osNet);
    sim::resolveFaultClass(cfg.fault);
    return cfg;
}

Machine::Machine(MachineConfig cfg_in)
    : cfg(fix(std::move(cfg_in))), root("machine"), rng(cfg.seed),
      net(eq, cfg.net, "net_user", &root),
      osnet(eq, cfg.osNet, "net_os", &root)
{
    fugu_assert(cfg.parShards == 1, "parShards=", cfg.parShards,
                ": a machine runs on one event queue");

    if (cfg.trace.enabled)
        tracer_ = std::make_unique<trace::Recorder>(eq, cfg.trace);
    net.setTracer(tracer_.get(), /*os_net=*/false);
    osnet.setTracer(tracer_.get(), /*os_net=*/true);

    for (NodeId n = 0; n < cfg.nodes; ++n) {
        Node &node = nodes.emplace_back(*this, n);
        node.cpu.setTracer(tracer_.get());
        node.ni.setTracer(tracer_.get());
        node.osnic.setTracer(tracer_.get());
    }
    pinnedFrames_.assign(cfg.nodes, 0);

    // The checker watches the user network only: OS-net messages are
    // kernel protocol with no application delivery semantics.
    checker_ = std::make_unique<InvariantChecker>(*this, cfg.check);
    net.setWatcher(checker_.get());
    for (auto &node : nodes)
        node.ni.setWatcher(checker_.get());

    if (cfg.fault.enabled) {
        fault_ = std::make_unique<sim::FaultInjector>(
            eq, cfg.fault, cfg.seed, cfg.nodes, &root);
        fault_->setInputRetry(
            [this](NodeId n) { net.onSinkSpaceFreed(n); });
        // Like the checker, faults hit the user network/NI/frames
        // only — the OS network must stay guaranteed deadlock-free.
        net.setFault(fault_.get());
        for (auto &node : nodes) {
            node.ni.setFault(fault_.get());
            node.frames.setFault(fault_.get());
        }
        for (NodeId n = 0; n < cfg.nodes; ++n)
            scheduleFaultTick(n, 1);
    }

    for (auto &node : nodes)
        node.kernel.init();
}

Machine::~Machine() = default;

namespace
{

exec::Task
jobMain(const EventQueue &eq, Process *p, Job *job, AppBody body)
{
    // Handler registrations in the body's synchronous prologue are
    // visible to the drain the moment this slice yields — so a drain
    // deferred because we had not started yet can be spawned now: at
    // handler priority it first runs at our first suspension point,
    // after the prologue.
    p->mainStarted = true;
    p->kernel()->ensureDrain(p);
    co_await body(*p);
    job->nodeDone(p->node());
    if (job->done())
        job->endCycle = eq.now();
}

} // namespace

Job *
Machine::addJob(std::string name, AppBody body)
{
    const Gid gid = nextGid_++;
    auto job = std::make_unique<Job>(gid, std::move(name), cfg.nodes);
    for (NodeId n = 0; n < cfg.nodes; ++n) {
        auto proc = std::make_unique<Process>(
            nodes[n].cpu, nodes[n].ni, cfg.costs, nodes[n].frames,
            &root, n, gid, job.get());
        nodes[n].kernel.addProcess(proc.get());
        for (unsigned f = 0; f < cfg.pinnedBufferPages; ++f) {
            if (nodes[n].frames.tryAllocate())
                ++pinnedFrames_[n];
            else
                warn("node ", n, ": could not pin buffer page ", f);
        }
        proc->setTracer(tracer_.get());
        proc->setChecker(checker_.get());
        job->procs.push_back(proc.get());
        proc->threads().spawn(job->name() + "-main", rt::kPrioNormal,
                              jobMain(eq, proc.get(), job.get(), body));
        processes.push_back(std::move(proc));
    }
    jobs.push_back(std::move(job));
    return jobs.back().get();
}

void
Machine::installJob(Job *job)
{
    job->startCycle = now();
    for (NodeId n = 0; n < cfg.nodes; ++n)
        nodes[n].kernel.installProcess(job->procs[n]);
}

void
Machine::startGang(GangConfig gcfg)
{
    fugu_assert(!gangRunning_, "gang scheduler started twice");
    fugu_assert(!jobs.empty(), "no jobs to schedule");
    fugu_assert(gcfg.skew >= 0.0 && gcfg.skew <= 1.0, "bad skew");
    gang_ = gcfg;
    gangRunning_ = true;

    gangOffset_.resize(cfg.nodes);
    const Cycle window =
        static_cast<Cycle>(gcfg.skew * static_cast<double>(gcfg.quantum));
    for (NodeId n = 0; n < cfg.nodes; ++n)
        gangOffset_[n] = window ? rng.uniform(0, window) : 0;

    for (auto &j : jobs)
        j->startCycle = now();

    // Install the first job everywhere, then rotate each quantum.
    for (NodeId n = 0; n < cfg.nodes; ++n) {
        nodes[n].kernel.installProcess(jobs[0]->procs[n]);
        scheduleBoundary(n, 1);
    }
}

Process *
Machine::pickGangTarget(NodeId node, std::uint64_t k)
{
    const std::size_t njobs = jobs.size();
    for (std::size_t i = 0; i < njobs; ++i) {
        Job *j = jobs[(k + i) % njobs].get();
        Process *p = j->procs[node];
        if (!p->suspended)
            return p;
    }
    return nullptr; // every job suspended
}

void
Machine::scheduleFaultTick(NodeId node, std::uint64_t k)
{
    // The draw order within a tick is fixed, and every class draws on
    // every tick (rates of zero skip the RNG entirely), so a given
    // (seed, config) pair replays bit-identically.
    eq.scheduleFn(
        [this, node, k] {
            if (fault_->drawOutputDeny())
                fault_->openOutputWindow(node);
            if (fault_->drawDivertStorm())
                nodes[node].kernel.forceDivert();
            if (fault_->drawAtomTimeout())
                nodes[node].ni.injectAtomicityTimeout();
            scheduleFaultTick(node, k + 1);
        },
        k * cfg.fault.tickInterval, "fault-tick");
}

void
Machine::scheduleBoundary(NodeId node, std::uint64_t k)
{
    const Cycle when = k * gang_.quantum + gangOffset_[node];
    eq.scheduleFn(
        [this, node, k] {
            nodes[node].kernel.requestSwitch(pickGangTarget(node, k));
            scheduleBoundary(node, k + 1);
        },
        when, "gang-boundary");
}

bool
Machine::runUntilDone(const Job *job, Cycle max_cycles)
{
    const Cycle limit = now() + max_cycles;
    while (!job->done()) {
        if (now() > limit)
            return false;
        // Spends elided inside the event end by the limit, so the
        // check above still sees every cycle an event would have.
        if (!eq.runOne(limit))
            break; // queue drained
        ++eventsRun_;
    }
    if (job->done())
        checker_->finalChecks();
    return job->done();
}

void
Machine::run(Cycle until)
{
    eventsRun_ += eq.run(until);
}

trace::TraceBuffer
Machine::mergedTrace() const
{
    trace::TraceBuffer out(0);
    if (tracer_) {
        const trace::TraceBuffer &b = tracer_->buffer();
        for (std::size_t i = 0; i < b.size(); ++i)
            out.append(b[i]);
    }
    return out;
}

} // namespace fugu::glaze
