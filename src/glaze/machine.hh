/**
 * @file
 * Machine: a whole simulated FUGU multiprocessor.
 *
 * Owns the event queue, both networks, and per node the Cpu, NetIf,
 * frame pool, second-network NIC and kernel; plus the jobs/processes
 * and the loose gang scheduler with synchronized-but-skewable clocks
 * used by the paper's experiments (Section 5).
 */

#ifndef FUGU_GLAZE_MACHINE_HH
#define FUGU_GLAZE_MACHINE_HH

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/costs.hh"
#include "core/netif.hh"
#include "glaze/check.hh"
#include "glaze/kernel.hh"
#include "glaze/process.hh"
#include "glaze/vm.hh"
#include "net/network.hh"
#include "sim/event.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::glaze
{

struct MachineConfig
{
    unsigned nodes = 8;

    net::NetworkConfig net{};
    net::NetworkConfig osNet{
        /*meshX=*/0, /*meshY=*/0, // filled from nodes
        /*latencyBase=*/50,
        /*perHop=*/10,
        /*perWord=*/8,
        /*channelCapacityWords=*/256,
    };

    core::NetIfConfig ni{};
    core::CostModel costs{};
    core::AtomicityMode atomicity = core::AtomicityMode::Hard;

    /** Physical page frames per node. */
    unsigned framesPerNode = 64;

    /**
     * Ablation: deliver every message via the buffered path (the
     * SUNMOS-style always-buffered organization of Section 2).
     */
    bool alwaysBuffered = false;

    /**
     * Ablation: model a system that pins its buffer pages — this many
     * frames per process are taken at creation and never returned.
     */
    unsigned pinnedBufferPages = 0;

    /**
     * Must be 1: a machine runs on one event queue. Not on the config
     * tree; kept only because fugubench/fugubench.cc still sets it.
     */
    unsigned parShards = 1;

    /** Message-lifecycle tracing (disabled by default). */
    trace::Options trace{};

    /** Deterministic fault injection (disabled by default). */
    sim::FaultConfig fault{};

    /** Machine-wide invariant checker (enabled by default). */
    CheckConfig check{};

    std::uint64_t seed = 1;
};

/** Gang-scheduler parameters (Section 5's experimental knobs). */
struct GangConfig
{
    /** Scheduler timeslice (the paper uses 500,000 cycles). */
    Cycle quantum = 500000;

    /**
     * Schedule quality knob: each node's quantum boundary is offset
     * by a fixed random draw from [0, skew*quantum], modelling the
     * paper's skewed cycle-count registers.
     */
    double skew = 0.0;
};

/**
 * Register the whole machine parameter tree: machine.*, net.*,
 * osnet.*, ni.*, costs.*, and trace.* (composes the per-layer
 * binders).
 */
void bindConfig(sim::Binder &b, MachineConfig &c);

/** Register the gang-scheduler knobs (gang.*). */
void bindConfig(sim::Binder &b, GangConfig &c);

class Machine
{
  public:
    explicit Machine(MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    struct Node
    {
        Node(Machine &m, NodeId id);

        exec::Cpu cpu;
        core::NetIf ni;
        FramePool frames;
        OsNic osnic;
        Kernel kernel;
    };

    /** Current simulated cycle. */
    Cycle now() const { return eq.now(); }

    unsigned nodeCount() const { return cfg.nodes; }
    Node &node(NodeId id) { return nodes[id]; }

    /** Events processed by runUntilDone / run so far. */
    std::uint64_t eventsProcessed() const { return eventsRun_; }

    /** The trace recorder, or null when tracing is disabled. */
    trace::Recorder *tracer() const { return tracer_.get(); }

    /**
     * The retained trace events, copied into an unbounded buffer
     * (empty when tracing is disabled); kept for
     * fugubench/fugubench.cc, its last user.
     */
    trace::TraceBuffer mergedTrace() const;

    /** The fault injector, or null when fault.enabled is false. */
    sim::FaultInjector *fault() const { return fault_.get(); }

    /**
     * The fault injector as a range of at most one element; kept for
     * fugubench/fugubench.cc, its last user.
     */
    std::span<const std::unique_ptr<sim::FaultInjector>>
    allFaults() const
    {
        return {&fault_, fault_ ? 1u : 0u};
    }

    /** The invariant checker (always present; may be disabled). */
    InvariantChecker *checker() const { return checker_.get(); }

    /** Frames actually pinned on @p node by the pinning ablation. */
    unsigned pinnedFrames(NodeId node) const
    {
        return pinnedFrames_[node];
    }

    /**
     * Create a job: one Process per node, each with a main thread
     * running @p body. The job does not run until installed
     * (single-job) or the gang scheduler is started.
     */
    Job *addJob(std::string name, AppBody body);

    /** Make @p job current on every node immediately (no gang). */
    void installJob(Job *job);

    /**
     * Start gang-scheduling all jobs added so far, rotating each
     * quantum. Installs the first job at the current cycle.
     */
    void startGang(GangConfig gcfg);

    /**
     * Run until @p job finishes.
     * @return false on cycle-limit exhaustion (likely deadlock).
     */
    bool runUntilDone(const Job *job, Cycle max_cycles = 2000000000ull);

    /** Run until the event queue drains or @p until passes. */
    void run(Cycle until = kMaxCycle);

    /**
     * Canonicalize a config the way the constructor will: size both
     * meshes to cover the node count and resolve fault.class into its
     * rates (sim::resolveFaultClass). Public so the config layer can
     * dump the *effective* tree (--dump-config) before building any
     * machine; applying fix twice is a no-op.
     */
    static MachineConfig fix(MachineConfig cfg);

    MachineConfig cfg;
    EventQueue eq;
    StatGroup root;
    Rng rng;

  private:
    // Declared before the networks and nodes, which hold raw pointers
    // to them, so they outlive them.
    std::unique_ptr<trace::Recorder> tracer_;
    std::unique_ptr<sim::FaultInjector> fault_;
    std::unique_ptr<InvariantChecker> checker_;

  public:
    net::Network net;
    net::Network osnet;
    std::deque<Node> nodes; // deque: Node is pinned (non-movable)
    std::vector<std::unique_ptr<Job>> jobs;
    std::vector<std::unique_ptr<Process>> processes;

  private:
    void scheduleBoundary(NodeId node, std::uint64_t k);
    void scheduleFaultTick(NodeId node, std::uint64_t k);
    Process *pickGangTarget(NodeId node, std::uint64_t k);

    std::uint64_t eventsRun_ = 0;

    GangConfig gang_;
    bool gangRunning_ = false;
    std::vector<Cycle> gangOffset_; // per node
    std::vector<unsigned> pinnedFrames_; // per node, actual pins
    Gid nextGid_ = 1;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_MACHINE_HH
