/**
 * @file
 * Process and Job: the operating system's view of an application.
 *
 * A Job is one parallel application: one Process per node, all stamped
 * with the same GID. Each Process owns its UDM port, user-level thread
 * scheduler, address space and virtual message buffer, plus the NI
 * state the kernel saves/restores around gang-scheduler quanta.
 */

#ifndef FUGU_GLAZE_PROCESS_HH
#define FUGU_GLAZE_PROCESS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/udm.hh"
#include "glaze/vbuf.hh"
#include "glaze/vm.hh"
#include "rt/thread.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace fugu::glaze
{

class InvariantChecker;
class Kernel;
class Job;

class Process : public core::PortObserver
{
  public:
    Process(exec::Cpu &cpu, core::NetIf &ni, const core::CostModel &costs,
            FramePool &frames, StatGroup *stat_parent, NodeId node,
            Gid gid, Job *job);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    NodeId node() const { return node_; }
    Gid gid() const { return gid_; }
    Job *job() const { return job_; }

    /** Attach the owning kernel (done by Kernel::addProcess). */
    void setKernel(Kernel *k) { kernel_ = k; }
    Kernel *kernel() const { return kernel_; }

    core::UdmPort &port() { return port_; }
    rt::Scheduler &threads() { return threads_; }
    VirtualBuffer &vbuf() { return vbuf_; }
    AddressSpace &as() { return as_; }
    exec::Cpu &cpu() { return cpu_; }
    const core::CostModel &costs() const { return costs_; }

    /// @name Application conveniences
    /// @{

    /** Model @p n cycles of local computation (no coroutine frame). */
    exec::Cpu::SpendAwaiter compute(Cycle n) { return cpu_.spend(n); }

    /**
     * Touch a heap page; takes a page-fault trap on first touch of a
     * demand-zero page (one of the three buffered-mode triggers when
     * it happens inside an atomic section).
     */
    exec::CoTask<void> touchPage(std::uint64_t page);

    /** Attach a message-lifecycle trace recorder (null to disable). */
    void setTracer(trace::Recorder *tracer);

    /** Attach the machine's invariant checker (null to disable). */
    void setChecker(InvariantChecker *checker) { checker_ = checker; }

    /// @}
    /// @name Kernel-side scheduling state
    /// @{

    /** Delivery mode: true while in the software-buffered case. */
    bool buffered = false;

    /**
     * Buffered-message handling is deferred: a user atomic section
     * was suspended by a timeout/page fault (or the user entered one
     * while buffered) and has not yet exited.
     */
    bool atomicGate = false;

    /** Globally suspended by overflow control. */
    bool suspended = false;

    /**
     * The main coroutine's first slice has run. Until then the
     * process cannot have registered any message handlers, so the
     * buffered-message drain must not upcall into it: messages can
     * buffer for a process that has never been scheduled (a skewed
     * gang start), and startup must win over the drain on the first
     * quantum — as on a real system, where a port only drains into a
     * process that has completed its startup.
     */
    bool mainStarted = false;

    /**
     * Why this process last entered buffered mode (trace attribution;
     * reset to None when the process returns to direct delivery).
     */
    trace::DivertReason bufferCause = trace::DivertReason::None;

    /** Context frozen at the last quantum switch (resumed first). */
    exec::ContextPtr savedCtx;

    /**
     * The saved context was interrupted while holding a live output
     * descriptor (mid-inject): it must resume before any other
     * context may use the network interface's send side.
     */
    bool savedCtxUrgent = false;

    /** The live message-handling (drain) thread, if any. */
    exec::ContextPtr drainThread;

    /**
     * Application-owned state (e.g. a CRL instance) that must outlive
     * the application's main coroutine, since registered message
     * handlers may reference it for the life of the process.
     */
    std::shared_ptr<void> appData;

    /** Saved NI user state across quanta. */
    unsigned savedUac = 0;
    net::MsgVec savedOutput;

    /// @}
    /// @name PortObserver (statistics + atomicity gate)
    /// @{

    void onSend() override;
    void onDispatchStart(bool buffered) override;
    void onDispatchEnd(bool buffered, Cycle handler_cycles) override;
    void onBeginAtomic() override;
    void onEndAtomic() override;

    /// @}

    struct Stats
    {
        Stats(StatGroup *parent, NodeId node, Gid gid);
        StatGroup group;
        Scalar sent;
        Scalar directDelivered;
        Scalar bufferedDelivered;
        Distribution handlerCycles;
        Scalar atomicSections;
    };

    Stats stats;

  private:
    exec::Cpu &cpu_;
    const core::CostModel &costs_;
    Kernel *kernel_ = nullptr;
    NodeId node_;
    Gid gid_;
    Job *job_;
    core::UdmPort port_;
    rt::Scheduler threads_;
    AddressSpace as_;
    VirtualBuffer vbuf_;
    trace::Recorder *tracer_ = nullptr;
    InvariantChecker *checker_ = nullptr;
};

/** Per-node application entry point. */
using AppBody = std::function<exec::CoTask<void>(Process &)>;

class Job
{
  public:
    Job(Gid gid, std::string name, unsigned nodes);

    Gid gid() const { return gid_; }
    const std::string &name() const { return name_; }

    /** All node mains have returned. */
    bool done() const { return doneNodes_ == nodes_; }

    void nodeDone(NodeId node);

    Cycle startCycle = 0;
    Cycle endCycle = 0; ///< when the last node's main returned

    std::vector<Process *> procs; ///< indexed by node

  private:
    Gid gid_;
    std::string name_;
    unsigned nodes_;
    unsigned doneNodes_ = 0;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_PROCESS_HH
