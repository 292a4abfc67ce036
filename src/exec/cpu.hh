/**
 * @file
 * Cpu: the simulated processor core that executes Contexts.
 *
 * Exactly one Context is logically running on a Cpu at any time.
 * Simulated code advances time by awaiting spend(n); interrupts raised
 * by devices preempt a preemptible (user) context *in the middle* of a
 * spend with exact cycle accounting: the context is frozen with its
 * leftover cycles and a kernel handler context is dispatched. A spend
 * with nothing due before its end moves the clock and continues
 * without an event (EventQueue::tryAdvance), since its end event
 * would have fired next anyway. Kernel contexts run with interrupts
 * implicitly masked (they are never preempted); pending lines are
 * re-examined whenever the Cpu has to decide what to run next.
 *
 * The Cpu has no scheduling policy of its own: when a context finishes
 * or blocks and no handler/return path is pending, it consults an
 * idle hook installed by the operating system.
 */

#ifndef FUGU_EXEC_CPU_HH
#define FUGU_EXEC_CPU_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/context.hh"
#include "exec/task.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace fugu::exec
{

/** Number of interrupt lines a Cpu provides. */
inline constexpr unsigned kNumIrqLines = 8;

/** Number of trap vectors a Cpu provides. */
inline constexpr unsigned kNumTrapVectors = 16;

class Cpu
{
  public:
    /** Builds a kernel handler task for a dispatched interrupt line. */
    using IrqHandlerFactory = std::function<Task(unsigned line)>;

    /** Builds a kernel handler task for a trap taken by @p victim. */
    using TrapHandlerFactory = std::function<Task(ContextPtr victim)>;

    Cpu(EventQueue &eq, NodeId id, StatGroup *stat_parent);
    ~Cpu();

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    NodeId id() const { return id_; }
    EventQueue &eq() { return eq_; }
    Cycle now() const { return eq_.now(); }

    /// @name Wiring (done once at machine construction)
    /// @{

    /**
     * Install the kernel handler for an interrupt line. Lines are
     * level-triggered by default: the device holds the line with
     * raiseIrq until the cause is quiesced. A pulse line is
     * auto-cleared when its handler is dispatched.
     */
    void setIrqHandler(unsigned line, IrqHandlerFactory factory,
                       bool pulse = false);

    /** Install the kernel handler for a trap vector. */
    void setTrapHandler(unsigned vec, TrapHandlerFactory factory);

    /**
     * Called when the Cpu has nothing to run; typically the OS
     * dispatcher, which may call switchTo() or leave the Cpu idle.
     */
    void setIdleHook(std::function<void()> hook);

    /** Attach a message-lifecycle trace recorder (null to disable). */
    void setTracer(trace::Recorder *tracer) { tracer_ = tracer; }

    /// @}
    /// @name Device interface
    /// @{

    void raiseIrq(unsigned line);
    void lowerIrq(unsigned line);

    /// @}
    /// @name Context management (kernel / runtime code)
    /// @{

    /** Create a context; it does not run until switched to. */
    ContextPtr spawn(std::string name, bool kernel, Task task);

    /**
     * Make @p ctx the current context. The Cpu must be idle (no
     * current context). Valid for Unstarted, Frozen, and Blocked
     * contexts (resuming a Blocked context is how trap/upcall return
     * paths and thread wakeups work; run-queue state is the caller's
     * business).
     */
    void switchTo(ContextPtr ctx);

    /** If the Cpu is idle, arrange for a dispatch decision at `now`. */
    void requestDispatch();

    /** The currently running context (null when idle). */
    const ContextPtr &current() const { return current_; }

    /// @}
    /// @name Awaitables, used from coroutine code running on this Cpu
    /// @{

    struct [[nodiscard]] SpendAwaiter
    {
        Cpu *cpu;
        Cycle n;
        bool await_ready() const noexcept { return false; }
        /** @return false to continue immediately (zero-cycle spend). */
        bool
        await_suspend(std::coroutine_handle<> h)
        {
            return cpu->onSpendSuspend(n, h);
        }
        void await_resume() const noexcept {}
    };

    /** Consume @p n cycles; interruptible for user contexts. */
    SpendAwaiter spend(Cycle n) { return {this, n}; }

    struct BlockAwaiter
    {
        Cpu *cpu;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            cpu->onBlockSuspend(h);
        }
        void await_resume() const noexcept {}
    };

    /** Suspend the current context until it is switched to again. */
    BlockAwaiter block() { return {this}; }

    struct TrapAwaiter
    {
        Cpu *cpu;
        unsigned vec;
        std::uint64_t arg;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            cpu->onTrapSuspend(h, vec, arg);
        }
        void await_resume() const noexcept {}
    };

    /**
     * Take a synchronous trap into the kernel. The current context
     * blocks; the trap handler runs with returnTo set to the victim,
     * so finishing the handler resumes the trapped code (unless the
     * handler steals the return).
     */
    TrapAwaiter trap(unsigned vec, std::uint64_t arg = 0)
    {
        return {this, vec, arg};
    }

    /// @}
    /// @name User-cycle timer (backs the NI atomicity timer)
    /// @{

    /**
     * Arrange for @p cb to run after @p user_cycles of *user* (i.e.
     * preemptible-context) execution have elapsed. Kernel execution
     * and idle time do not advance the timer. One timer slot exists.
     */
    void setUserTimer(Cycle user_cycles, std::function<void()> cb);
    void cancelUserTimer();

    /// @}

    /** Total user-context cycles executed so far. */
    Cycle userCycles() const;

    struct Stats
    {
        explicit Stats(StatGroup *parent, NodeId id);
        StatGroup group;
        Scalar userCycles;
        Scalar kernelCycles;
        Scalar irqsTaken;
        Scalar trapsTaken;
        Scalar contextsSpawned;
        Scalar preemptions;
        Scalar spendsElided;
    };

    Stats stats;

  private:
    friend struct Task::promise_type::FinalAwaiter;
    friend class Context;

    /// @name Awaiter entry points (delegated from the awaiter structs)
    /// @{
    bool onSpendSuspend(Cycle n, std::coroutine_handle<> h);
    void onBlockSuspend(std::coroutine_handle<> h);
    void onTrapSuspend(std::coroutine_handle<> h, unsigned vec,
                       std::uint64_t arg);
    /// @}

    /**
     * The spend in flight. Its context is always current_, which owns
     * it for the whole spend, so a raw pointer suffices: beginning and
     * ending a spend copies no ContextPtr (each copy is two atomic
     * read-modify-writes once the process has started a thread).
     */
    struct SpendState
    {
        bool active = false;
        Context *ctx = nullptr;
        Cycle start = 0;
        Cycle end = 0;
        EventHandle endEv;
    };

    struct UserTimer
    {
        bool active = false;
        Cycle deadline = 0; ///< in user-cycle time (see userCycles())
        std::function<void()> cb;
        EventHandle ev; // scheduled firing, if any
    };

    /** Context finished (called from final_suspend). */
    void onFinished(Context *ctx);

    /// @name Context registry (see Context::ctxListed_)
    /// @{
    void linkContext(Context *ctx);
    void unlinkContext(Context *ctx);

    /**
     * Destroy the coroutine frames of every context still suspended,
     * releasing the ContextPtr locals they hold (which may
     * form reference cycles). Runs from the destructor; nothing may
     * execute on this Cpu afterwards.
     */
    void destroyParkedContexts();
    /// @}

    /** Begin/continue a spend for the current context. */
    void beginSpend(Cycle n);
    void onSpendComplete();

    /**
     * Account a finished spend of @p n cycles by @p ctx and fire a
     * user timer whose deadline it reached; the spend is no longer
     * active.
     */
    void endSpend(const Context &ctx, Cycle n);

    /**
     * Freeze the current context mid-spend (IRQ arrived) and clear
     * current_; the caller holds its own reference to the victim.
     */
    void preemptCurrent();

    /** Central dispatch decision when the Cpu goes idle. */
    void reschedule();

    /** Highest-priority pending line, or -1. */
    int pendingIrqLine() const;

    /** Spawn and run the handler for @p line; returnTo = @p ret. */
    void dispatchIrq(unsigned line, ContextPtr ret);

    /** Resume a context as current (no pending-IRQ check). */
    void resumeContext(const ContextPtr &ctx);

    /** Schedule a coroutine handle to resume at now + delay. */
    void scheduleResume(std::coroutine_handle<> h, Cycle delay,
                        const char *why);

    /** Account user/kernel cycles for a completed slice. */
    void accountCycles(const Context &ctx, Cycle n);

    /** Arm the timer firing event against the active spend. */
    void armTimerForSpend();

    EventQueue &eq_;
    NodeId id_;

    std::vector<IrqHandlerFactory> irqHandlers_;
    std::vector<bool> irqPulse_;
    std::vector<TrapHandlerFactory> trapHandlers_;
    std::function<void()> idleHook_;

    std::uint32_t pendingIrqs_ = 0;

    ContextPtr current_;
    ContextPtr pendingReturn_; // stashed returnTo of a finished ctx
    ContextPtr retired_;       // finished ctx awaiting safe destruction
    bool dispatchPending_ = false;

    SpendState spend_;
    UserTimer timer_;

    Cycle userCycles_ = 0;

    Context *ctxHead_ = nullptr;
    trace::Recorder *tracer_ = nullptr;
};

} // namespace fugu::exec

#endif // FUGU_EXEC_CPU_HH
