/**
 * @file
 * Context: a schedulable stream of execution on a simulated Cpu.
 *
 * Kernel interrupt/trap handlers, user threads and user upcall handlers
 * are all Contexts. A Context wraps a top-level Task coroutine plus the
 * bookkeeping the Cpu needs to preempt it in the middle of a cycle
 * spend ("freeze") and later resume it with the leftover cycles intact.
 * An rt thread is a Context whose owner is the rt::Scheduler that
 * queues it by priority.
 */

#ifndef FUGU_EXEC_CONTEXT_HH
#define FUGU_EXEC_CONTEXT_HH

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>

#include "exec/task.hh"
#include "sim/types.hh"

namespace fugu::rt
{
class Scheduler;
} // namespace fugu::rt

namespace fugu::exec
{

class Cpu;
class Context;

using ContextPtr = std::shared_ptr<Context>;

/** Lifecycle of a Context. */
enum class CtxState
{
    Unstarted, ///< created, never dispatched
    Active,    ///< logically executing on the Cpu (incl. inside spend)
    Frozen,    ///< preempted mid-spend; `remaining` cycles still owed
    Blocked,   ///< suspended until switched to again
    Finished,  ///< top-level coroutine ran to completion
};

const char *toString(CtxState s);

class Context : public std::enable_shared_from_this<Context>
{
  public:
    Context(Cpu *cpu, std::string name, bool kernel, Task task);
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    const std::string &name() const { return name_; }
    Cpu *cpu() const { return cpu_; }

    /** Kernel contexts are never preempted by interrupts. */
    bool preemptible() const { return !kernel_; }

    CtxState state() const { return state_; }
    bool finished() const { return state_ == CtxState::Finished; }

    /**
     * Context to resume when this one finishes (set for interrupt and
     * trap handlers). A handler that wants to divert control (e.g., a
     * scheduler quantum switch) takes it with takeReturnTo().
     */
    ContextPtr
    takeReturnTo()
    {
        return std::exchange(returnTo_, nullptr);
    }
    void setReturnTo(ContextPtr c) { returnTo_ = std::move(c); }

    /** Argument passed along with a trap. */
    std::uint64_t trapArg = 0;

    /**
     * The rt::Scheduler whose thread this is, or null for interrupt,
     * trap and upcall contexts. Set by the rt layer; exec only stores
     * it.
     */
    rt::Scheduler *owner = nullptr;

    /** Thread priority within the owner's ready queue. */
    int priority = 0;

  private:
    friend class Cpu;

    Cpu *cpu_;
    std::string name_;
    bool kernel_;
    Task task_;
    CtxState state_ = CtxState::Unstarted;

    /** Where to continue this context (set by awaitables on suspend). */
    std::coroutine_handle<> resumePoint_;

    /** Cycles left in the interrupted spend (valid when Frozen). */
    Cycle remaining_ = 0;

    ContextPtr returnTo_;

    /**
     * Intrusive membership in the owning Cpu's context registry, so
     * Cpu teardown can destroy the coroutine frames of contexts still
     * suspended (frames may hold ContextPtr locals forming shared_ptr
     * cycles that would otherwise never be released).
     */
    Context *ctxPrev_ = nullptr;
    Context *ctxNext_ = nullptr;
    bool ctxListed_ = false;
};

} // namespace fugu::exec

#endif // FUGU_EXEC_CONTEXT_HH
