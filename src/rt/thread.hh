/**
 * @file
 * User-level threads (Section 3: "UDM assumes an execution model in
 * which one or more threads run on each processor").
 *
 * A Scheduler multiplexes an application's threads over its node's
 * Cpu. It is passive: the OS's idle hook asks it to pickNext() when
 * the Cpu has nothing to run. Buffered-mode atomicity is emulated by
 * priority: the message-handling (drain) thread runs at high priority
 * so handlers are atomic with respect to other application threads,
 * exactly as Section 4.2 describes.
 */

#ifndef FUGU_RT_THREAD_HH
#define FUGU_RT_THREAD_HH

#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>

#include "core/costs.hh"
#include "exec/cpu.hh"
#include "exec/task.hh"
#include "sim/stats.hh"

namespace fugu::rt
{

/** Priority of ordinary application threads. */
inline constexpr int kPrioNormal = 0;

/** Priority of the buffered-mode message-handling thread. */
inline constexpr int kPrioHandler = 10;

class Scheduler;

class Thread
{
  public:
    Thread(std::string name, int priority, exec::ContextPtr ctx)
        : name_(std::move(name)), priority_(priority),
          ctx_(std::move(ctx))
    {}

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }
    const exec::ContextPtr &ctx() const { return ctx_; }
    bool finished() const { return ctx_->finished(); }

  private:
    friend class Scheduler;

    std::string name_;
    int priority_;
    exec::ContextPtr ctx_;
    bool queued_ = false;
};

using ThreadPtr = std::shared_ptr<Thread>;

class Scheduler
{
  public:
    Scheduler(exec::Cpu &cpu, const core::CostModel &costs);

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Create a thread and make it runnable. */
    ThreadPtr spawn(std::string name, int priority, exec::Task body);

    /**
     * Pop the highest-priority runnable thread's context, or null.
     * Called by the OS dispatcher when the Cpu idles.
     */
    exec::ContextPtr pickNext();

    bool hasRunnable() const;

    /** Threads not yet finished. */
    std::size_t liveThreads() const { return live_; }

    /** The thread owning the currently running context (may be null,
     *  e.g. inside an upcall handler context). */
    ThreadPtr current() const;

    /** The thread owning @p ctx, or null if it is not a thread. */
    ThreadPtr threadOf(const exec::ContextPtr &ctx) const;

    /// @name Called from thread code
    /// @{

    /** Let equal/higher-priority threads run; charges a switch cost. */
    exec::CoTask<void> yield();

    /** Block the current thread until makeReady() is called on it. */
    exec::CoTask<void> blockCurrent();

    /// @}

    /** Make a blocked thread runnable (callable from handlers). */
    void makeReady(const ThreadPtr &t);

  private:
    struct QueueEntry
    {
        int prio;
        std::uint64_t seq;
        ThreadPtr t;

        bool
        operator<(const QueueEntry &o) const
        {
            // priority_queue is a max-heap: higher prio first, then
            // FIFO within a priority level.
            return prio != o.prio ? prio < o.prio : seq > o.seq;
        }
    };

    void enqueue(const ThreadPtr &t);
    void noteFinished();

    exec::Cpu &cpu_;
    const core::CostModel &costs_;
    std::priority_queue<QueueEntry> ready_;
    std::unordered_map<exec::Context *, ThreadPtr> byCtx_;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
};

/** Condition variable for threads of one Scheduler. */
class CondVar
{
  public:
    explicit CondVar(Scheduler &sched) : sched_(sched) {}

    /**
     * Block the current thread until notified. Use with a predicate
     * loop, as notifications are not sticky. The thread joins the
     * waiters at the call, so await the result in the same expression.
     */
    exec::CoTask<void> wait();

    void notifyOne();
    void notifyAll();

    std::size_t waiters() const { return waiters_.size(); }

  private:
    Scheduler &sched_;
    std::deque<ThreadPtr> waiters_;
};

} // namespace fugu::rt

#endif // FUGU_RT_THREAD_HH
