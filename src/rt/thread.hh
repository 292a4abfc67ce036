/**
 * @file
 * User-level threads (Section 3: "UDM assumes an execution model in
 * which one or more threads run on each processor").
 *
 * A thread is a user exec::Context whose owner is the Scheduler that
 * queues it by priority. A Scheduler multiplexes one process's threads
 * over its node's Cpu (each process on a node has its own). It is
 * passive: the OS's idle hook asks it to pickNext() when the Cpu has
 * nothing to run. Buffered-mode atomicity is emulated by priority: the
 * message-handling (drain) thread runs at high priority so handlers
 * are atomic with respect to other application threads, exactly as
 * Section 4.2 describes.
 */

#ifndef FUGU_RT_THREAD_HH
#define FUGU_RT_THREAD_HH

#include <deque>
#include <queue>
#include <string>

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

class Scheduler
{
  public:
    Scheduler(exec::Cpu &cpu, const core::CostModel &costs);

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Create a thread (a user context it owns) and make it runnable. */
    exec::ContextPtr spawn(std::string name, int priority,
                           exec::Task body);

    /**
     * Pop the highest-priority runnable thread's context, or null.
     * Called by the OS dispatcher when the Cpu idles.
     */
    exec::ContextPtr pickNext();

    bool hasRunnable() const;

    /** The running context if it is one of this Scheduler's threads,
     *  else null (e.g. inside an upcall handler context). */
    exec::ContextPtr current() const;

    /** @p ctx if it is one of this Scheduler's threads, else null. */
    exec::ContextPtr threadOf(const exec::ContextPtr &ctx) const;

    /// @name Called from thread code
    /// @{

    /** Let equal/higher-priority threads run; charges a switch cost. */
    exec::CoTask<void> yield();

    /** Block the current thread until makeReady() is called on it. */
    exec::CoTask<void> blockCurrent();

    /// @}

    /** Make a blocked thread runnable (callable from handlers). */
    void makeReady(const exec::ContextPtr &t);

  private:
    struct QueueEntry
    {
        int prio;
        std::uint64_t seq;
        exec::ContextPtr t;

        bool
        operator<(const QueueEntry &o) const
        {
            // priority_queue is a max-heap: higher prio first, then
            // FIFO within a priority level.
            return prio != o.prio ? prio < o.prio : seq > o.seq;
        }
    };

    void enqueue(const exec::ContextPtr &t);

    exec::Cpu &cpu_;
    const core::CostModel &costs_;
    std::priority_queue<QueueEntry> ready_;
    std::uint64_t nextSeq_ = 0;
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
    std::deque<exec::ContextPtr> waiters_;
};

} // namespace fugu::rt

#endif // FUGU_RT_THREAD_HH
