#include "rt/thread.hh"

#include "sim/log.hh"

namespace fugu::rt
{

Scheduler::Scheduler(exec::Cpu &cpu, const core::CostModel &costs)
    : cpu_(cpu), costs_(costs)
{
}

exec::ContextPtr
Scheduler::spawn(std::string name, int priority, exec::Task body)
{
    auto t = cpu_.spawn(std::move(name), /*kernel=*/false, std::move(body));
    t->owner = this;
    t->priority = priority;
    enqueue(t);
    cpu_.requestDispatch();
    return t;
}

void
Scheduler::enqueue(const exec::ContextPtr &t)
{
    if (t->finished())
        return;
    // Duplicate entries are allowed: two logically distinct wakeups
    // (say, a quantum-switch requeue and a condition-variable notify)
    // must not merge, or one is lost. A stale duplicate merely causes
    // a spurious wakeup, and every wait in the system is
    // predicate-looped.
    ready_.push(QueueEntry{t->priority, nextSeq_++, t});
}

exec::ContextPtr
Scheduler::pickNext()
{
    while (!ready_.empty()) {
        exec::ContextPtr t = ready_.top().t;
        ready_.pop();
        if (!t->finished())
            return t;
    }
    return nullptr;
}

bool
Scheduler::hasRunnable() const
{
    // Finished threads may linger in the queue; treat them as absent.
    if (ready_.empty())
        return false;
    // Cheap common case: the top is live.
    return !ready_.top().t->finished() || ready_.size() > 1;
}

exec::ContextPtr
Scheduler::current() const
{
    return threadOf(cpu_.current());
}

exec::ContextPtr
Scheduler::threadOf(const exec::ContextPtr &ctx) const
{
    // Compare the owner, not just "is a thread": every process on a
    // node has its own Scheduler over the node's Cpu.
    return ctx && ctx->owner == this ? ctx : nullptr;
}

exec::CoTask<void>
Scheduler::yield()
{
    exec::ContextPtr self = current();
    fugu_assert(self, "yield() from a non-thread context");
    co_await cpu_.spend(costs_.threadSwitch);
    enqueue(self);
    co_await cpu_.block(); // dispatcher picks the next thread
}

exec::CoTask<void>
Scheduler::blockCurrent()
{
    fugu_assert(current(), "blockCurrent() from a non-thread context");
    co_await cpu_.spend(costs_.threadSwitch);
    co_await cpu_.block();
}

void
Scheduler::makeReady(const exec::ContextPtr &t)
{
    enqueue(t);
    cpu_.requestDispatch();
}

exec::CoTask<void>
CondVar::wait()
{
    exec::ContextPtr self = sched_.current();
    fugu_assert(self, "CondVar::wait() from a non-thread context "
                      "(message handlers must not block)");
    waiters_.push_back(std::move(self));
    return sched_.blockCurrent();
}

void
CondVar::notifyOne()
{
    if (waiters_.empty())
        return;
    exec::ContextPtr t = std::move(waiters_.front());
    waiters_.pop_front();
    sched_.makeReady(t);
}

void
CondVar::notifyAll()
{
    while (!waiters_.empty())
        notifyOne();
}

} // namespace fugu::rt
