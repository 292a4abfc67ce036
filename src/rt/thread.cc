#include "rt/thread.hh"

#include "sim/log.hh"

namespace fugu::rt
{

Scheduler::Scheduler(exec::Cpu &cpu, const core::CostModel &costs)
    : cpu_(cpu), costs_(costs)
{
}

ThreadPtr
Scheduler::spawn(std::string name, int priority, exec::Task body)
{
    auto ctx = cpu_.spawn(name, /*kernel=*/false, std::move(body));
    auto t = std::make_shared<Thread>(std::move(name), priority, ctx);
    byCtx_[ctx.get()] = t;
    ++live_;
    enqueue(t);
    cpu_.requestDispatch();
    return t;
}

void
Scheduler::enqueue(const ThreadPtr &t)
{
    if (t->finished())
        return;
    // Duplicate entries are allowed: two logically distinct wakeups
    // (say, a quantum-switch requeue and a condition-variable notify)
    // must not merge, or one is lost. A stale duplicate merely causes
    // a spurious wakeup, and every wait in the system is
    // predicate-looped.
    t->queued_ = true;
    ready_.push(QueueEntry{t->priority(), nextSeq_++, t});
}

void
Scheduler::noteFinished()
{
    // Sweep finished threads out of the context map lazily.
    for (auto it = byCtx_.begin(); it != byCtx_.end();) {
        if (it->second->finished()) {
            --live_;
            it = byCtx_.erase(it);
        } else {
            ++it;
        }
    }
}

exec::ContextPtr
Scheduler::pickNext()
{
    while (!ready_.empty()) {
        ThreadPtr t = ready_.top().t;
        ready_.pop();
        t->queued_ = false;
        if (t->finished())
            continue;
        return t->ctx();
    }
    noteFinished();
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

ThreadPtr
Scheduler::current() const
{
    const auto &ctx = cpu_.current();
    if (!ctx)
        return nullptr;
    return threadOf(ctx);
}

ThreadPtr
Scheduler::threadOf(const exec::ContextPtr &ctx) const
{
    auto it = byCtx_.find(ctx.get());
    return it == byCtx_.end() ? nullptr : it->second;
}

exec::CoTask<void>
Scheduler::yield()
{
    ThreadPtr self = current();
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
Scheduler::makeReady(const ThreadPtr &t)
{
    enqueue(t);
    cpu_.requestDispatch();
}

exec::CoTask<void>
CondVar::wait()
{
    ThreadPtr self = sched_.current();
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
    ThreadPtr t = std::move(waiters_.front());
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
