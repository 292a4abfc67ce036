/**
 * @file
 * Unit tests for the user-level thread runtime: priority scheduling,
 * yield fairness, condition variables, wakeup robustness, and the
 * release of finished threads.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rt/thread.hh"
#include "sim/event.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::exec;
using namespace fugu::rt;

namespace
{

struct RtTest : ::testing::Test
{
    RtTest() : sg("t"), cpu(eq, 0, &sg), sched(cpu, costs)
    {
        detail::setThrowOnError(true);
        cpu.setIdleHook([this] {
            if (auto ctx = sched.pickNext())
                cpu.switchTo(std::move(ctx));
        });
    }

    ~RtTest() override { detail::setThrowOnError(false); }

    EventQueue eq;
    StatGroup sg;
    core::CostModel costs;
    Cpu cpu;
    Scheduler sched;
    std::vector<std::string> log;
};

Task
worker(Cpu *cpu, std::vector<std::string> *log, const char *name,
       Cycle work)
{
    co_await cpu->spend(work);
    log->push_back(name);
}

TEST_F(RtTest, SpawnRunsThread)
{
    auto a = sched.spawn("a", kPrioNormal, worker(&cpu, &log, "a", 10));
    EXPECT_EQ(a->owner, &sched);
    EXPECT_EQ(a->priority, kPrioNormal);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_TRUE(a->finished());
}

TEST_F(RtTest, HigherPriorityRunsFirst)
{
    sched.spawn("lo", kPrioNormal, worker(&cpu, &log, "lo", 10));
    sched.spawn("hi", kPrioHandler, worker(&cpu, &log, "hi", 10));
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"hi", "lo"}));
}

TEST_F(RtTest, SamePriorityIsFifo)
{
    for (const char *n : {"a", "b", "c"})
        sched.spawn(n, kPrioNormal, worker(&cpu, &log, n, 5));
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

Task
yielder(Cpu *cpu, Scheduler *sched, std::vector<std::string> *log,
        const char *name, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await cpu->spend(5);
        log->push_back(name);
        co_await sched->yield();
    }
}

TEST_F(RtTest, YieldInterleavesEqualPriorities)
{
    sched.spawn("a", kPrioNormal, yielder(&cpu, &sched, &log, "a", 3));
    sched.spawn("b", kPrioNormal, yielder(&cpu, &sched, &log, "b", 3));
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a", "b", "a",
                                             "b"}));
}

Task
waiter(Cpu *cpu, CondVar *cv, std::vector<std::string> *log,
       const char *name, const bool *flag)
{
    while (!*flag)
        co_await cv->wait();
    co_await cpu->spend(1);
    log->push_back(name);
}

Task
signaler(Cpu *cpu, CondVar *cv, bool *flag)
{
    co_await cpu->spend(100);
    *flag = true;
    cv->notifyAll();
}

TEST_F(RtTest, CondVarNotifyAllWakesEveryWaiter)
{
    CondVar cv(sched);
    bool flag = false;
    const ContextPtr threads[] = {
        sched.spawn("w1", kPrioNormal,
                    waiter(&cpu, &cv, &log, "w1", &flag)),
        sched.spawn("w2", kPrioNormal,
                    waiter(&cpu, &cv, &log, "w2", &flag)),
        sched.spawn("s", kPrioNormal, signaler(&cpu, &cv, &flag)),
    };
    eq.run();
    EXPECT_EQ(log.size(), 2u);
    for (const ContextPtr &t : threads)
        EXPECT_TRUE(t->finished()) << t->name();
}

TEST_F(RtTest, NotifyOneWakesExactlyOne)
{
    CondVar cv(sched);
    bool flag = false;
    sched.spawn("w1", kPrioNormal, waiter(&cpu, &cv, &log, "w1", &flag));
    sched.spawn("w2", kPrioNormal, waiter(&cpu, &cv, &log, "w2", &flag));
    eq.run();
    EXPECT_EQ(cv.waiters(), 2u);
    flag = true;
    cv.notifyOne();
    eq.run();
    // The second waiter re-checked nothing: it is still blocked.
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(cv.waiters(), 1u);
    cv.notifyOne();
    eq.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST_F(RtTest, SpuriousDuplicateQueueEntriesAreHarmless)
{
    CondVar cv(sched);
    bool flag = false;
    auto t =
        sched.spawn("w", kPrioNormal, waiter(&cpu, &cv, &log, "w", &flag));
    eq.run();
    // Double makeReady: the predicate loop absorbs the spurious wake.
    sched.makeReady(t);
    sched.makeReady(t);
    eq.run();
    EXPECT_TRUE(log.empty());
    flag = true;
    cv.notifyAll();
    eq.run();
    EXPECT_EQ(log.size(), 1u);
}

TEST_F(RtTest, ThreadOfMapsContexts)
{
    auto t = sched.spawn("w", kPrioNormal, worker(&cpu, &log, "w", 1000));
    EXPECT_EQ(sched.threadOf(t), t);
    EXPECT_EQ(sched.threadOf(nullptr), nullptr);
    // A kernel context belongs to no Scheduler.
    auto k = cpu.spawn("k", /*kernel=*/true, worker(&cpu, &log, "k", 1));
    EXPECT_EQ(sched.threadOf(k), nullptr);
    // Another process's thread on the same Cpu is not this
    // Scheduler's, though it is a thread.
    Scheduler other(cpu, costs);
    auto o = other.spawn("o", kPrioNormal, worker(&cpu, &log, "o", 1));
    EXPECT_EQ(sched.threadOf(o), nullptr);
    EXPECT_EQ(other.threadOf(o), o);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"w"}));
}

Task
probeRunnable(Cpu *cpu, Scheduler *sched, std::vector<bool> *seen)
{
    co_await cpu->spend(5);
    seen->push_back(sched->hasRunnable());
}

TEST_F(RtTest, HasRunnableIgnoresFinishedThreads)
{
    std::vector<bool> seen;
    EXPECT_FALSE(sched.hasRunnable());
    auto a = sched.spawn("a", kPrioNormal, worker(&cpu, &log, "a", 10));
    EXPECT_TRUE(sched.hasRunnable());
    sched.spawn("b", kPrioNormal, probeRunnable(&cpu, &sched, &seen));
    // A second entry for a: once a has finished, it is a stale
    // duplicate, and while b runs it is the only entry queued.
    sched.makeReady(a);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_EQ(seen, (std::vector<bool>{false}));
    EXPECT_FALSE(sched.hasRunnable());
}

Task
yieldThenCheck(Cpu *cpu, Scheduler *sched,
               const std::weak_ptr<Context> *watched, int rounds,
               bool *released)
{
    for (int i = 0; i < rounds; ++i) {
        co_await cpu->spend(5);
        co_await sched->yield();
    }
    *released = watched->expired();
}

TEST_F(RtTest, FinishedThreadIsReleasedWhileOthersRun)
{
    // Thread a finishes while b keeps yielding, so the ready queue
    // never empties before b ends; a's context (and its coroutine
    // frame) must still be gone by then.
    std::weak_ptr<Context> watched;
    bool released = false;
    auto a = sched.spawn("a", kPrioNormal, worker(&cpu, &log, "a", 10));
    auto b = sched.spawn("b", kPrioNormal,
                         yieldThenCheck(&cpu, &sched, &watched, 5,
                                        &released));
    watched = a;
    a.reset();
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_TRUE(b->finished());
    EXPECT_TRUE(released);
}

} // namespace
