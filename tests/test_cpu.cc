/**
 * @file
 * Unit tests for the coroutine execution model (Context/Cpu).
 *
 * These tests pin down the semantics everything else relies on:
 * exact-cycle preemption of user contexts, kernel non-preemptibility,
 * trap control flow, return-path stealing, and the user-cycle timer
 * that backs the NI atomicity timer.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exec/cpu.hh"
#include "sim/event.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

using namespace fugu;
using namespace fugu::exec;

namespace
{

struct CpuTest : ::testing::Test
{
    CpuTest() : stats("test"), cpu(eq, 0, &stats)
    {
        detail::setThrowOnError(true);
    }

    ~CpuTest() override { detail::setThrowOnError(false); }

    EventQueue eq;
    StatGroup stats;
    Cpu cpu;
    std::vector<Cycle> log;
    std::vector<std::string> trace;
};

Task
spendTwice(Cpu *cpu, std::vector<Cycle> *log, Cycle a, Cycle b)
{
    co_await cpu->spend(a);
    log->push_back(cpu->now());
    co_await cpu->spend(b);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, SpendAdvancesTime)
{
    auto ctx = cpu.spawn("t", false, spendTwice(&cpu, &log, 100, 50));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{100, 150}));
    EXPECT_TRUE(ctx->finished());
    EXPECT_DOUBLE_EQ(cpu.stats.userCycles.value(), 150.0);
}

TEST_F(CpuTest, ZeroSpendCompletesWithoutTimePassing)
{
    auto ctx = cpu.spawn("t", false, spendTwice(&cpu, &log, 0, 0));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{0, 0}));
    EXPECT_TRUE(ctx->finished());
}

CoTask<int>
addLater(Cpu *cpu, int a, int b)
{
    co_await cpu->spend(10);
    co_return a + b;
}

Task
caller(Cpu *cpu, std::vector<Cycle> *log)
{
    int v = co_await addLater(cpu, 2, 3);
    log->push_back(static_cast<Cycle>(v));
    log->push_back(cpu->now());
}

TEST_F(CpuTest, NestedCoTaskReturnsValue)
{
    auto ctx = cpu.spawn("t", false, caller(&cpu, &log));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{5, 10}));
}

Task
kernelHandler(Cpu *cpu, std::vector<std::string> *trace, Cycle cost,
              unsigned line_to_lower)
{
    trace->push_back("irq@" + std::to_string(cpu->now()));
    co_await cpu->spend(cost);
    if (line_to_lower != ~0u)
        cpu->lowerIrq(line_to_lower);
    trace->push_back("irqdone@" + std::to_string(cpu->now()));
}

TEST_F(CpuTest, IrqPreemptsUserMidSpendWithExactAccounting)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 30, 0);
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // User spends 0-40, handler 40-70, user resumes 70-130, 130-140.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@40", "irqdone@70"}));
    EXPECT_EQ(log, (std::vector<Cycle>{130, 140}));
    EXPECT_DOUBLE_EQ(cpu.stats.userCycles.value(), 110.0);
    EXPECT_DOUBLE_EQ(cpu.stats.kernelCycles.value(), 30.0);
    EXPECT_DOUBLE_EQ(cpu.stats.preemptions.value(), 1.0);
}

TEST_F(CpuTest, KernelContextIsNotPreempted)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 5, 0);
    });
    auto ctx = cpu.spawn("k", true, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // Kernel runs to completion 0-110; handler only afterwards.
    EXPECT_EQ(log, (std::vector<Cycle>{100, 110}));
    EXPECT_EQ(trace,
              (std::vector<std::string>{"irq@110", "irqdone@115"}));
}

Task
computeThenSpend(Cpu *cpu, std::vector<Cycle> *log, bool *flag)
{
    co_await cpu->spend(10);
    *flag = true; // synchronous work; IRQ raised during this window
    co_await cpu->spend(10);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, IrqBetweenSpendsTakenAtNextSpendBoundary)
{
    bool flag = false;
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 7, 0);
    }, /*pulse=*/true);
    auto ctx =
        cpu.spawn("u", false, computeThenSpend(&cpu, &log, &flag));
    cpu.switchTo(ctx);
    // Raise exactly when the first spend's end event fires; the user
    // code continues synchronously, so the IRQ pends until the next
    // spend begins.
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 10);
    eq.run();
    EXPECT_TRUE(flag);
    EXPECT_EQ(log, (std::vector<Cycle>{27})); // 10 + 7 handler + 10
}

TEST_F(CpuTest, PulseLineDoesNotRedispatch)
{
    int dispatches = 0;
    cpu.setIrqHandler(0, [&](unsigned) {
        ++dispatches;
        return kernelHandler(&cpu, &trace, 5, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 100));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 10);
    eq.run();
    EXPECT_EQ(dispatches, 1);
    EXPECT_EQ(log, (std::vector<Cycle>{105, 205}));
}

TEST_F(CpuTest, IdleHookRunsWhenNothingToDo)
{
    int idles = 0;
    cpu.setIdleHook([&] { ++idles; });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 10, 10));
    cpu.switchTo(ctx);
    eq.run();
    EXPECT_EQ(idles, 1);
}

Task
blocker(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(5);
    co_await cpu->block();
    log->push_back(cpu->now());
}

TEST_F(CpuTest, BlockAndWakeResumesAtWakePoint)
{
    auto ctx = cpu.spawn("u", false, blocker(&cpu, &log));
    cpu.switchTo(ctx);
    eq.scheduleFn(
        [&] {
            EXPECT_EQ(ctx->state(), CtxState::Blocked);
            cpu.switchTo(ctx);
        },
        50);
    eq.run();
    EXPECT_EQ(log, (std::vector<Cycle>{50}));
    EXPECT_TRUE(ctx->finished());
}

Task
trapHandlerTask(Cpu *cpu, ContextPtr victim,
                std::vector<std::uint64_t> *args, Cycle cost)
{
    co_await cpu->spend(cost);
    if (args)
        args->push_back(victim->trapArg);
}

Task
trapper(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(10);
    co_await cpu->trap(3, 7);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, TrapRunsHandlerAndReturnsResult)
{
    std::vector<std::uint64_t> args;
    cpu.setTrapHandler(3, [&](ContextPtr victim) {
        return trapHandlerTask(&cpu, victim, &args, 20);
    });
    auto ctx = cpu.spawn("u", false, trapper(&cpu, &log));
    cpu.switchTo(ctx);
    eq.run();
    // The handler saw the trap argument; the victim resumed after the
    // handler's 20 cycles.
    EXPECT_EQ(args, (std::vector<std::uint64_t>{7}));
    EXPECT_EQ(log, (std::vector<Cycle>{30}));
    EXPECT_DOUBLE_EQ(cpu.stats.trapsTaken.value(), 1.0);
}

Task
stealingHandler(Cpu *cpu, std::vector<std::string> *trace,
                ContextPtr *stolen)
{
    co_await cpu->spend(5);
    *stolen = cpu->current()->takeReturnTo();
    cpu->lowerIrq(0);
    trace->push_back("stole@" + std::to_string(cpu->now()));
}

TEST_F(CpuTest, HandlerCanStealReturnPath)
{
    ContextPtr stolen;
    cpu.setIrqHandler(0, [&](unsigned) {
        return stealingHandler(&cpu, &trace, &stolen);
    });
    int idles = 0;
    cpu.setIdleHook([&] {
        ++idles;
        if (stolen) {
            auto c = stolen;
            stolen = nullptr;
            cpu.switchTo(c);
        }
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    // Preempted at 40, handler 40-45 steals; idle hook hands the
    // context back; remaining 60 cycles complete at 105.
    EXPECT_EQ(trace, (std::vector<std::string>{"stole@45"}));
    EXPECT_EQ(log, (std::vector<Cycle>{105, 115}));
    EXPECT_GE(idles, 1);
}

TEST_F(CpuTest, SwitchToWithPendingIrqDeliversInterruptFirst)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 30, 0);
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 10, 10));
    eq.scheduleFn(
        [&] {
            cpu.raiseIrq(0); // cpu idle: dispatch request
        },
        5);
    eq.scheduleFn([&] { /* nothing else pending */ }, 6);
    cpu.setIdleHook([&] {});
    eq.run(4); // let nothing happen yet
    cpu.switchTo(ctx);
    eq.run();
    // IRQ at 5 dispatches immediately (cpu held the unstarted ctx as
    // current from cycle 4)... the user started at 4, so it is
    // preempted at 5 and resumes after the handler.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@5", "irqdone@35"}));
    EXPECT_EQ(log, (std::vector<Cycle>{44, 54}));
}

Task
timedUser(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(40);
    co_await cpu->trap(1, 0); // kernel spends 500; timer must pause
    co_await cpu->spend(70);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, UserTimerCountsOnlyUserCycles)
{
    cpu.setTrapHandler(1, [&](ContextPtr victim) {
        return trapHandlerTask(&cpu, victim, nullptr, 500);
    });
    Cycle fired_at = 0;
    auto ctx = cpu.spawn("u", false, timedUser(&cpu, &log));
    cpu.setUserTimer(100, [&] { fired_at = eq.now(); });
    cpu.switchTo(ctx);
    eq.run();
    // 40 user + 500 kernel + 60 user = wall 600 when 100 user cycles
    // have elapsed.
    EXPECT_EQ(fired_at, 600u);
    EXPECT_EQ(log, (std::vector<Cycle>{610}));
}

TEST_F(CpuTest, UserTimerCancel)
{
    Cycle fired_at = 0;
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(80, [&] { fired_at = eq.now(); });
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.cancelUserTimer(); }, 60);
    eq.run();
    EXPECT_EQ(fired_at, 0u);
}

TEST_F(CpuTest, UserTimerFiringExactlyAtSpendEndPendsInterrupt)
{
    // Timer cb raises a pulse IRQ; deadline == end of first spend.
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 9, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.setUserTimer(50, [&] { cpu.raiseIrq(0); });
    cpu.switchTo(ctx);
    eq.run();
    // First spend completes at 50; IRQ taken before the second spend
    // makes progress; second spend then runs 59-109.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@50", "irqdone@59"}));
    EXPECT_EQ(log, (std::vector<Cycle>{50, 109}));
}

TEST_F(CpuTest, UserTimerPreemptsMidSpend)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 9, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.setUserTimer(30, [&] { cpu.raiseIrq(0); });
    cpu.switchTo(ctx);
    eq.run();
    // Fire at 30 mid-spend; handler 30-39; resume 39, finish at 109.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@30", "irqdone@39"}));
    EXPECT_EQ(log, (std::vector<Cycle>{109, 119}));
}

TEST_F(CpuTest, UserTimerRemainingReflectsProgress)
{
    // Armed at cycle 30, in the middle of a 50-cycle spend, the timer
    // counts from the 30 user cycles already spent: it fires at 100,
    // not at 70.
    Cycle fired_at = 0;
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    cpu.switchTo(ctx);
    eq.scheduleFn(
        [&] { cpu.setUserTimer(70, [&] { fired_at = eq.now(); }); }, 30);
    eq.run();
    EXPECT_EQ(fired_at, 100u);
    EXPECT_EQ(log, (std::vector<Cycle>{50, 100}));
}

// A spend with nothing due before its end ends without an event
// (spends_elided); the tests below pin what that path must still do.

TEST_F(CpuTest, ElidedSpendFiresBoundaryTimerAtTheBoundary)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 9, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 50, 50));
    Cycle fired_at = 0;
    double elided_then = -1;
    cpu.setUserTimer(50, [&] {
        fired_at = eq.now();
        elided_then = cpu.stats.spendsElided.value();
        cpu.raiseIrq(0);
    });
    cpu.switchTo(ctx);
    eq.run();
    // The first spend ended without an event, and its end fired the
    // timer due exactly then, before the context went on; the IRQ it
    // raised was taken before the second spend.
    EXPECT_EQ(fired_at, 50u);
    EXPECT_EQ(elided_then, 1.0);
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@50", "irqdone@59"}));
    EXPECT_EQ(log, (std::vector<Cycle>{50, 109}));
    EXPECT_DOUBLE_EQ(cpu.stats.userCycles.value(), 100.0);
}

Task
spendOnce(Cpu *cpu, std::vector<Cycle> *log, Cycle n)
{
    co_await cpu->spend(n);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, DeadlineInsideSpendPreventsElision)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 0, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, spendOnce(&cpu, &log, 100));
    cpu.setUserTimer(30, [&] { cpu.raiseIrq(0); });
    cpu.switchTo(ctx);
    eq.run();
    // The queue is empty, but the timer is due inside the spend, so
    // the spend keeps its events and is preempted at 30.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@30", "irqdone@30"}));
    EXPECT_EQ(log, (std::vector<Cycle>{100}));
    EXPECT_DOUBLE_EQ(cpu.stats.spendsElided.value(), 0.0);
    EXPECT_DOUBLE_EQ(cpu.stats.preemptions.value(), 1.0);
}

Task
raiseThenSpend(Cpu *cpu, std::vector<Cycle> *log)
{
    co_await cpu->spend(10);
    cpu->raiseIrq(0); // pends: this context runs between spends
    co_await cpu->spend(10);
    log->push_back(cpu->now());
}

TEST_F(CpuTest, PendingIrqPreemptsBeforeAnElidableSpend)
{
    cpu.setIrqHandler(0, [&](unsigned) {
        return kernelHandler(&cpu, &trace, 7, ~0u);
    }, /*pulse=*/true);
    auto ctx = cpu.spawn("u", false, raiseThenSpend(&cpu, &log));
    cpu.switchTo(ctx);
    eq.run();
    // Nothing is due at 10, yet the pending line is taken before the
    // second spend starts, not after it.
    EXPECT_EQ(trace, (std::vector<std::string>{"irq@10", "irqdone@17"}));
    EXPECT_EQ(log, (std::vector<Cycle>{27}));
    EXPECT_DOUBLE_EQ(cpu.stats.preemptions.value(), 1.0);
    EXPECT_GE(cpu.stats.spendsElided.value(), 1.0);
}

TEST_F(CpuTest, FrozenResumeKeepsItsSpendEvent)
{
    // Resuming a frozen context begins the rest of its spend inside
    // the caller, here an idle hook with work after switchTo. That
    // spend keeps its event even with nothing else due, so the hook
    // finishes at the cycle it was called in.
    ContextPtr stolen;
    cpu.setIrqHandler(0, [&](unsigned) {
        return stealingHandler(&cpu, &trace, &stolen);
    });
    cpu.setIdleHook([&] {
        if (!stolen)
            return;
        cpu.switchTo(std::exchange(stolen, nullptr));
        trace.push_back("hook@" + std::to_string(cpu.now()));
    });
    auto ctx = cpu.spawn("u", false, spendTwice(&cpu, &log, 100, 10));
    cpu.switchTo(ctx);
    eq.scheduleFn([&] { cpu.raiseIrq(0); }, 40);
    eq.run();
    EXPECT_EQ(trace, (std::vector<std::string>{"stole@45", "hook@45"}));
    EXPECT_EQ(log, (std::vector<Cycle>{105, 115}));
}

TEST_F(CpuTest, DeterministicRerun)
{
    auto run = [](std::vector<std::string> &tr) {
        EventQueue eq;
        StatGroup sg("t");
        Cpu c(eq, 0, &sg);
        c.setIrqHandler(0, [&](unsigned) {
            return kernelHandler(&c, &tr, 13, 0);
        });
        std::vector<Cycle> lg;
        auto ctx = c.spawn("u", false, spendTwice(&c, &lg, 77, 33));
        c.switchTo(ctx);
        eq.scheduleFn([&] { c.raiseIrq(0); }, 31);
        eq.run();
        tr.push_back("end@" + std::to_string(eq.now()));
    };
    std::vector<std::string> t1, t2;
    run(t1);
    run(t2);
    EXPECT_EQ(t1, t2);
}

Task
parkHoldingSelf(Cpu *cpu, ContextPtr *slot)
{
    // Body runs only once switched to, after the caller filled *slot.
    ContextPtr self = *slot;
    co_await cpu->block();
    // Never resumed; `self` keeps the Context alive from inside its
    // own coroutine frame (a shared_ptr cycle).
    (void)self;
}

TEST_F(CpuTest, TeardownFreesBlockedContexts)
{
    std::weak_ptr<Context> observed;
    {
        EventQueue q;
        StatGroup sg("t2");
        Cpu c(q, 0, &sg);
        ContextPtr slot;
        ContextPtr ctx = c.spawn("parked", false,
                                 parkHoldingSelf(&c, &slot));
        slot = ctx;
        observed = ctx;
        c.switchTo(ctx);
        q.run();
        EXPECT_EQ(ctx->state(), CtxState::Blocked);
        slot.reset();
        ctx.reset();
        // Only the frame's self-reference remains: without the Cpu's
        // context registry this cycle would leak.
        EXPECT_FALSE(observed.expired());
    }
    EXPECT_TRUE(observed.expired());
}

} // namespace
