/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/log.hh"

using namespace fugu;

namespace
{

class ThrowOnError : public ::testing::Test
{
  protected:
    void SetUp() override { detail::setThrowOnError(true); }
    void TearDown() override { detail::setThrowOnError(false); }
};

using EventTest = ThrowOnError;
using Log = std::vector<std::string>;

/** Schedule a callable that appends @p name to @p log when it fires. */
EventHandle
scheduleLog(EventQueue &eq, Log &log, const char *name, Cycle when)
{
    return eq.scheduleFn([&log, name] { log.push_back(name); }, when,
                         name);
}

TEST_F(EventTest, FiresInTimeOrder)
{
    EventQueue eq;
    Log log;
    scheduleLog(eq, log, "b", 20);
    scheduleLog(eq, log, "a", 10);
    scheduleLog(eq, log, "c", 30);
    eq.run();
    EXPECT_EQ(log, (Log{"a", "b", "c"}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST_F(EventTest, SameCycleFiresInScheduleOrder)
{
    EventQueue eq;
    Log log;
    scheduleLog(eq, log, "c", 5);
    scheduleLog(eq, log, "a", 5);
    scheduleLog(eq, log, "b", 5);
    eq.run();
    EXPECT_EQ(log, (Log{"c", "a", "b"}));
}

TEST_F(EventTest, DescheduleCancels)
{
    // Cancelling the earlier of two events leaves only the later one.
    EventQueue eq;
    Log log;
    const EventHandle a = scheduleLog(eq, log, "a", 10);
    scheduleLog(eq, log, "b", 20);
    eq.cancelFn(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(log, (Log{"b"}));
}

TEST_F(EventTest, RescheduleMovesEvent)
{
    // Cancel, then schedule again: the Cpu's own pattern.
    EventQueue eq;
    Log log;
    const EventHandle a = scheduleLog(eq, log, "a", 10);
    scheduleLog(eq, log, "b", 20);
    eq.cancelFn(a);
    scheduleLog(eq, log, "a", 30);
    eq.run();
    EXPECT_EQ(log, (Log{"b", "a"}));
}

TEST_F(EventTest, EventMaySelfReschedule)
{
    // A callable that schedules its successor while it runs.
    struct Periodic
    {
        EventQueue *eq;
        int *count;

        void
        operator()() const
        {
            if (++*count < 5)
                eq->scheduleFn(*this, eq->now() + 10, "periodic");
        }
    };

    EventQueue eq;
    int count = 0;
    eq.scheduleFn(Periodic{&eq, &count}, 0, "periodic");
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST_F(EventTest, ScheduleFnAndCancel)
{
    EventQueue eq;
    Log log;
    scheduleLog(eq, log, "a", 10);
    const EventHandle b = scheduleLog(eq, log, "b", 20);
    eq.cancelFn(b);
    eq.run();
    EXPECT_EQ(log, (Log{"a"}));
}

TEST_F(EventTest, CancelAfterFireIsNoop)
{
    EventQueue eq;
    int fired = 0;
    auto handle = eq.scheduleFn([&] { ++fired; }, 10);
    eq.run();
    eq.cancelFn(handle); // already fired; must not crash
    EXPECT_EQ(fired, 1);
}

TEST_F(EventTest, CancelOwnHandleWhileFiringIsNoop)
{
    // A slot is retired before its callable runs and freed only after
    // it returns: cancelling its own handle does nothing, and the
    // successor it schedules cannot reuse the running callable's node
    // (which would overwrite `name` before it is read).
    EventQueue eq;
    Log log;
    EventHandle self;
    self = eq.scheduleFn(
        [&, name = "first"] {
            eq.cancelFn(self);
            scheduleLog(eq, log, "second", eq.now() + 1);
            log.push_back(name);
        },
        10, "first");
    eq.run();
    EXPECT_EQ(log, (Log{"first", "second"}));
    EXPECT_EQ(eq.now(), 11u);
    EXPECT_TRUE(eq.empty());
}

TEST_F(EventTest, TeardownDestroysPendingCaptures)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.scheduleFn([token] {}, 10, "near");
        eq.scheduleFn([token] {}, 100000, "far");
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST_F(EventTest, RunUntilStopsAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 100);
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST_F(EventTest, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleFn([] {}, 100);
    eq.run();
    EXPECT_THROW(eq.scheduleFn([] {}, 50, "late"), SimError);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST_F(EventTest, RunMaxEventsStopsEarlyAndKeepsClock)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 20);
    eq.scheduleFn([&] { ++fired; }, 30);
    // Cut short by max_events: the clock must stay at the last fired
    // event, not jump to the horizon.
    EXPECT_EQ(eq.run(100, 2), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    // Resuming with the same horizon drains the rest and then the
    // clock advances to the horizon.
    EXPECT_EQ(eq.run(100), 1u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 100u);
}

TEST_F(EventTest, RunMaxEventsExactlyAtHorizonBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 10);
    eq.scheduleFn([&] { ++fired; }, 99);
    // max_events == number of events before the horizon: the budget
    // runs out first, so the clock stays on the last event.
    EXPECT_EQ(eq.run(50, 1), 1u);
    EXPECT_EQ(eq.now(), 10u);
    // No events left before the horizon: clock advances to it.
    EXPECT_EQ(eq.run(50, 1), 0u);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 99u);
}

TEST_F(EventTest, StaleHandleOfReusedSlotDoesNotCancel)
{
    EventQueue eq;
    int a = 0, b = 0;
    auto ha = eq.scheduleFn([&] { ++a; }, 10);
    eq.cancelFn(ha);
    // The freed slot is reused immediately; the old handle must be
    // dead (generation mismatch), not alias the new event.
    auto hb = eq.scheduleFn([&] { ++b; }, 10);
    eq.cancelFn(ha); // stale: must be a no-op
    eq.run();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    (void)hb;
}

TEST_F(EventTest, FarFutureEventsCrossTheRingWindow)
{
    // Events beyond the near-band window park in the overflow heap
    // and migrate as the window advances; order must be unaffected.
    EventQueue eq;
    Log log;
    scheduleLog(eq, log, "b", 5000);
    scheduleLog(eq, log, "a", 3);
    scheduleLog(eq, log, "c", 200000);
    scheduleLog(eq, log, "d", 5000); // same cycle as b, scheduled later
    eq.run();
    EXPECT_EQ(log, (Log{"a", "b", "d", "c"}));
    EXPECT_EQ(eq.now(), 200000u);
}

TEST_F(EventTest, SameCycleOrderAcrossBandMigration)
{
    // 'a' enters the far band; a filler fire advances the window so
    // 'a' migrates to the ring; 'b' then schedules at the same cycle
    // directly into the ring. Schedule order must still hold.
    EventQueue eq;
    Log log;
    scheduleLog(eq, log, "a", 2000);
    scheduleLog(eq, log, "f", 1990);
    eq.run(1995);
    scheduleLog(eq, log, "b", 2000);
    eq.run();
    EXPECT_EQ(log, (Log{"f", "a", "b"}));
}

TEST_F(EventTest, ScheduleAfterIdleAdvancePastWindow)
{
    // run(until) may move the clock far beyond the current ring
    // window without firing anything; scheduling afterwards must
    // still work and fire at the right time.
    EventQueue eq;
    eq.run(50000);
    EXPECT_EQ(eq.now(), 50000u);
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 50001);
    eq.scheduleFn([&] { ++fired; }, 123456);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 123456u);
}

TEST_F(EventTest, RescheduleChurnKeepsQueueBounded)
{
    // Lazy cancellation leaves dead entries behind; the sweeps must
    // keep total held entries O(live), not O(cancels). The seed
    // kernel grew its heap by one dead entry per reschedule forever.
    EventQueue eq;
    int fired = 0;
    std::vector<EventHandle> handles(16);
    auto replace = [&](std::uint64_t i, Cycle when) {
        EventHandle &h = handles[i % handles.size()];
        eq.cancelFn(h);
        h = eq.scheduleFn([&fired] { ++fired; }, when, "churn");
    };

    // Near-band churn: targets stay inside the ring window.
    for (std::uint64_t i = 0; i < 100000; ++i)
        replace(i, eq.now() + 1 + i % 500);
    EXPECT_LT(eq.heapSize(), 16u + 200u);

    // Far-band churn: targets park in the overflow heap.
    for (std::uint64_t i = 0; i < 100000; ++i)
        replace(i, eq.now() + 100000 + i);
    EXPECT_LT(eq.heapSize(), 16u + 200u);

    for (const EventHandle &h : handles)
        eq.cancelFn(h);
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(fired, 0);
}

TEST_F(EventTest, CancelInsideBucketKeepsTheRestInOrder)
{
    // A near-band cancel unlinks its node from the middle, the head
    // or the tail of its cycle's list; the rest fire in schedule
    // order, and a bucket emptied by cancels holds nothing.
    EventQueue eq;
    Log log;
    const EventHandle a = scheduleLog(eq, log, "a", 5);
    scheduleLog(eq, log, "b", 5);
    const EventHandle c = scheduleLog(eq, log, "c", 5);
    scheduleLog(eq, log, "d", 5);
    const EventHandle e = scheduleLog(eq, log, "e", 5);
    const EventHandle x = scheduleLog(eq, log, "x", 7);
    eq.cancelFn(c);
    eq.cancelFn(a);
    eq.cancelFn(e);
    eq.cancelFn(x);
    EXPECT_EQ(eq.heapSize(), 2u); // live entries only
    eq.run();
    EXPECT_EQ(log, (Log{"b", "d"}));
    EXPECT_EQ(eq.now(), 5u);
}

/**
 * Run @p probe inside an event at cycle 10 of a run up to @p until,
 * after scheduling @p setup's events, and return the clock it leaves.
 */
template <typename Setup, typename Probe>
Cycle
probeAt10(EventQueue &eq, Cycle until, Setup setup, Probe probe)
{
    setup();
    eq.scheduleFn(probe, 10, "probe");
    eq.run(until);
    return eq.now();
}

TEST_F(EventTest, TryAdvanceMovesTheClockOverAnIdleStretch)
{
    EventQueue eq;
    Log log;
    bool moved = false;
    Cycle seen = 0;
    probeAt10(
        eq, kMaxCycle, [&] { scheduleLog(eq, log, "later", 40); },
        [&] {
            moved = eq.tryAdvance(39);
            seen = eq.now();
        });
    EXPECT_TRUE(moved);
    EXPECT_EQ(seen, 39u);
    EXPECT_EQ(log, (Log{"later"}));
    EXPECT_EQ(eq.now(), 40u);
}

TEST_F(EventTest, TryAdvanceRefusesAnEntryDueNow)
{
    EventQueue eq;
    Log log;
    bool moved = true;
    probeAt10(
        eq, kMaxCycle, [] {},
        [&] {
            scheduleLog(eq, log, "now", 10);
            moved = eq.tryAdvance(20);
        });
    EXPECT_FALSE(moved);
    EXPECT_EQ(log, (Log{"now"}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST_F(EventTest, TryAdvanceRefusesAnEntryDueAtTheTarget)
{
    // Scheduled before whatever would end at the target, so it would
    // fire first.
    EventQueue eq;
    Log log;
    bool at = true, before = false;
    Cycle seen = 0;
    probeAt10(
        eq, kMaxCycle, [&] { scheduleLog(eq, log, "due", 20); },
        [&] {
            at = eq.tryAdvance(20);
            before = eq.tryAdvance(19);
            seen = eq.now();
        });
    EXPECT_FALSE(at);
    EXPECT_TRUE(before);
    EXPECT_EQ(seen, 19u);
    EXPECT_EQ(log, (Log{"due"}));
}

TEST_F(EventTest, TryAdvanceRefusesATargetPastTheWindow)
{
    // The near band covers [0, 1024) here; past it, the far band may
    // hold the next event, so the clock does not move.
    EventQueue eq;
    bool past = true, last = false;
    Cycle seen = 0;
    probeAt10(
        eq, kMaxCycle, [] {},
        [&] {
            past = eq.tryAdvance(1024);
            last = eq.tryAdvance(1023);
            seen = eq.now();
        });
    EXPECT_FALSE(past);
    EXPECT_TRUE(last);
    EXPECT_EQ(seen, 1023u);
}

TEST_F(EventTest, TryAdvanceRefusesATargetPastTheRunHorizon)
{
    EventQueue eq;
    bool past = true, at = false;
    Cycle seen = 0;
    const Cycle end = probeAt10(
        eq, 100, [] {},
        [&] {
            past = eq.tryAdvance(101);
            at = eq.tryAdvance(100);
            seen = eq.now();
        });
    EXPECT_FALSE(past);
    EXPECT_TRUE(at);
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(end, 100u);

    // runOne's horizon bounds it the same way; outside any run,
    // nothing moves.
    bool one = true;
    eq.scheduleFn([&] { one = eq.tryAdvance(151); }, 120);
    EXPECT_TRUE(eq.runOne(150));
    EXPECT_FALSE(one);
    EXPECT_FALSE(eq.tryAdvance(130));
    EXPECT_EQ(eq.now(), 120u);
}

TEST_F(EventTest, TryAdvanceSucceedsOnceTheBlockingEventIsCancelled)
{
    EventQueue eq;
    Log log;
    EventHandle blocker;
    bool blocked = true, moved = false;
    probeAt10(
        eq, kMaxCycle,
        [&] { blocker = scheduleLog(eq, log, "blocker", 15); },
        [&] {
            blocked = eq.tryAdvance(30);
            eq.cancelFn(blocker);
            moved = eq.tryAdvance(30);
        });
    EXPECT_FALSE(blocked);
    EXPECT_TRUE(moved);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(eq.now(), 30u);
}

TEST_F(EventTest, PendingCountsLiveEvents)
{
    EventQueue eq;
    Log log;
    const EventHandle a = scheduleLog(eq, log, "a", 10);
    scheduleLog(eq, log, "b", 20);
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancelFn(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
}

} // namespace
