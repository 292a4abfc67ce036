/**
 * @file
 * Allocation tests for the event kernel: after warm-up, the
 * schedule/fire, schedule/cancel and cancel-and-replace hot paths must
 * not touch the global heap at all — per-slot nodes with inline
 * SmallFn storage, near-band buckets threaded through those nodes,
 * and recycled slot/heap capacity cover steady state.
 *
 * The global operator new/delete are replaced with counting versions
 * (count_alloc.cc); each test warms the queue up (growing pools and
 * vector capacity), snapshots the allocation counter, runs the
 * steady-state loop, and asserts the counter did not move.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "count_alloc.hh"
#include "sim/event.hh"

namespace
{

using namespace fugu;

TEST(EventAllocTest, CountingAllocatorIsLinked)
{
    // Every other test here asserts that the counter did not move,
    // which would also hold if the counting operator new were not
    // linked. A direct call whose result escapes through a volatile
    // cannot be elided.
    const std::uint64_t before = g_newCalls.load();
    void *volatile p = ::operator new(64);
    ::operator delete(p);
    EXPECT_GT(g_newCalls.load(), before);
}

/** Chained one-shot callable with a capture the size of a Packet. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    std::uint64_t pad[5];

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->scheduleFn(*this, eq->now() + 1, "chain");
    }
};

TEST(EventAllocTest, ScheduleFireSteadyStateIsAllocationFree)
{
    EventQueue eq;
    // Warm-up grows the slot chunks; the 64 * 1024 events it fires
    // also wrap the near band's ring once.
    std::uint64_t remaining = 70000;
    for (unsigned i = 0; i < 64; ++i)
        eq.scheduleFn(Chain{&eq, &remaining, {}}, eq.now() + 1,
                      "chain");
    eq.run();
    ASSERT_EQ(remaining, 0u);

    remaining = 20000;
    for (unsigned i = 0; i < 64; ++i)
        eq.scheduleFn(Chain{&eq, &remaining, {}}, eq.now() + 1,
                      "chain");
    const std::uint64_t before = g_newCalls.load();
    eq.run();
    EXPECT_EQ(g_newCalls.load(), before)
        << "schedule/fire steady state allocated";
    EXPECT_EQ(remaining, 0u);
}

TEST(EventAllocTest, ScheduleCancelSteadyStateIsAllocationFree)
{
    EventQueue eq;
    std::vector<EventHandle> handles(256);
    int sink = 0;
    auto round = [&] {
        for (std::size_t i = 0; i < handles.size(); ++i)
            handles[i] = eq.scheduleFn([&sink] { ++sink; },
                                       eq.now() + 100 + i, "churn");
        for (const EventHandle &h : handles)
            eq.cancelFn(h);
    };
    for (int r = 0; r < 8; ++r) // warm-up
        round();
    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 64; ++r)
        round();
    EXPECT_EQ(g_newCalls.load(), before)
        << "schedule/cancel steady state allocated";
    eq.run();
    EXPECT_EQ(sink, 0);
}

TEST(EventAllocTest, RescheduleChurnSteadyStateIsAllocationFree)
{
    EventQueue eq;
    std::vector<EventHandle> handles(16);
    int sink = 0;
    // Cancel and replace each handle in turn. Deltas up to 3000
    // drive both the near band and the far band, triggering sweeps
    // of each.
    auto churn = [&] {
        for (std::uint64_t i = 0; i < 20000; ++i) {
            EventHandle &h = handles[i % handles.size()];
            eq.cancelFn(h);
            h = eq.scheduleFn([&sink] { ++sink; },
                              eq.now() + 1 + i % 3000, "churn");
        }
    };
    churn(); // warm-up
    const std::uint64_t before = g_newCalls.load();
    churn();
    EXPECT_EQ(g_newCalls.load(), before)
        << "cancel-and-replace steady state allocated";
    for (const EventHandle &h : handles)
        eq.cancelFn(h);
    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(sink, 0);
}

} // namespace
