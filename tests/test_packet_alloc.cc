/**
 * @file
 * Allocation test for the packet path: after warm-up, injecting a
 * message, carrying it across the fabric, delivering it to a sink,
 * and releasing the channel must not touch the global heap. The
 * inline payload (WordVec), the flat channel map, the RingDeque
 * arrival queues, the pooled arrival events and the intrusive
 * back-pressure waiters together leave nothing to allocate in steady
 * state.
 *
 * The same counter then follows the leaf operations of a fast-case
 * delivery on a running machine: Process::compute and UdmPort::read
 * are awaiters with no coroutine frame, so a warmed-up compute loop
 * allocates nothing, a handler that reads every payload word
 * allocates no more than one that reads a single word, the
 * interrupt and upcall Contexts and coroutine frames come from the
 * per-thread pool, so a whole delivery allocates nothing, and the
 * invariant checker adds no allocation to it.
 *
 * Same shape as test_event_alloc: counting operator new/delete
 * (count_alloc.cc), warm up to high-water capacity, snapshot the
 * counter, assert it holds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "count_alloc.hh"
#include "glaze/machine.hh"
#include "net/network.hh"

namespace
{

using namespace fugu;
using namespace fugu::net;

/** Accepts everything; keeps only a delivery count. */
struct CountSink : NetSink
{
    std::uint64_t delivered = 0;

    bool
    tryDeliver(Packet &&) override
    {
        ++delivered;
        return true;
    }
};

struct PacketAllocTest : ::testing::Test
{
    static constexpr unsigned kNodes = 8;

    PacketAllocTest()
        : stats("t"), net(eq, NetworkConfig{}, "net", &stats)
    {
        for (NodeId n = 0; n < kNodes; ++n)
            net.attach(n, &sinks[n]);
    }

    Packet
    mkPkt(NodeId src, NodeId dst, unsigned payload_words)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.handler = 7;
        for (unsigned i = 0; i < payload_words; ++i)
            p.payload.push_back(i);
        return p;
    }

    /** One all-pairs round: every node sends to every other node. */
    void
    round(unsigned payload_words)
    {
        for (NodeId s = 0; s < kNodes; ++s)
            for (NodeId d = 0; d < kNodes; ++d) {
                while (!net.canAccept(s, d, 2 + payload_words))
                    eq.runOne();
                net.send(mkPkt(s, d, payload_words));
            }
        eq.run();
    }

    EventQueue eq;
    StatGroup stats;
    Network net;
    CountSink sinks[kNodes];
};

TEST_F(PacketAllocTest, CountingAllocatorIsLinked)
{
    // The tests below assert that the counter did not move, which
    // would also hold if the counting operator new were not linked. A
    // direct call whose result escapes through a volatile cannot be
    // elided.
    const std::uint64_t before = g_newCalls.load();
    void *volatile p = ::operator new(64);
    ::operator delete(p);
    EXPECT_GT(g_newCalls.load(), before);
}

TEST_F(PacketAllocTest, SteadyStateDeliveryIsAllocationFree)
{
    // Warm-up: populate every (src,dst) channel, grow the channel
    // map, the arrival rings and the event queue's slot chunks and
    // far-band heap to their high-water marks — including max-size
    // payloads. Near-band buckets are lists through the events' own
    // nodes and never allocate. Run rounds until a long quiet streak,
    // so a late high-water mark cannot pass for steady state.
    int quiet = 0;
    for (int r = 0; quiet < 512 && r < 50000; ++r) {
        const std::uint64_t b = g_newCalls.load();
        round(kMaxPayloadWords);
        quiet = g_newCalls.load() == b ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, 512) << "packet path never reached an "
                            "allocation-free steady state";
    const std::uint64_t before_count = sinks[0].delivered;
    ASSERT_GT(before_count, 0u);

    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 256; ++r)
        round(kMaxPayloadWords);
    EXPECT_EQ(g_newCalls.load(), before)
        << "packet path allocated in steady state";
    EXPECT_GT(sinks[0].delivered, before_count);
}

TEST_F(PacketAllocTest, BackPressureWakeupIsAllocationFree)
{
    // Saturate one channel so sends block, then drain it: the
    // intrusive space waiter must link, fire and unlink without
    // touching the heap.
    struct Waiter : SpaceWaiter
    {
        int fired = 0;
        void onSpaceAvailable() override { ++fired; }
    } waiter;

    auto saturate = [&] {
        unsigned sent = 0;
        while (net.canAccept(0, 1, kMaxMessageWords)) {
            net.send(mkPkt(0, 1, kMaxPayloadWords));
            ++sent;
        }
        return sent;
    };

    // Warm-up until the saturate/subscribe/drain cycle stops touching
    // the heap (the queue and channel reach their high-water marks,
    // see above).
    auto cycle = [&] {
        saturate();
        net.subscribeSpace(0, 1, &waiter);
        eq.run();
    };
    int quiet = 0;
    for (int r = 0; quiet < 512 && r < 50000; ++r) {
        const std::uint64_t b = g_newCalls.load();
        cycle();
        quiet = g_newCalls.load() == b ? quiet + 1 : 0;
    }
    ASSERT_EQ(quiet, 512) << "back-pressure path never reached an "
                            "allocation-free steady state";
    ASSERT_GE(waiter.fired, 1);

    const int fired_before = waiter.fired;
    const std::uint64_t before = g_newCalls.load();
    for (int r = 0; r < 256; ++r)
        cycle();
    EXPECT_EQ(g_newCalls.load(), before)
        << "back-pressure wakeup allocated in steady state";
    EXPECT_GE(waiter.fired, fired_before + 256);
}

// ---------------------------------------------------------------------
// Fast-case delivery leaves
// ---------------------------------------------------------------------

/** Spends of one cycle, after a warm-up run of the same. */
exec::CoTask<void>
computeLoop(glaze::Process &p, std::uint64_t *allocs)
{
    for (unsigned i = 0; i < 4 * 1024; ++i)
        co_await p.compute(1);
    const std::uint64_t before = g_newCalls.load();
    for (unsigned i = 0; i < 1000; ++i)
        co_await p.compute(1);
    *allocs = g_newCalls.load() - before;
}

TEST(FastCaseAllocTest, ComputeIsAllocationFree)
{
    glaze::MachineConfig cfg;
    cfg.nodes = 1;
    glaze::Machine m(cfg);
    std::uint64_t allocs = ~0ull;
    glaze::Job *job = m.addJob("compute", [&allocs](glaze::Process &p) {
        return computeLoop(p, &allocs);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(allocs, 0u) << "1000 compute(1) awaits allocated";
}

constexpr Word kReadHandler = 1;
constexpr unsigned kDeliveries = 1280;
constexpr unsigned kWarmDeliveries = 1024;

/** Node 1's view of the run: how many payload words each handler reads. */
struct Delivery
{
    unsigned words = 0;
    unsigned handled = 0;
    std::vector<std::uint64_t> marks; ///< g_newCalls at handler entry
};

/**
 * One full-size message every 2048 cycles, so each is handled on the
 * fast path before the next is sent.
 */
exec::CoTask<void>
spacedSender(glaze::Process &p)
{
    PayloadVec payload;
    for (unsigned i = 0; i < kMaxPayloadWords; ++i)
        payload.push_back(i);
    for (unsigned i = 0; i < kDeliveries; ++i) {
        co_await p.compute(2048);
        co_await p.port().send(1, kReadHandler, payload);
    }
}

exec::CoTask<void>
reader(glaze::Process &p, Delivery *d)
{
    rt::CondVar done(p.threads());
    p.port().setHandler(
        kReadHandler,
        [d, &done](core::UdmPort &port, NodeId) -> exec::CoTask<void> {
            d->marks.push_back(g_newCalls.load());
            for (unsigned i = 0; i < d->words; ++i)
                (void)co_await port.read(i);
            co_await port.dispose();
            if (++d->handled == kDeliveries)
                done.notifyAll();
        });
    while (d->handled < kDeliveries)
        co_await done.wait();
}

/**
 * Heap allocations over the deliveries after warm-up (both nodes: the
 * send, the interrupt and upcall contexts, the handler and dispose,
 * and the invariant checker unless @p check is false).
 * Warm-up grows the event queue's slots, the checker's tables and the
 * frame and Context pools to what one delivery at a time needs.
 */
std::uint64_t
deliveryAllocations(unsigned words, bool check = true)
{
    glaze::MachineConfig cfg;
    cfg.nodes = 2;
    cfg.check.enabled = check;
    glaze::Machine m(cfg);
    Delivery d;
    d.words = words;
    d.marks.reserve(kDeliveries);
    glaze::Job *job = m.addJob("deliver", [&d](glaze::Process &p) {
        return p.node() == 0 ? spacedSender(p) : reader(p, &d);
    });
    m.installJob(job);
    EXPECT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(d.marks.size(), kDeliveries);
    const auto &st = job->procs[1]->stats;
    EXPECT_EQ(st.directDelivered.value(), kDeliveries);
    EXPECT_EQ(st.bufferedDelivered.value(), 0);
    if (d.marks.size() != kDeliveries)
        return ~0ull;
    return d.marks.back() - d.marks[kWarmDeliveries];
}

TEST(FastCaseAllocTest, PayloadReadsAreAllocationFree)
{
    const std::uint64_t one = deliveryAllocations(1);
    const std::uint64_t all = deliveryAllocations(kMaxPayloadWords);
    EXPECT_EQ(all, one) << "reading " << kMaxPayloadWords
                        << " payload words instead of 1 allocated";
}

TEST(FastCaseAllocTest, DeliveryIsAllocationFree)
{
    // The interrupt and upcall Contexts and every coroutine frame of
    // the send, the handler and dispose come from the per-thread
    // pool, which warm-up has filled.
    const std::uint64_t n = deliveryAllocations(1);
    EXPECT_EQ(n, 0u) << n << " heap blocks over "
                     << kDeliveries - kWarmDeliveries - 1
                     << " warmed-up deliveries";
}

TEST(FastCaseAllocTest, CheckerAddsNoAllocations)
{
    // The checker's per-message and per-stream state lives in flat
    // tables that reach their high-water mark during warm-up, and its
    // periodic conservation sweep keeps no per-sweep map.
    const std::uint64_t on = deliveryAllocations(1, /*check=*/true);
    const std::uint64_t off = deliveryAllocations(1, /*check=*/false);
    EXPECT_EQ(on, off) << "the invariant checker allocated "
                       << static_cast<std::int64_t>(on - off)
                       << " heap blocks over "
                       << kDeliveries - kWarmDeliveries - 1
                       << " warmed-up deliveries";
}

} // namespace
