/**
 * @file
 * Unit tests for the interconnect model: ordering, latency,
 * back-pressure, head-of-line blocking, space notifications, and the
 * flat table behind the channel map: probe lengths and erase.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "net/network.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::net;

namespace
{

/** Sink with a configurable capacity and manual dequeue. */
struct QueueSink : NetSink
{
    explicit QueueSink(std::size_t capacity = ~std::size_t(0))
        : capacity(capacity)
    {}

    bool
    tryDeliver(Packet &&pkt) override
    {
        if (q.size() >= capacity)
            return false;
        q.push_back(std::move(pkt));
        return true;
    }

    std::size_t capacity;
    std::deque<Packet> q;
};

struct NetworkTest : ::testing::Test
{
    NetworkTest()
        : stats("test"), net(eq, NetworkConfig{}, "net", &stats)
    {
        detail::setThrowOnError(true);
        for (NodeId n = 0; n < 4; ++n)
            net.attach(n, &sinks[n]);
    }

    ~NetworkTest() override { detail::setThrowOnError(false); }

    Packet
    mkPkt(NodeId src, NodeId dst, std::vector<Word> payload = {})
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.handler = 7;
        p.payload = std::move(payload);
        return p;
    }

    EventQueue eq;
    StatGroup stats;
    Network net;
    QueueSink sinks[4];
};

TEST(ChannelMapTest, ProbesStayShortPastSixtyFourKChannels)
{
    // Every (src,dst) pair of a 1024-node mesh: 2^20 channels, 16x
    // the 65,536 home slots a 16-bit hash can reach. Checked every
    // 2^16 inserts so a clustering hash fails fast instead of
    // crawling through ever-longer probes.
    ChannelMap map;
    for (NodeId s = 0; s < 1024; ++s) {
        for (NodeId d = 0; d < 1024; ++d)
            map.getOrCreate(channelKey(s, d)).wordsInFlight = s ^ d;
        if ((s + 1) % 64 == 0) {
            ASSERT_LE(map.maxProbe(), 32u) << map.size() << " channels";
        }
    }
    EXPECT_EQ(map.size(), std::size_t{1} << 20);
    ASSERT_NE(map.find(channelKey(1023, 5)), nullptr);
    EXPECT_EQ(map.find(channelKey(1023, 5))->wordsInFlight, 1023u ^ 5u);
    EXPECT_EQ(map.find(channelKey(1024, 5)), nullptr);
}

TEST(FlatMapTest, TakeKeepsEveryOtherKeyReachable)
{
    // Keys come and go as the checker's in-flight table sees them:
    // sequence numbers inserted in order, retired out of order. After
    // every take, each live key must still be found with its value
    // and each taken key must be gone (backward-shift erase leaves no
    // broken probe chain and no tombstone).
    sim::FlatMap<std::uint64_t, std::uint64_t> map;
    std::vector<bool> live(4096, false);
    std::uint64_t x = 7;
    std::uint64_t next = 0;
    for (int step = 0; step < 20000; ++step) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t k = (x >> 33) % live.size();
        if ((x >> 20) % 3 != 0 && next < live.size()) {
            map.getOrCreate(next) = next * 3;
            live[next++] = true;
        } else if (live[k]) {
            const auto v = map.take(k);
            ASSERT_TRUE(v.has_value()) << k;
            EXPECT_EQ(*v, k * 3);
            live[k] = false;
        } else {
            EXPECT_FALSE(map.take(k).has_value()) << k;
        }
    }
    std::size_t count = 0;
    for (std::uint64_t k = 0; k < live.size(); ++k) {
        const std::uint64_t *v = map.find(k);
        ASSERT_EQ(v != nullptr, bool(live[k])) << k;
        if (v) {
            EXPECT_EQ(*v, k * 3);
            ++count;
        }
    }
    EXPECT_EQ(map.size(), count);
    // A taken key comes back default-constructed.
    for (std::uint64_t k = 0; k < live.size(); ++k)
        if (!live[k]) {
            EXPECT_EQ(map.getOrCreate(k), 0u);
            break;
        }
}

TEST_F(NetworkTest, DeliversWithModelLatency)
{
    net.send(mkPkt(0, 1));
    eq.run();
    ASSERT_EQ(sinks[1].q.size(), 1u);
    // base 5 + 1 hop * 2 + 2 words * 1 = 9
    EXPECT_EQ(eq.now(), 9u);
    EXPECT_EQ(sinks[1].q.front().handler, 7u);
}

TEST_F(NetworkTest, HopsAreMeshDistance)
{
    // 4x4 mesh: node 0 = (0,0), node 5 = (1,1), node 15 = (3,3).
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 1), 1u);
    EXPECT_EQ(net.hops(0, 5), 2u);
    EXPECT_EQ(net.hops(0, 15), 6u);
    EXPECT_EQ(net.hops(15, 0), 6u);
}

TEST_F(NetworkTest, PairwiseFifoEvenWithDifferentSizes)
{
    // A long message followed by a short one on the same channel:
    // the short one must not overtake.
    net.send(mkPkt(0, 1, std::vector<Word>(14, 1)));
    net.send(mkPkt(0, 1, {2}));
    eq.run();
    ASSERT_EQ(sinks[1].q.size(), 2u);
    EXPECT_EQ(sinks[1].q[0].payload.size(), 14u);
    EXPECT_EQ(sinks[1].q[1].payload.size(), 1u);
    EXPECT_LE(sinks[1].q[0].seq, sinks[1].q[1].seq);
}

TEST_F(NetworkTest, ManyMessagesStayFifoPerChannel)
{
    for (Word i = 0; i < 8; ++i) {
        while (!net.canAccept(0, 1, 3))
            eq.runOne();
        net.send(mkPkt(0, 1, {i}));
    }
    eq.run();
    ASSERT_EQ(sinks[1].q.size(), 8u);
    for (Word i = 0; i < 8; ++i)
        EXPECT_EQ(sinks[1].q[i].payload[0], i);
}

TEST_F(NetworkTest, ChannelCapacityBlocksSender)
{
    // Default capacity 64 words; 16-word messages: 4 fit.
    for (int i = 0; i < 4; ++i)
        net.send(mkPkt(0, 1, std::vector<Word>(14, 0)));
    EXPECT_FALSE(net.canAccept(0, 1, 16));
    // A different channel is unaffected.
    EXPECT_TRUE(net.canAccept(0, 2, 16));
    EXPECT_TRUE(net.canAccept(2, 1, 16));
    eq.run();
    EXPECT_TRUE(net.canAccept(0, 1, 16));
    EXPECT_EQ(sinks[1].q.size(), 4u);
}

TEST_F(NetworkTest, FullSinkBlocksChannelUntilSpaceFreed)
{
    sinks[1].capacity = 1;
    net.send(mkPkt(0, 1, {1}));
    net.send(mkPkt(0, 1, {2}));
    eq.run();
    // Second message is stuck behind the full queue.
    ASSERT_EQ(sinks[1].q.size(), 1u);
    EXPECT_EQ(sinks[1].q[0].payload[0], 1u);
    EXPECT_FALSE(net.canAccept(0, 1, 64)); // words still in flight
    EXPECT_GE(net.stats.headOfLineBlocks.value(), 1.0);

    sinks[1].q.pop_front();
    net.onSinkSpaceFreed(1);
    ASSERT_EQ(sinks[1].q.size(), 1u);
    EXPECT_EQ(sinks[1].q[0].payload[0], 2u);
}

TEST_F(NetworkTest, SubscribeSpaceFiresWhenChannelDrains)
{
    struct Counter : net::SpaceWaiter
    {
        int fired = 0;
        void onSpaceAvailable() override { ++fired; }
    } waiter;
    for (int i = 0; i < 4; ++i)
        net.send(mkPkt(0, 1, std::vector<Word>(14, 0)));
    EXPECT_FALSE(net.canAccept(0, 1, 16));
    net.subscribeSpace(0, 1, &waiter);
    EXPECT_EQ(waiter.fired, 0);
    eq.run();
    EXPECT_GE(waiter.fired, 1);
    EXPECT_TRUE(net.canAccept(0, 1, 16));
}

TEST_F(NetworkTest, LoopbackDelivers)
{
    net.send(mkPkt(2, 2, {9}));
    eq.run();
    ASSERT_EQ(sinks[2].q.size(), 1u);
    // base 5 + 0 hops + 3 words = 8
    EXPECT_EQ(eq.now(), 8u);
}

TEST_F(NetworkTest, OversizedMessagePanics)
{
    EXPECT_THROW(net.send(mkPkt(0, 1, std::vector<Word>(15, 0))),
                 SimError);
}

TEST_F(NetworkTest, StatsCountDeliveries)
{
    net.send(mkPkt(0, 1, {1, 2}));
    net.send(mkPkt(0, 2));
    eq.run();
    EXPECT_DOUBLE_EQ(net.stats.messages.value(), 2.0);
    EXPECT_DOUBLE_EQ(net.stats.words.value(), 6.0);
    EXPECT_EQ(net.stats.deliveryLatency.count(), 2u);
}

TEST_F(NetworkTest, TwoNetworksAreIndependent)
{
    NetworkConfig slow;
    slow.latencyBase = 100;
    slow.perWord = 8;
    Network os(eq, slow, "net_os", &stats);
    QueueSink osSink;
    os.attach(0, &osSink);
    os.attach(1, &osSink);

    net.send(mkPkt(0, 1));
    os.send(mkPkt(0, 1));
    eq.run();
    EXPECT_EQ(sinks[1].q.size(), 1u);
    EXPECT_EQ(osSink.q.size(), 1u);
    EXPECT_GT(os.stats.deliveryLatency.mean(),
              net.stats.deliveryLatency.mean());
}

TEST_F(NetworkTest, InterleavedChannelsDeliverByArrivalTime)
{
    // Node 3 is farther from 1 than node 0 is; with same inject time
    // the nearer sender's message arrives first.
    net.send(mkPkt(3, 1, {33}));
    net.send(mkPkt(0, 1, {11}));
    eq.run();
    ASSERT_EQ(sinks[1].q.size(), 2u);
    EXPECT_EQ(sinks[1].q[0].payload[0], 11u);
    EXPECT_EQ(sinks[1].q[1].payload[0], 33u);
}

} // namespace
