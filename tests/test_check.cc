/**
 * @file
 * InvariantChecker detection tests: the checker must catch what it
 * claims to catch, each planted violation counted exactly once, and
 * stay silent on legal traffic however much of it is in flight.
 *
 * Each test drives the checker of an idle 2-node Machine directly
 * through its packet-watcher hooks (onInject, onDeliver, onDrop) with
 * hand-built packets, so every delivery order, duplicate and
 * corruption is chosen by the test rather than by a workload.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "glaze/check.hh"
#include "glaze/machine.hh"

using namespace fugu;
using glaze::InvariantChecker;
using net::Packet;

namespace
{

glaze::MachineConfig
twoNodes()
{
    glaze::MachineConfig cfg;
    cfg.nodes = 2;
    return cfg;
}

struct CheckTest : ::testing::Test
{
    CheckTest() : m(twoNodes()), ck(*m.checker()) {}

    /** A packet on stream (src, dst, gid) with a fresh seq. */
    Packet
    mk(NodeId src, NodeId dst, Gid gid, unsigned words = 3)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.gid = gid;
        p.handler = 5;
        for (unsigned i = 0; i < words; ++i)
            p.payload.push_back(0x1000u * (i + 1) + gid);
        p.seq = seq_++;
        return p;
    }

    Packet
    inject(NodeId src, NodeId dst, Gid gid, unsigned words = 3)
    {
        const Packet p = mk(src, dst, gid, words);
        ck.onInject(p);
        return p;
    }

    /** Consume @p p where it claims to belong: its dst, its gid. */
    void
    deliver(const Packet &p)
    {
        ck.onDeliver(p, p.dst, p.gid, /*buffered_path=*/false);
    }

    double fifo() const { return ck.stats.fifoViolations.value(); }
    double content() const { return ck.stats.contentViolations.value(); }
    double unknown() const { return ck.stats.unknownDeliveries.value(); }
    double total() const { return ck.totalViolations(); }
    double checked() const { return ck.stats.checkedDeliveries.value(); }

    glaze::Machine m;
    InvariantChecker &ck;

  private:
    std::uint64_t seq_ = 0;
};

TEST_F(CheckTest, InOrderStreamIsClean)
{
    std::vector<Packet> s;
    for (int i = 0; i < 5; ++i)
        s.push_back(inject(0, 1, 1));
    for (const Packet &p : s)
        deliver(p);
    EXPECT_EQ(total(), 0);
    EXPECT_EQ(checked(), 5);
}

TEST_F(CheckTest, ReorderedStreamCountsOneFifoViolation)
{
    // #1 overtakes #0: one violation, charged to the message that
    // jumped the queue; #0 and #2 then retire uncounted.
    const Packet a = inject(0, 1, 1);
    const Packet b = inject(0, 1, 1);
    const Packet c = inject(0, 1, 1);
    deliver(b);
    deliver(a);
    deliver(c);
    EXPECT_EQ(fifo(), 1);
    EXPECT_EQ(total(), 1);
    EXPECT_EQ(checked(), 3);

    // A second overtaking in the same stream counts again.
    const Packet d = inject(0, 1, 1);
    const Packet e = inject(0, 1, 1);
    deliver(e);
    deliver(d);
    EXPECT_EQ(fifo(), 2);
    EXPECT_EQ(total(), 2);
}

TEST_F(CheckTest, StreamsAreOrderedIndependently)
{
    // Same src and dst, different gids (and the reverse direction):
    // three streams, so consuming them interleaved in any cross-stream
    // order is legal.
    const Packet a0 = inject(0, 1, 1);
    const Packet b0 = inject(0, 1, 2);
    const Packet c0 = inject(1, 0, 1);
    const Packet a1 = inject(0, 1, 1);
    const Packet b1 = inject(0, 1, 2);
    deliver(c0);
    deliver(b0);
    deliver(b1);
    deliver(a0);
    deliver(a1);
    EXPECT_EQ(total(), 0);
    EXPECT_EQ(checked(), 5);
}

TEST_F(CheckTest, EveryChangedFieldCountsOneContentViolation)
{
    // Each case injects the first message of its own stream (gid),
    // changes one observable field, and consumes the result where it
    // claims to belong, so the content check is the only one that can
    // fire.
    using Mutation = std::function<void(Packet &)>;
    struct Case
    {
        const char *field;
        unsigned words; ///< payload words injected
        Mutation mutate;
    };
    constexpr unsigned kFull = net::kMaxPayloadWords;
    std::vector<Case> cases = {
        {"src", kFull, [](Packet &p) { p.src ^= 1; }},
        {"dst", kFull, [](Packet &p) { p.dst ^= 1; }},
        {"gid", kFull, [](Packet &p) { p.gid += 500; }},
        {"handler", kFull, [](Packet &p) { ++p.handler; }},
        {"length+1", kFull - 1, [](Packet &p) { p.payload.push_back(0); }},
        {"length-1", kFull,
         [](Packet &p) {
             const net::PayloadVec w = p.payload;
             p.payload.assign(w.begin(), w.end() - 1);
         }},
        {"swap 0,1", kFull,
         [](Packet &p) { std::swap(p.payload[0], p.payload[1]); }},
        {"swap 0,13", kFull,
         [](Packet &p) { std::swap(p.payload[0], p.payload[13]); }},
        {"swap 6,7", kFull,
         [](Packet &p) { std::swap(p.payload[6], p.payload[7]); }},
    };
    for (unsigned w = 0; w < kFull; ++w) {
        cases.push_back({"word low bit", kFull,
                         [w](Packet &p) { p.payload[w] ^= 1u; }});
        cases.push_back({"word high bit", kFull,
                         [w](Packet &p) { p.payload[w] ^= 0x80000000u; }});
    }

    Gid gid = 1;
    double want = 0;
    for (const Case &c : cases) {
        Packet p = inject(0, 1, gid++, c.words);
        c.mutate(p);
        deliver(p);
        ++want;
        ASSERT_EQ(content(), want) << c.field;
        ASSERT_EQ(total(), want) << c.field;
    }
    EXPECT_EQ(checked(), want);
}

TEST_F(CheckTest, SecondDeliveryOfASeqIsUnknown)
{
    const Packet p = inject(0, 1, 1);
    deliver(p);
    EXPECT_EQ(total(), 0);
    deliver(p);
    EXPECT_EQ(unknown(), 1);
    EXPECT_EQ(total(), 1);
    EXPECT_EQ(checked(), 1);

    // So is a seq that was never injected at all.
    deliver(mk(0, 1, 1));
    EXPECT_EQ(unknown(), 2);
    EXPECT_EQ(total(), 2);
}

TEST_F(CheckTest, DropRetiresItsSeqAndAdvancesItsStream)
{
    const Packet a = inject(0, 1, 1);
    const Packet b = inject(0, 1, 1);
    ck.onDrop(a, a.dst);
    // #1 is next once #0 is dropped: no FIFO violation.
    deliver(b);
    EXPECT_EQ(total(), 0);
    EXPECT_EQ(checked(), 1);
    // The dropped seq is retired: consuming it now is unknown.
    deliver(a);
    EXPECT_EQ(unknown(), 1);
    EXPECT_EQ(total(), 1);
    // Dropping a seq the checker no longer tracks changes nothing.
    ck.onDrop(a, a.dst);
    EXPECT_EQ(total(), 1);
}

TEST_F(CheckTest, DropAheadOfItsStreamIsAFifoViolation)
{
    // Retirement order is FIFO whether a message is consumed or
    // dropped: dropping #1 while #0 is in flight jumps the queue.
    const Packet a = inject(0, 1, 1);
    const Packet b = inject(0, 1, 1);
    ck.onDrop(b, b.dst);
    EXPECT_EQ(fifo(), 1);
    deliver(a);
    EXPECT_EQ(fifo(), 1);
    EXPECT_EQ(total(), 1);
}

TEST_F(CheckTest, KernelGidPacketsAreIgnored)
{
    const Packet a = inject(0, 1, kKernelGid);
    const Packet b = inject(0, 1, kKernelGid);
    deliver(b);
    deliver(a);
    deliver(a);
    ck.onDrop(b, b.dst);
    Packet c = mk(1, 0, kKernelGid);
    c.payload[0] ^= 1;
    deliver(c);
    ck.onDeliver(a, /*node=*/0, /*receiver_gid=*/3, false);
    EXPECT_EQ(total(), 0);
    EXPECT_EQ(checked(), 0);
}

TEST_F(CheckTest, HundredThousandInFlightOnSixtyFourStreamsAreClean)
{
    // 2 sources x 2 destinations x 16 gids = 64 streams. Inject every
    // message first, round-robin across streams, then consume in
    // stream order but with the streams interleaved by a fixed LCG.
    constexpr unsigned kStreams = 64;
    constexpr unsigned kMessages = 100000;
    std::vector<std::vector<Packet>> streams(kStreams);
    for (unsigned i = 0; i < kMessages; ++i) {
        const unsigned s = i % kStreams;
        streams[s].push_back(inject(s & 1, (s >> 1) & 1,
                                    static_cast<Gid>(1 + (s >> 2)),
                                    1 + i % net::kMaxPayloadWords));
    }
    std::vector<std::size_t> next(kStreams, 0);
    std::uint64_t x = 12345;
    unsigned left = kMessages;
    while (left) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        unsigned s = static_cast<unsigned>(x >> 58); // 0..63
        while (next[s] == streams[s].size())
            s = (s + 1) % kStreams;
        deliver(streams[s][next[s]++]);
        --left;
    }
    EXPECT_EQ(total(), 0);
    EXPECT_EQ(checked(), kMessages);
}

} // namespace
