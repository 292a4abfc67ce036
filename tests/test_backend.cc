/**
 * @file
 * NiBufferBackend conformance suite. Every backend must keep the
 * invariants the two-case delivery machinery assumes — per-stream
 * FIFO order, content transparency, refusal (not loss) when full,
 * frame conservation under load and replay determinism — while the
 * backend-specific behaviors (DAMQ head bypass, flow caps and descriptor coupling;
 * zerocopy's cheaper buffered path) are pinned individually.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/costs.hh"
#include "core/netif.hh"
#include "core/nibuf.hh"
#include "glaze/machine.hh"
#include "harness/experiment.hh"

using namespace fugu;
using namespace fugu::core;
using harness::RunStats;

namespace
{

constexpr NiBackendKind kAllBackends[] = {
    NiBackendKind::StaticFifo,
    NiBackendKind::Damq,
    NiBackendKind::ZerocopyRemap,
};

net::Packet
mkPkt(NodeId src, Gid gid, Word tag)
{
    net::Packet p;
    p.src = src;
    p.dst = 1;
    p.gid = gid;
    p.handler = 7;
    p.payload = {tag, tag + 1, tag + 2};
    return p;
}

std::unique_ptr<NiBufferBackend>
mkBackend(NiBackendKind kind, unsigned pool = 8, unsigned flow = 8)
{
    NetIfConfig cfg;
    cfg.backend = kind;
    cfg.inputQueueMsgs = pool;
    cfg.damqPoolMsgs = pool;
    cfg.damqFlowMsgs = flow;
    return makeNiBackend(cfg);
}

// ---------------------------------------------------------------------
// Direct backend unit tests
// ---------------------------------------------------------------------

TEST(BackendFactoryTest, BuildsTheConfiguredKind)
{
    for (NiBackendKind k : kAllBackends) {
        auto b = mkBackend(k);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->kind(), k);
        EXPECT_STRNE(toString(k), "?");
    }
}

TEST(BackendConformanceTest, PerStreamFifoOrderAndContent)
{
    // Same-flow arrivals come back in arrival order with their words
    // intact, whatever the backend's head-selection policy.
    for (NiBackendKind k : kAllBackends) {
        auto b = mkBackend(k);
        for (Word t = 0; t < 5; ++t) {
            ASSERT_TRUE(b->canAccept(mkPkt(0, 4, t * 10)));
            b->accept(mkPkt(0, 4, t * 10));
        }
        EXPECT_EQ(b->size(), 5u);
        for (Word t = 0; t < 5; ++t) {
            const net::Packet *h = b->userHead(4, /*divert=*/false);
            ASSERT_NE(h, nullptr) << toString(k);
            net::Packet p = b->extractAt(h);
            EXPECT_EQ(p.gid, 4) << toString(k);
            ASSERT_EQ(p.payload.size(), 3u);
            EXPECT_EQ(p.payload[0], t * 10) << toString(k);
            EXPECT_EQ(p.payload[1], t * 10 + 1);
            EXPECT_EQ(p.payload[2], t * 10 + 2);
        }
        EXPECT_TRUE(b->empty());
    }
}

TEST(BackendConformanceTest, FullQueueRefusesInsteadOfDropping)
{
    for (NiBackendKind k : kAllBackends) {
        auto b = mkBackend(k, /*pool=*/4, /*flow=*/4);
        for (Word t = 0; t < 4; ++t) {
            ASSERT_TRUE(b->canAccept(mkPkt(0, 4, t))) << toString(k);
            b->accept(mkPkt(0, 4, t));
        }
        EXPECT_FALSE(b->canAccept(mkPkt(0, 4, 99))) << toString(k);
        // Extraction reopens exactly one slot.
        b->extractAt(b->oldest());
        EXPECT_TRUE(b->canAccept(mkPkt(0, 4, 99))) << toString(k);
    }
}

TEST(BackendConformanceTest, DivertSuppressesUserHead)
{
    for (NiBackendKind k : kAllBackends) {
        auto b = mkBackend(k);
        b->accept(mkPkt(0, 4, 1));
        EXPECT_EQ(b->userHead(4, /*divert=*/true), nullptr)
            << toString(k);
        const net::Packet *m = b->mismatchHead(4, /*divert=*/true);
        ASSERT_NE(m, nullptr) << toString(k);
        EXPECT_EQ(m, b->oldest()) << toString(k);
    }
}

TEST(StaticFifoTest, MismatchedFrontBlocksUserHead)
{
    // The hardware ring is strictly FIFO: a descheduled tenant's
    // arrival at the front hides the scheduled tenant's message.
    for (NiBackendKind k :
         {NiBackendKind::StaticFifo, NiBackendKind::ZerocopyRemap}) {
        auto b = mkBackend(k);
        b->accept(mkPkt(0, 9, 1)); // descheduled tenant first
        b->accept(mkPkt(0, 4, 2)); // scheduled tenant behind it
        EXPECT_EQ(b->userHead(4, false), nullptr) << toString(k);
        const net::Packet *m = b->mismatchHead(4, false);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->gid, 9) << toString(k);
    }
}

TEST(DamqTest, ScheduledGidBypassesParkedArrivals)
{
    // The associative head select: the same arrival pattern that
    // blocks the static ring hands the scheduled tenant its message.
    auto b = mkBackend(NiBackendKind::Damq);
    b->accept(mkPkt(0, 9, 1));
    b->accept(mkPkt(0, 4, 2));
    const net::Packet *u = b->userHead(4, false);
    ASSERT_NE(u, nullptr);
    EXPECT_EQ(u->gid, 4);
    EXPECT_EQ(u->payload[0], 2u);
    // The parked gid-9 arrival is still the oldest and still what the
    // kernel's mismatch path services.
    EXPECT_EQ(b->oldest()->gid, 9);
    EXPECT_EQ(b->mismatchHead(4, false)->gid, 9);
    // Extracting the bypassed message leaves the parked one intact.
    net::Packet p = b->extractAt(u);
    EXPECT_EQ(p.payload[0], 2u);
    EXPECT_EQ(b->size(), 1u);
    EXPECT_EQ(b->oldest()->gid, 9);
}

TEST(DamqTest, PerFlowCapBoundsOneTenant)
{
    DamqBackend b(/*pool_msgs=*/8, /*flow_msgs=*/2);
    ASSERT_TRUE(b.canAccept(mkPkt(0, 4, 1)));
    b.accept(mkPkt(0, 4, 1));
    b.accept(mkPkt(0, 4, 2));
    EXPECT_EQ(b.flowCount(0, 4), 2u);
    // Flow (0,4) is at its cap; other flows still get in.
    EXPECT_FALSE(b.canAccept(mkPkt(0, 4, 3)));
    EXPECT_TRUE(b.canAccept(mkPkt(1, 4, 3))); // other source
    EXPECT_TRUE(b.canAccept(mkPkt(0, 9, 3))); // other gid
    b.accept(mkPkt(0, 9, 3));
    EXPECT_EQ(b.flowCount(0, 9), 1u);
    // Draining one of the capped flow's slots reopens it.
    b.extractAt(b.userHead(4, false));
    EXPECT_TRUE(b.canAccept(mkPkt(0, 4, 4)));
}

TEST(DamqTest, RefusalSelectivityTracksPoolVsFlowCause)
{
    // A flow-cap refusal leaves room for other tenants; a pool-wide
    // refusal (including the descriptor's reserved slot) does not.
    // The network's head-of-line bypass keys off this distinction.
    DamqBackend b(/*pool_msgs=*/4, /*flow_msgs=*/2);
    b.accept(mkPkt(0, 9, 1));
    b.accept(mkPkt(0, 9, 2));
    ASSERT_FALSE(b.canAccept(mkPkt(0, 9, 3))); // flow capped
    EXPECT_TRUE(b.acceptsOtherFlows(mkPkt(0, 9, 3)));
    b.accept(mkPkt(1, 9, 3));
    b.accept(mkPkt(2, 9, 4)); // pool now full
    EXPECT_FALSE(b.acceptsOtherFlows(mkPkt(0, 9, 5)));
    // Extraction reopens the pool: selectivity returns with it.
    b.extractAt(b.oldest());
    EXPECT_TRUE(b.acceptsOtherFlows(mkPkt(0, 9, 5)));
    // A live descriptor eats the last slot: pool-wide again.
    b.onDescriptor(true);
    EXPECT_FALSE(b.acceptsOtherFlows(mkPkt(0, 9, 5)));
    // The FIFO backends never refuse selectively.
    auto fifo = mkBackend(NiBackendKind::StaticFifo, 2, 2);
    fifo->accept(mkPkt(0, 9, 1));
    fifo->accept(mkPkt(0, 9, 2));
    EXPECT_FALSE(fifo->canAccept(mkPkt(1, 4, 3)));
    EXPECT_FALSE(fifo->acceptsOtherFlows(mkPkt(1, 4, 3)));
}

/** NetSink wrapping a real DamqBackend (no NetIf machinery). */
struct DamqSink : net::NetSink
{
    DamqSink(unsigned pool, unsigned flow) : b(pool, flow) {}

    bool
    tryDeliver(net::Packet &&pkt) override
    {
        if (!b.canAccept(pkt))
            return false;
        b.accept(std::move(pkt));
        return true;
    }

    bool
    refusalIsSelective(const net::Packet &pkt) const override
    {
        return b.acceptsOtherFlows(pkt);
    }

    DamqBackend b;
};

TEST(DamqNetworkTest, VictimBypassesHogParkedAtArrivalQueueHead)
{
    // The descriptor-death re-poke audit's regression: a hog holding
    // its per-(src,GID) cap parks its next packet at the head of the
    // per-destination arrival queue. Pre-fix, Network::drain returned
    // at the first refusal, so every victim packet queued behind the
    // hog's was starved even though the DAMQ pool had room — and the
    // re-poke on descriptor death retried only the same blocked head,
    // wedging the destination for as long as the hog kept its flow
    // pinned. The fix delivers other flows past the blocked head.
    EventQueue eq;
    StatGroup stats("test");
    net::NetworkConfig ncfg;
    net::Network net(eq, ncfg, "net", &stats);
    DamqSink sink(/*pool=*/8, /*flow=*/2);
    net.attach(1, &sink);
    // Senders only inject; they need no sink of their own, but the
    // fabric requires attachment for destinations only.
    const auto send = [&](NodeId src, Gid gid, Word tag) {
        net.send(mkPkt(src, gid, tag));
    };
    // Hog (src 0, gid 9): two fill the flow cap, two more park in the
    // arrival queue. Drain the fabric first so the hog's surplus is
    // already parked at the queue head when the victim's traffic
    // lands behind it — victim and hog use different channels, so
    // without the intervening run their arrivals would interleave and
    // the victim would never actually queue behind the blocked head.
    for (Word t = 0; t < 4; ++t)
        send(0, 9, 100 + t);
    eq.run();
    EXPECT_EQ(sink.b.flowCount(0, 9), 2u);
    // Victim (src 2, gid 4) behind the hog's parked packets.
    send(2, 4, 500);
    send(2, 4, 501);
    eq.run();

    // The victim's packets made it into the NI pool, in order, while
    // the hog's third and fourth wait their turn in the network.
    EXPECT_EQ(sink.b.flowCount(2, 4), 2u);
    EXPECT_EQ(sink.b.flowCount(0, 9), 2u);
    const net::Packet *v = sink.b.userHead(4, false);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->payload[0], 500u);
    EXPECT_GE(net.stats.headOfLineBypasses.value(), 2.0);

    // Extracting a hog message frees its flow; the re-poke must then
    // deliver the parked hog packet (per-stream FIFO intact).
    sink.b.extractAt(sink.b.userHead(9, false));
    net.onSinkSpaceFreed(1);
    eq.run();
    EXPECT_EQ(sink.b.flowCount(0, 9), 2u);
    const net::Packet *h = sink.b.userHead(9, false);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->payload[0], 101u); // oldest remaining hog message
}

TEST(DamqTest, LiveDescriptorReservesOneSlot)
{
    // Input and output queues share the pool: a live output
    // descriptor holds one slot back from arrivals.
    auto b = mkBackend(NiBackendKind::Damq, /*pool=*/4, /*flow=*/4);
    for (Word t = 0; t < 3; ++t)
        b->accept(mkPkt(0, 4, t));
    ASSERT_TRUE(b->canAccept(mkPkt(0, 4, 3)));
    b->onDescriptor(true);
    EXPECT_FALSE(b->canAccept(mkPkt(0, 4, 3)));
    b->onDescriptor(false);
    EXPECT_TRUE(b->canAccept(mkPkt(0, 4, 3)));
    EXPECT_TRUE(b->outputCoupled());
}

TEST(BackendCostTest, CostVectorsMatchTheCostModel)
{
    const CostModel c;

    auto fifo = mkBackend(NiBackendKind::StaticFifo);
    NiBufferedCosts bc = fifo->bufferedCosts(c);
    EXPECT_EQ(bc.insertBase, c.bufferInsertMin);
    EXPECT_EQ(bc.newPageExtra, c.vmallocExtra);
    EXPECT_EQ(bc.drainBase, c.bufferNullHandler);
    EXPECT_EQ(bc.perWordX2, c.perBufferWordX2);
    EXPECT_EQ(fifo->fastExtra(c), 0u);
    EXPECT_EQ(fifo->recordOverheadWords(), 2u);

    auto damq = mkBackend(NiBackendKind::Damq);
    EXPECT_EQ(damq->fastExtra(c), c.damqSelect);
    EXPECT_EQ(damq->bufferedCosts(c).insertBase, c.bufferInsertMin);
    EXPECT_EQ(damq->recordOverheadWords(), 2u);

    auto zc = mkBackend(NiBackendKind::ZerocopyRemap);
    bc = zc->bufferedCosts(c);
    EXPECT_EQ(bc.insertBase, c.zerocopyInsertMin);
    EXPECT_EQ(bc.newPageExtra, c.vmRemap);
    EXPECT_EQ(bc.drainBase, c.bufferNullHandler);
    EXPECT_EQ(bc.perWordX2, c.zerocopyPerWordX2);
    EXPECT_EQ(zc->fastExtra(c), 0u);
    EXPECT_EQ(zc->recordOverheadWords(), 0u);
    // The zerocopy buffered path is strictly cheaper per message.
    EXPECT_LT(c.zerocopyInsertMin, c.bufferInsertMin);
    EXPECT_LT(c.vmRemap, c.vmallocExtra);
    EXPECT_LT(c.zerocopyPerWordX2, c.perBufferWordX2);
}

// ---------------------------------------------------------------------
// Machine-level conformance (the full two-case delivery stack)
// ---------------------------------------------------------------------

glaze::MachineConfig
backendConfig(NiBackendKind k, unsigned nodes)
{
    glaze::MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.seed = 7;
    cfg.ni.backend = k;
    return cfg;
}

RunStats
runSynth(const glaze::MachineConfig &cfg)
{
    harness::Workloads wl;
    wl.synth.groups = cfg.nodes / 2;
    return harness::runJob(cfg, wl.factory("synth"),
                           /*with_null=*/false, /*gang=*/false, {});
}

/** The mixed fault storm, forcing heavy buffered traffic. */
RunStats
runStorm(const glaze::MachineConfig &base)
{
    glaze::MachineConfig cfg = base;
    cfg.seed = 11;
    cfg.fault.cls = sim::FaultClass::Mixed;
    harness::Workloads wl;
    wl.barrier.barriers = 200;
    glaze::GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    return harness::runJob(cfg, wl.factory("barrier"),
                           /*with_null=*/true, /*gang=*/true, g);
}

TEST(BackendMachineTest, EveryBackendDeliversTheSameWorkload)
{
    // Content transparency at the semantic level: the application
    // sends and receives the same messages whatever buffers them.
    RunStats oracle;
    for (NiBackendKind k : kAllBackends) {
        const RunStats r = runSynth(backendConfig(k, 16));
        ASSERT_TRUE(r.completed) << toString(k);
        EXPECT_EQ(r.violations, 0.0) << toString(k);
        if (k == NiBackendKind::StaticFifo)
            oracle = r;
        else {
            EXPECT_EQ(r.sent, oracle.sent) << toString(k);
            EXPECT_EQ(r.direct + r.buffered,
                      oracle.direct + oracle.buffered)
                << toString(k);
        }
    }
}

TEST(BackendMachineTest, StaticFifoIsBitExactWithTheDefault)
{
    // `--set ni.backend=static_fifo` must be a spelling of the seed
    // behavior, down to the engine event count.
    glaze::MachineConfig def = backendConfig(
        NiBackendKind::StaticFifo, 16);
    const RunStats a = runSynth(def);
    const RunStats b = runSynth(glaze::MachineConfig{def});
    ASSERT_TRUE(a.completed);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.events, b.events);
}

TEST(BackendMachineTest, FaultStormZeroViolationsAndReplays)
{
    for (NiBackendKind k : kAllBackends) {
        const glaze::MachineConfig cfg = backendConfig(k, 8);
        const RunStats r = runStorm(cfg);
        ASSERT_TRUE(r.completed)
            << toString(k) << " wedged under the fault storm";
        EXPECT_EQ(r.violations, 0.0) << toString(k);
        EXPECT_GT(r.faultEvents, 0.0) << toString(k);
        const RunStats replay = runStorm(cfg);
        EXPECT_TRUE(r == replay)
            << toString(k) << " storm is not reproducible";
        EXPECT_EQ(r.events, replay.events) << toString(k);
    }
}

TEST(BackendMachineTest, OverflowControlSurvivesTightFrames)
{
    // Frame conservation under pressure: with few frames per node and
    // everything forced through the buffered path, overflow control
    // engages and the InvariantChecker's conservation sweep must stay
    // clean for every backend.
    for (NiBackendKind k : kAllBackends) {
        glaze::MachineConfig cfg = backendConfig(k, 8);
        cfg.alwaysBuffered = true;
        cfg.framesPerNode = 12;
        const RunStats r = runSynth(cfg);
        ASSERT_TRUE(r.completed) << toString(k);
        EXPECT_EQ(r.violations, 0.0) << toString(k);
        EXPECT_GT(r.buffered, 0.0) << toString(k);
        EXPECT_EQ(r.direct, 0.0) << toString(k);
    }
}

/**
 * Synth at the backend ablation's operating point
 * (scenarios/ablation_backend.cfg at T_betw 300, 3 groups): 8 nodes,
 * gang-scheduled against null at quantum 50000 and skew 0.3.
 */
RunStats
runAblationPoint(const glaze::MachineConfig &cfg)
{
    harness::Workloads wl;
    wl.synth.n = 100;
    wl.synth.groups = 3;
    wl.synth.tBetween = 300;
    wl.synth.handlerStall = 200;
    glaze::GangConfig g;
    g.quantum = 50000;
    g.skew = 0.3;
    return harness::runJob(cfg, wl.factory("synth"),
                           /*with_null=*/true, /*gang=*/true, g);
}

TEST(BackendMachineTest, ZerocopyBuffersCheaperThanStaticFifo)
{
    // The acceptance criterion in executable form: at equal load with
    // every message diverted, page-flip delivery finishes the same
    // job in strictly less simulated time than the copying path.
    // Standalone on 16 nodes, and at the ablation's point (where
    // static_fifo takes 630954 cycles and zerocopy_remap 436813).
    const struct
    {
        const char *input;
        unsigned nodes;
        std::uint64_t seed;
        RunStats (*run)(const glaze::MachineConfig &);
    } inputs[] = {
        {"standalone", 16, 7, runSynth},
        {"ablation point", 8, 1, runAblationPoint},
    };
    for (const auto &in : inputs) {
        glaze::MachineConfig fifo =
            backendConfig(NiBackendKind::StaticFifo, in.nodes);
        fifo.seed = in.seed;
        fifo.alwaysBuffered = true;
        glaze::MachineConfig zc = fifo;
        zc.ni.backend = NiBackendKind::ZerocopyRemap;
        const RunStats rf = in.run(fifo);
        const RunStats rz = in.run(zc);
        ASSERT_TRUE(rf.completed) << in.input;
        ASSERT_TRUE(rz.completed) << in.input;
        EXPECT_GT(rf.buffered, 0.0) << in.input;
        EXPECT_EQ(rf.sent, rz.sent) << in.input;
        EXPECT_LT(rz.runtime, rf.runtime) << in.input;
    }
}

} // namespace
