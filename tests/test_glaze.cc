/**
 * @file
 * Integration tests for the Glaze OS: two-case delivery end to end.
 *
 * Covers interrupt (upcall) delivery, polling, atomicity-timeout
 * revocation into buffered mode, drain and mode exit, transparency
 * across gang-scheduler quanta with skew, page-fault-triggered
 * buffering, overflow control, and determinism.
 */

#include <gtest/gtest.h>

#include <vector>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::glaze;
using exec::CoTask;

namespace
{

struct RxState
{
    int received = 0;
    std::vector<Word> payloads;
    std::vector<NodeId> sources;
};

/** Receiver main: register a counting handler, wait for @p expect. */
CoTask<void>
recvMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0,
        [st, &cv](core::UdmPort &port, NodeId src) -> CoTask<void> {
            Word w = co_await port.read(0);
            co_await port.dispose();
            st->payloads.push_back(w);
            st->sources.push_back(src);
            ++st->received;
            cv.notifyAll();
        });
    while (st->received < expect)
        co_await cv.wait();
}

/** Sender main: stream @p count messages to @p dst, pacing sends. */
CoTask<void>
sendMain(Process &p, NodeId dst, int count, Cycle gap)
{
    for (int i = 0; i < count; ++i) {
        if (gap)
            co_await p.compute(gap);
        std::vector<Word> args(1, static_cast<Word>(i));
        co_await p.port().send(dst, 0, std::move(args));
    }
}

CoTask<void>
idleMain(Process &)
{
    co_return;
}

/** A "null" application: burns cycles forever. */
CoTask<void>
nullMain(Process &p)
{
    for (;;)
        co_await p.compute(10000);
}

struct GlazeTest : ::testing::Test
{
    GlazeTest() { detail::setThrowOnError(true); }
    ~GlazeTest() override { detail::setThrowOnError(false); }
};

TEST_F(GlazeTest, InterruptDeliveryFastPath)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 20;
    Job *job = m.addJob("pair", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 50)
                             : recvMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.received, kCount);
    // In-order per sender.
    for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(st.payloads[i], static_cast<Word>(i));
    auto &proc1 = *job->procs[1];
    EXPECT_DOUBLE_EQ(proc1.stats.directDelivered.value(), kCount);
    EXPECT_DOUBLE_EQ(proc1.stats.bufferedDelivered.value(), 0.0);
    EXPECT_DOUBLE_EQ(m.node(1).kernel.stats.upcalls.value(), kCount);
    EXPECT_DOUBLE_EQ(m.node(1).kernel.stats.modeEntries.value(), 0.0);
}

CoTask<void>
pollMain(Process &p, RxState *st, int expect)
{
    p.port().setHandler(
        0, [st](core::UdmPort &port, NodeId src) -> CoTask<void> {
            Word w = co_await port.read(0);
            co_await port.dispose();
            st->payloads.push_back(w);
            st->sources.push_back(src);
            ++st->received;
        });
    co_await p.port().beginAtomic();
    while (st->received < expect)
        co_await p.port().poll();
    co_await p.port().endAtomic();
}

TEST_F(GlazeTest, PollingDeliveryFastPath)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    // Generous timeout: polling consumes messages promptly anyway.
    cfg.ni.atomicityTimeout = 100000;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 25;
    Job *job = m.addJob("pollpair", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 30)
                             : pollMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.received, kCount);
    // Polling, not interrupts: no upcalls on the receiving node.
    EXPECT_DOUBLE_EQ(m.node(1).kernel.stats.upcalls.value(), 0.0);
    EXPECT_DOUBLE_EQ(
        job->procs[1]->stats.directDelivered.value(), kCount);
    EXPECT_DOUBLE_EQ(m.node(1).kernel.stats.modeEntries.value(), 0.0);
}

CoTask<void>
stubbornAtomicMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0,
        [st, &cv](core::UdmPort &port, NodeId src) -> CoTask<void> {
            Word w = co_await port.read(0);
            co_await port.dispose();
            st->payloads.push_back(w);
            st->sources.push_back(src);
            ++st->received;
            cv.notifyAll();
        });
    // Enter an atomic section and compute without polling: a pending
    // message will trip the atomicity timer, revoking the interrupt
    // disable (transparent switch to buffered mode).
    co_await p.port().beginAtomic();
    co_await p.compute(50000);
    co_await p.port().endAtomic();
    while (st->received < expect)
        co_await cv.wait();
}

TEST_F(GlazeTest, AtomicityTimeoutRevokesIntoBufferedMode)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.ni.atomicityTimeout = 2000;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 5;
    Job *job = m.addJob("timeout", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 100)
                             : stubbornAtomicMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.received, kCount);
    auto &k1 = m.node(1).kernel;
    EXPECT_GE(m.node(1).ni.stats.atomicityTimeouts.value(), 1.0);
    EXPECT_GE(k1.stats.modeEntries.value(), 1.0);
    EXPECT_EQ(k1.stats.modeEntries.value(), k1.stats.modeExits.value());
    EXPECT_GE(job->procs[1]->stats.bufferedDelivered.value(), 1.0);
    // Every message was delivered exactly once, in order.
    for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(st.payloads[i], static_cast<Word>(i));
    // Buffer pages were returned after the drain.
    EXPECT_EQ(job->procs[1]->vbuf().pagesAllocated(), 0u);
}

TEST_F(GlazeTest, MultiprogrammedSkewBuffersAndPreservesOrder)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 7;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 300;
    Job *job = m.addJob("app", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 200)
                             : recvMain(p, &st,
                                        p.node() == 1 ? kCount : 0);
    });
    m.addJob("null", [](Process &p) { return nullMain(p); });
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    m.startGang(g);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.received, kCount);
    for (int i = 0; i < kCount; ++i)
        ASSERT_EQ(st.payloads[i], static_cast<Word>(i));
    auto &proc1 = *job->procs[1];
    const double direct = proc1.stats.directDelivered.value();
    const double buffered = proc1.stats.bufferedDelivered.value();
    EXPECT_EQ(direct + buffered, kCount);
    // Skewed quantum boundaries must force some messages through the
    // buffered path, but the fast case should remain the common case.
    EXPECT_GE(buffered, 1.0);
    EXPECT_GT(direct, buffered);
    EXPECT_GE(m.node(1).kernel.stats.processSwitches.value(), 2.0);
}

CoTask<void>
faultingHandlerMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.as().reserve(100, 4);
    p.port().setHandler(
        0,
        [st, &cv, &p](core::UdmPort &port, NodeId src) -> CoTask<void> {
            // Touch a demand-zero page inside the handler: the fault
            // happens in an atomic section and must trigger buffering
            // rather than blocking the network.
            co_await p.touchPage(100 + (st->received % 4));
            Word w = co_await port.read(0);
            co_await port.dispose();
            st->payloads.push_back(w);
            st->sources.push_back(src);
            ++st->received;
            cv.notifyAll();
        });
    while (st->received < expect)
        co_await cv.wait();
}

TEST_F(GlazeTest, PageFaultInHandlerTriggersBufferedMode)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 6;
    Job *job = m.addJob("fault", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 100)
                             : faultingHandlerMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));
    EXPECT_EQ(st.received, kCount);
    auto &k1 = m.node(1).kernel;
    EXPECT_GE(k1.stats.pageFaults.value(), 1.0);
    EXPECT_GE(k1.stats.modeEntries.value(), 1.0);
    for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(st.payloads[i], static_cast<Word>(i));
}

/**
 * Receiver that sits in one long atomic section while a flood
 * arrives: the atomicity timeout diverts everything into the virtual
 * buffer, which outgrows the tiny frame pool.
 */
CoTask<void>
atomicFloodMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0,
        [st, &cv](core::UdmPort &port, NodeId src) -> CoTask<void> {
            Word w = co_await port.read(0);
            co_await port.dispose();
            st->payloads.push_back(w);
            st->sources.push_back(src);
            ++st->received;
            cv.notifyAll();
        });
    co_await p.port().beginAtomic();
    co_await p.compute(300000);
    co_await p.port().endAtomic();
    while (st->received < expect)
        co_await cv.wait();
}

TEST_F(GlazeTest, OverflowControlSwapsAndRecovers)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.framesPerNode = 4;
    cfg.ni.atomicityTimeout = 2000;
    cfg.seed = 3;
    Machine m(cfg);
    for (auto &n : m.nodes)
        n.frames.setLowWatermark(1);
    RxState st;
    constexpr int kCount = 800; // 7-word footprints: ~6 buffer pages
    Job *job = m.addJob("flood", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 10)
                             : atomicFloodMain(p, &st, kCount);
    });
    m.addJob("null", [](Process &p) { return nullMain(p); });
    GangConfig g;
    g.quantum = 40000;
    g.skew = 0.0;
    m.startGang(g);
    ASSERT_TRUE(m.runUntilDone(job, 400000000ull));
    EXPECT_EQ(st.received, kCount);
    for (int i = 0; i < kCount; ++i)
        ASSERT_EQ(st.payloads[i], static_cast<Word>(i));
    auto &k1 = m.node(1).kernel;
    EXPECT_GE(k1.stats.overflowEvents.value(), 1.0);
    EXPECT_GE(job->procs[1]->vbuf().stats.swapOuts.value(), 1.0);
    EXPECT_GE(job->procs[1]->vbuf().stats.pageIns.value(), 1.0);
    // All frames returned after the drain.
    EXPECT_EQ(job->procs[1]->vbuf().pagesAllocated(), 0u);
}

TEST_F(GlazeTest, HandlerWithoutDisposeIsFatal)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    Job *job = m.addJob("bad", [](Process &p) -> CoTask<void> {
        if (p.node() == 0)
            return sendMain(p, 1, 1, 0);
        p.port().setHandler(
            0, [](core::UdmPort &, NodeId) -> CoTask<void> {
                co_return; // never disposes: dispose-failure
            });
        return nullMain(p);
    });
    m.installJob(job);
    EXPECT_THROW(m.runUntilDone(job, 1000000), SimError);
}

TEST_F(GlazeTest, DeterministicRerun)
{
    auto run = [](std::vector<double> &out) {
        MachineConfig cfg;
        cfg.nodes = 4;
        cfg.seed = 99;
        Machine m(cfg);
        RxState st;
        Job *job = m.addJob("app", [&st](Process &p) {
            return p.node() == 0
                       ? sendMain(p, 1, 100, 150)
                       : recvMain(p, &st, p.node() == 1 ? 100 : 0);
        });
        m.addJob("null", [](Process &p) { return nullMain(p); });
        GangConfig g;
        g.quantum = 15000;
        g.skew = 0.4;
        m.startGang(g);
        ASSERT_TRUE(m.runUntilDone(job));
        out.push_back(static_cast<double>(m.now()));
        out.push_back(job->procs[1]->stats.directDelivered.value());
        out.push_back(job->procs[1]->stats.bufferedDelivered.value());
        out.push_back(m.node(1).kernel.stats.processSwitches.value());
    };
    std::vector<double> a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b);
}

TEST_F(GlazeTest, JobsFinishIndependently)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    Job *quick = m.addJob("quick", [](Process &p) { return idleMain(p); });
    m.installJob(quick);
    ASSERT_TRUE(m.runUntilDone(quick, 1000000));
}

TEST(MachineScaleTest, FourKNodeMeshConstructsAndRuns)
{
    // The NodeId-width and channel-key packing audit in executable
    // form: a 4096-node machine (the largest mesh the scenarios
    // exercise) constructs and completes a small all-nodes workload.
    MachineConfig cfg;
    cfg.nodes = 4096;
    cfg.seed = 7;
    // Periodic conservation sweeps are O(nodes * processes); at 4096
    // nodes they dominate a short run, so sweep only at the end.
    cfg.check.sweepEvery = 0;
    harness::Workloads wl;
    wl.barrier.barriers = 2;
    const harness::RunStats r =
        harness::runJob(cfg, wl.factory("barrier"),
                        /*with_null=*/false, /*gang=*/false, {});
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0.0);
    EXPECT_GT(r.sent, 0u);
}

} // namespace
