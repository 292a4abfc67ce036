/**
 * @file
 * Property-based tests (parameterized sweeps) of the system-wide
 * invariants two-case delivery must uphold under randomized traffic
 * and adverse scheduling:
 *
 *  - Exactly-once, in-order (per sender) delivery regardless of which
 *    path each message takes.
 *  - Atomicity: no user handler ever runs while the target process's
 *    atomic section is active.
 *  - Protection: no process ever observes another GID's message.
 *  - Liveness: random storms with finite queues always drain.
 *  - Determinism: identical seeds give identical outcomes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "apps/workloads.hh"
#include "glaze/machine.hh"
#include "sim/log.hh"

using namespace fugu;
using namespace fugu::glaze;
using exec::CoTask;

namespace
{

struct StormParams
{
    unsigned nodes;
    unsigned messagesPerNode;
    double skew;
    Cycle quantum;
    Cycle atomicityTimeout;
    unsigned payloadMax; // words
    std::uint64_t seed;
};

std::string
paramName(const ::testing::TestParamInfo<StormParams> &info)
{
    const StormParams &p = info.param;
    // Built with += only: operator+ on a literal and a std::string
    // trips gcc 12's -Wrestrict false positive in a Release build.
    std::string name = "n";
    name += std::to_string(p.nodes);
    name += "_m";
    name += std::to_string(p.messagesPerNode);
    name += "_skew";
    name += std::to_string(int(p.skew * 100));
    name += "_q";
    name += std::to_string(p.quantum);
    name += "_to";
    name += std::to_string(p.atomicityTimeout);
    name += "_s";
    name += std::to_string(p.seed);
    return name;
}

struct StormState
{
    // received[dst][src] = payload sequence numbers, in arrival order.
    std::vector<std::map<NodeId, std::vector<Word>>> received;
    std::vector<bool> atomicViolation;
    std::vector<bool> gidViolation;
    int done = 0;
};

CoTask<void>
stormMain(Process &p, unsigned nnodes, const StormParams prm,
          StormState *st)
{
    rt::CondVar cv(p.threads());
    Rng rng(prm.seed ^ (0x1234567ull * (p.node() + 1)));
    const NodeId me = p.node();
    const Gid my_gid = p.gid();

    p.port().setHandler(
        0,
        [st, me, my_gid, &p](core::UdmPort &port,
                             NodeId src) -> CoTask<void> {
            // Atomicity invariant: in fast mode the handler runs in
            // an atomic section. In buffered mode, handling by the
            // *drain thread* is deferred across user atomic sections
            // (the gate); the gate may legitimately be set while the
            // gated context itself — a resumed upcall that owns the
            // suspended atomic section — extracts its message.
            if (!port.buffered() && !port.atomicityOn())
                st->atomicViolation[me] = true;
            if (p.atomicGate && p.drainThread &&
                p.threads().current() == p.drainThread) {
                st->atomicViolation[me] = true;
            }
            // Protection invariant: the message matched our GID.
            if (port.ni().divert() == false &&
                port.ni().head() != nullptr &&
                port.ni().head()->gid != my_gid) {
                st->gidViolation[me] = true;
            }
            const Word seq = co_await port.read(0);
            co_await port.dispose();
            st->received[me][src].push_back(seq);
        });

    // Random mixture of sends, computes, and atomic sections.
    std::vector<Word> next_seq(nnodes, 0);
    for (unsigned i = 0; i < prm.messagesPerNode; ++i) {
        const unsigned action = rng.uniform(0, 9);
        if (action < 7) {
            NodeId dst =
                static_cast<NodeId>(rng.uniform(0, nnodes - 2));
            if (dst >= me)
                ++dst;
            std::vector<Word> payload;
            payload.push_back(next_seq[dst]++);
            for (unsigned w = 1; w < 1 + rng.uniform(0, prm.payloadMax);
                 ++w)
                payload.push_back(static_cast<Word>(rng.next()));
            co_await p.port().send(dst, 0, std::move(payload));
        } else if (action < 9) {
            co_await p.compute(rng.uniform(10, 800));
        } else {
            // Hold an atomic section; possibly long enough to trip
            // the revocation timer.
            co_await p.port().beginAtomic();
            co_await p.compute(rng.uniform(50, 3000));
            co_await p.port().endAtomic();
        }
    }
    ++st->done;
    // Stay alive until everyone finished so late messages can land.
    while (st->done < static_cast<int>(nnodes))
        co_await p.compute(2000);
}

struct StormResult
{
    StormState state;
    double buffered = 0;
    double timeouts = 0;
    Cycle runtime = 0;
    bool completed = false;
};

StormResult
runStorm(const StormParams &prm)
{
    StormResult out;
    out.state.received.resize(prm.nodes);
    out.state.atomicViolation.assign(prm.nodes, false);
    out.state.gidViolation.assign(prm.nodes, false);

    MachineConfig cfg;
    cfg.nodes = prm.nodes;
    cfg.seed = prm.seed;
    cfg.ni.atomicityTimeout = prm.atomicityTimeout;
    Machine m(cfg);
    StormState *st = &out.state;
    Job *job = m.addJob("storm", [prm, st](Process &p) {
        return stormMain(p, prm.nodes, prm, st);
    });
    m.addJob("null", apps::makeNullApp());
    GangConfig g;
    g.quantum = prm.quantum;
    g.skew = prm.skew;
    m.startGang(g);
    out.completed = m.runUntilDone(job, 30000000000ull);
    out.runtime = m.now();
    for (auto *proc : job->procs) {
        out.buffered += proc->stats.bufferedDelivered.value();
    }
    for (auto &n : m.nodes)
        out.timeouts += n.ni.stats.atomicityTimeouts.value();
    return out;
}

class StormTest : public ::testing::TestWithParam<StormParams>
{
  protected:
    void SetUp() override { detail::setThrowOnError(true); }
    void TearDown() override { detail::setThrowOnError(false); }
};

TEST_P(StormTest, ExactlyOnceInOrderProtectedAndLive)
{
    const StormParams prm = GetParam();
    StormResult r = runStorm(prm);
    ASSERT_TRUE(r.completed) << "storm did not drain (deadlock?)";

    // Exactly-once, in-order: every (src,dst) stream is 0,1,2,...
    std::uint64_t total = 0;
    for (unsigned dst = 0; dst < prm.nodes; ++dst) {
        for (const auto &[src, seqs] : r.state.received[dst]) {
            for (std::size_t i = 0; i < seqs.size(); ++i)
                ASSERT_EQ(seqs[i], i)
                    << "stream " << src << "->" << dst;
            total += seqs.size();
        }
        EXPECT_FALSE(r.state.atomicViolation[dst])
            << "handler ran inside an atomic section on node " << dst;
        EXPECT_FALSE(r.state.gidViolation[dst])
            << "cross-GID message observed on node " << dst;
    }
    EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, StormTest,
    ::testing::Values(
        StormParams{2, 150, 0.0, 20000, 4000, 4, 1},
        StormParams{4, 120, 0.2, 15000, 4000, 6, 2},
        StormParams{4, 120, 0.4, 15000, 800, 6, 3},
        StormParams{8, 80, 0.3, 10000, 2000, 8, 4},
        StormParams{8, 80, 0.5, 8000, 500, 2, 5},
        StormParams{3, 200, 0.1, 5000, 1500, 10, 6},
        StormParams{6, 100, 0.45, 12000, 1000, 5, 7},
        StormParams{8, 60, 0.25, 25000, 8000, 12, 8}),
    paramName);

TEST(StormDeterminism, SameSeedSameOutcome)
{
    detail::setThrowOnError(true);
    StormParams prm{4, 100, 0.3, 12000, 2000, 6, 42};
    StormResult a = runStorm(prm);
    StormResult b = runStorm(prm);
    ASSERT_TRUE(a.completed && b.completed);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.buffered, b.buffered);
    EXPECT_EQ(a.timeouts, b.timeouts);
    for (unsigned n = 0; n < prm.nodes; ++n)
        EXPECT_EQ(a.state.received[n], b.state.received[n]);
    detail::setThrowOnError(false);
}

TEST(StormCoverage, AdverseParamsExerciseBufferedPathAndRevocation)
{
    detail::setThrowOnError(true);
    StormParams prm{4, 200, 0.4, 8000, 600, 4, 9};
    StormResult r = runStorm(prm);
    ASSERT_TRUE(r.completed);
    // The sweep must actually reach the mechanisms under test.
    EXPECT_GT(r.buffered, 0.0);
    EXPECT_GT(r.timeouts, 0.0);
    detail::setThrowOnError(false);
}

} // namespace
