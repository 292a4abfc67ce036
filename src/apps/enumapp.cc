#include "apps/workloads.hh"

#include <bit>
#include <deque>

#include "apps/triangle.hh"
#include "sim/flatmap.hh"

namespace fugu::apps
{

namespace
{

constexpr Word kEnumState = 8;
constexpr Word kEnumReport = 9;
constexpr Word kEnumVerdict = 10;

struct EnumState
{
    EnumState(glaze::Process &p, unsigned nnodes, EnumAppConfig cfg)
        : proc(p), nnodes(nnodes), cfg(cfg), cv(p.threads()),
          board(cfg.side)
    {}

    glaze::Process &proc;
    unsigned nnodes;
    EnumAppConfig cfg;
    rt::CondVar cv;
    TriangleBoard board;

    /** States seen (value true); host-side bookkeeping only. */
    sim::FlatMap<Word, bool> visited;
    std::deque<Word> pending;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t expanded = 0;
    std::uint64_t solutions = 0;

    // Termination-detection state (node 0 coordinates).
    unsigned reportsThisRound = 0;
    std::uint64_t roundSent = 0;
    std::uint64_t roundReceived = 0;
    std::uint64_t roundPending = 0;
    std::uint64_t roundVisited = 0;
    std::uint64_t roundSolutions = 0;
    std::uint64_t prevSent = ~0ull;
    bool verdictArrived = false;
    bool done = false;
    std::uint64_t globalVisited = 0;
    std::uint64_t globalSolutions = 0;
};

NodeId
ownerOf(Word state, unsigned nnodes)
{
    // splitmix-style mix so sibling states scatter.
    std::uint64_t z = state + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<NodeId>((z >> 33) % nnodes);
}

/** Drain the local pending queue, expanding and scattering states. */
exec::CoTask<void>
expandAll(EnumState *s)
{
    auto &p = s->proc;
    while (!s->pending.empty()) {
        const Word state = s->pending.front();
        s->pending.pop_front();
        bool &seen = s->visited.getOrCreate(state);
        if (seen)
            continue;
        seen = true;
        ++s->expanded;
        if (std::popcount(state) == 1)
            ++s->solutions;
        if (s->cfg.maxStatesPerNode &&
            s->expanded >= s->cfg.maxStatesPerNode) {
            continue; // count but do not expand further
        }
        co_await p.compute(s->cfg.expandCost);
        for (const auto &mv : s->board.moves()) {
            if (!s->board.legal(state, mv))
                continue;
            const Word child = s->board.apply(state, mv);
            const NodeId owner = ownerOf(child, s->nnodes);
            if (owner == p.node()) {
                if (!s->visited.find(child))
                    s->pending.push_back(child);
            } else {
                ++s->sent;
                net::PayloadVec payload(1, child);
                co_await p.port().send(owner, kEnumState,
                                       std::move(payload));
            }
        }
    }
}

exec::CoTask<void>
enumMain(glaze::Process &p, unsigned nnodes, EnumAppConfig cfg,
         EnumResult *result)
{
    AppEnv &e = env(p, nnodes, cfg.seed);
    auto st = std::make_shared<EnumState>(p, nnodes, cfg);
    // Keep both the environment (barrier) and the enum state alive.
    struct Both
    {
        std::shared_ptr<void> a, b;
    };
    p.appData = std::make_shared<Both>(Both{p.appData, st});

    EnumState *s = st.get();
    p.port().setHandler(
        kEnumState,
        [s](core::UdmPort &port, NodeId) -> exec::CoTask<void> {
            const Word state = co_await port.read(0);
            co_await s->proc.compute(s->cfg.handlerCost);
            co_await port.dispose();
            ++s->received;
            if (!s->visited.find(state))
                s->pending.push_back(state);
            s->cv.notifyAll();
        });
    p.port().setHandler(
        kEnumReport,
        [s](core::UdmPort &port, NodeId) -> exec::CoTask<void> {
            const Word snt = co_await port.read(0);
            const Word rcv = co_await port.read(1);
            const Word pnd = co_await port.read(2);
            const Word vis = co_await port.read(3);
            const Word sol = co_await port.read(4);
            co_await port.dispose();
            s->roundSent += snt;
            s->roundReceived += rcv;
            s->roundPending += pnd;
            s->roundVisited += vis;
            s->roundSolutions += sol;
            ++s->reportsThisRound;
            s->cv.notifyAll();
        });
    p.port().setHandler(
        kEnumVerdict,
        [s](core::UdmPort &port, NodeId) -> exec::CoTask<void> {
            const Word verdict = co_await port.read(0);
            const Word vis = co_await port.read(1);
            const Word sol = co_await port.read(2);
            co_await port.dispose();
            s->done = verdict != 0;
            s->globalVisited = vis;
            s->globalSolutions = sol;
            s->verdictArrived = true;
            s->cv.notifyAll();
        });

    // Seed the search: full board with the apex hole empty.
    const Word initial = s->board.initialState();
    if (ownerOf(initial, nnodes) == p.node())
        s->pending.push_back(initial);
    co_await e.barrier.wait();

    for (;;) {
        co_await expandAll(s);
        // Quiescent locally; run a termination-detection round. The
        // barrier keeps rounds aligned; counts are monotonic, so two
        // rounds with identical, balanced totals mean global
        // quiescence.
        co_await e.barrier.wait();
        if (p.node() == 0) {
            // Collect everyone's counters (node 0 contributes
            // directly).
            s->roundSent += s->sent;
            s->roundReceived += s->received;
            s->roundPending += s->pending.size();
            s->roundVisited += s->visited.size();
            s->roundSolutions += s->solutions;
            while (s->reportsThisRound < nnodes - 1)
                co_await s->cv.wait();
            const bool quiet = s->roundSent == s->roundReceived &&
                               s->roundPending == 0 &&
                               s->roundSent == s->prevSent;
            s->prevSent = s->roundSent;
            s->done = quiet;
            s->globalVisited = s->roundVisited;
            s->globalSolutions = s->roundSolutions;
            for (NodeId n = 1; n < nnodes; ++n) {
                net::PayloadVec payload{
                    quiet ? 1u : 0u,
                    static_cast<Word>(s->roundVisited),
                    static_cast<Word>(s->roundSolutions)};
                co_await p.port().send(n, kEnumVerdict,
                                       std::move(payload));
            }
            s->reportsThisRound = 0;
            s->roundSent = s->roundReceived = s->roundPending = 0;
            s->roundVisited = s->roundSolutions = 0;
        } else {
            net::PayloadVec payload{
                static_cast<Word>(s->sent),
                static_cast<Word>(s->received),
                static_cast<Word>(s->pending.size()),
                static_cast<Word>(s->visited.size()),
                static_cast<Word>(s->solutions)};
            co_await p.port().send(0, kEnumReport, std::move(payload));
            while (!s->verdictArrived)
                co_await s->cv.wait();
            s->verdictArrived = false;
        }
        if (s->done)
            break;
    }
    if (result && p.node() == 0) {
        result->statesVisited = s->globalVisited;
        result->solutions = s->globalSolutions;
    }
}

} // namespace

AppBody
makeEnumApp(unsigned nnodes, EnumAppConfig cfg, EnumResult *result)
{
    return [nnodes, cfg, result](glaze::Process &p) {
        return enumMain(p, nnodes, cfg, result);
    };
}

} // namespace fugu::apps
