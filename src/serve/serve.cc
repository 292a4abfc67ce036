#include "serve/serve.hh"

#include <algorithm>
#include <deque>

#include "apps/common.hh"
#include "crl/crl.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::serve
{

void
bindConfig(sim::Binder &b, ServeConfig &c)
{
    b.item("requests", c.requests,
           "measured requests per node (after warmup)");
    b.item("warmup", c.warmup, "unmeasured warmup requests per node");
    b.item("put_frac", c.putFrac,
           "kv: fraction of requests that are puts");
    b.item("shards_per_node", c.shardsPerNode,
           "kv: CRL shard regions per node");
    b.item("region_words", c.regionWords, "kv: words per shard region");
    b.item("server_cost", c.serverCost,
           "modelled service cost per request", "cycles");
    b.item("slo_cycles", c.sloCycles,
           "SLO threshold on request latency", "cycles");
}

void
ServeResult::merge(const ServeResult &o)
{
    offeredArrivals += o.offeredArrivals;
    completed += o.completed;
    sloMet += o.sloMet;
    servedBuffered += o.servedBuffered;
    puts += o.puts;
    localHits += o.localHits;
    firstArrival = std::min(firstArrival, o.firstArrival);
    lastReply = std::max(lastReply, o.lastReply);
    latFast.merge(o.latFast);
    latBuffered.merge(o.latBuffered);
}

ServeResult
mergeSlots(const std::vector<ServeResult> &slots)
{
    ServeResult out;
    for (const ServeResult &r : slots)
        out.merge(r);
    return out;
}

namespace
{

/// @name Request opcodes (payload word 0)
/// @{
constexpr Word kOpGet = 0;
constexpr Word kOpPut = 1;
constexpr Word kOpRpc = 2;
/// @}

/** splitmix-style key mix so adjacent keys scatter across shards. */
std::uint64_t
mixKey(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One queued kv request awaiting the server thread. */
struct WorkItem
{
    std::uint64_t key;
    Word value;
    Word seq;
    NodeId src;
    Word op;
    bool buffered; ///< delivery case that served the request message
    bool local;    ///< client is this node; complete without a reply
};

struct ServeState
{
    ServeState(glaze::Process &p, unsigned nnodes, ServeConfig cfg,
               sim::ArrivalConfig acfg)
        : proc(p), nodes(nnodes), cfg(cfg), acfg(acfg), crl(p),
          barrier(p, nnodes), cv(p.threads()), workCv(p.threads()),
          opRng(cfg.seed ^ (0x94d049bb133111ebULL * (p.node() + 1)))
    {}

    glaze::Process &proc;
    unsigned nodes;
    ServeConfig cfg;
    sim::ArrivalConfig acfg;
    crl::Crl crl;
    apps::Barrier barrier;
    rt::CondVar cv;     ///< completion / shutdown progress
    rt::CondVar workCv; ///< kv server queue
    Rng opRng;          ///< op type + rpc destination draws

    unsigned totalShards = 0;
    std::deque<WorkItem> work;
    bool shutdown = false;
    bool workerDone = false;

    std::vector<Cycle> arrivalAt; ///< send timestamp per local seq
    std::uint64_t got = 0;        ///< local requests completed
    ServeResult res;              ///< this node's outcome

    crl::Rid
    shardOf(std::uint64_t key) const
    {
        return static_cast<crl::Rid>(mixKey(key) % totalShards);
    }

    NodeId
    homeOf(crl::Rid shard) const
    {
        return static_cast<NodeId>(shard % nodes);
    }

    /** A request's reply arrived (or completed locally). */
    void
    complete(Word seq, bool buffered)
    {
        const Cycle now = proc.cpu().now();
        if (seq >= cfg.warmup) {
            const Cycle lat = now - arrivalAt.at(seq);
            ++res.completed;
            if (buffered)
                res.latBuffered.sample(static_cast<double>(lat));
            else
                res.latFast.sample(static_cast<double>(lat));
            if (lat <= cfg.sloCycles)
                ++res.sloMet;
            res.lastReply = std::max(res.lastReply, now);
        }
        ++got;
        cv.notifyAll();
    }
};

/**
 * The kv server thread: drains the request queue, executing each
 * get/put inside a CRL section on the key's shard region. Runs as a
 * normal thread because CRL sections may block — request handlers
 * (upcall contexts) only enqueue.
 */
exec::Task
serveWorker(ServeState *s)
{
    auto &p = s->proc;
    for (;;) {
        while (s->work.empty() && !s->shutdown)
            co_await s->workCv.wait();
        if (s->work.empty())
            break;
        const WorkItem it = s->work.front();
        s->work.pop_front();
        co_await p.compute(s->cfg.serverCost);
        const crl::Rid rid = s->shardOf(it.key);
        const unsigned off = static_cast<unsigned>(
            mixKey(it.key ^ 0x5851f42d4c957f2dULL) %
            s->cfg.regionWords);
        if (it.op == kOpPut) {
            co_await s->crl.startWrite(rid);
            s->crl.write(rid, off, it.value);
            co_await s->crl.endWrite(rid);
        } else {
            co_await s->crl.startRead(rid);
            (void)s->crl.read(rid, off);
            co_await s->crl.endRead(rid);
        }
        if (it.local) {
            s->complete(it.seq, it.buffered);
        } else {
            net::PayloadVec payload{it.seq, it.buffered ? 1u : 0u};
            co_await p.port().send(it.src, kServeReply,
                                   std::move(payload));
        }
    }
    s->workerDone = true;
    s->cv.notifyAll();
}

exec::CoTask<void>
serveMain(glaze::Process &p, unsigned nnodes, ServeConfig cfg,
          sim::ArrivalConfig acfg,
          std::shared_ptr<std::vector<ServeResult>> slots)
{
    const bool kv = cfg.app == "kv";
    if (!kv && cfg.app != "rpc")
        fugu_fatal("unknown serving app '", cfg.app,
                   "' (expected kv or rpc)");
    fugu_assert(slots && slots->size() == nnodes,
                "serving slots must have one entry per node");

    auto st = std::make_shared<ServeState>(p, nnodes, cfg, acfg);
    p.appData = st;
    ServeState *s = st.get();
    s->totalShards = std::max(1u, nnodes * cfg.shardsPerNode);

    if (kv) {
        // Symmetric region creation: shard r lives at node r % nnodes.
        for (crl::Rid rid = 0; rid < s->totalShards; ++rid)
            s->crl.createRegion(rid, s->homeOf(rid), cfg.regionWords);
        p.threads().spawn("serve-worker", rt::kPrioNormal,
                          serveWorker(s));
    }

    p.port().setHandler(
        kServeReq,
        [s, kv](core::UdmPort &port, NodeId src) -> exec::CoTask<void> {
            // Capture the delivery case before dispose: the OS may
            // flip the process back to direct mode underneath us.
            const bool buffered = port.buffered();
            const Word op = co_await port.read(0);
            const Word seq = co_await port.read(1);
            const Word key_lo = co_await port.read(2);
            const Word key_hi = co_await port.read(3);
            const Word value = co_await port.read(4);
            co_await port.dispose();
            if (buffered && seq >= s->cfg.warmup)
                ++s->res.servedBuffered;
            if (kv) {
                const std::uint64_t key =
                    key_lo |
                    (static_cast<std::uint64_t>(key_hi) << 32);
                s->work.push_back(WorkItem{key, value, seq, src, op,
                                           buffered, false});
                s->workCv.notifyAll();
            } else {
                co_await s->proc.compute(s->cfg.serverCost);
                net::PayloadVec payload{seq, buffered ? 1u : 0u};
                co_await port.send(src, kServeReply,
                                   std::move(payload));
            }
        });
    p.port().setHandler(
        kServeReply,
        [s](core::UdmPort &port, NodeId) -> exec::CoTask<void> {
            const Word seq = co_await port.read(0);
            const Word flags = co_await port.read(1);
            co_await port.dispose();
            s->complete(seq, flags & 1);
        });

    const unsigned total = cfg.warmup + cfg.requests;
    s->arrivalAt.assign(total, 0);

    // All handlers registered and regions created everywhere.
    co_await s->barrier.wait();

    sim::ArrivalProcess arr(acfg, p.node());
    Cycle sched = p.cpu().now();
    for (unsigned i = 0; i < total; ++i) {
        sched += arr.nextGap();
        // Open-loop pacing on a shared CPU: while waiting for the
        // next arrival, give the server thread the cycles (yield);
        // only model idle time when nothing else is runnable.
        for (;;) {
            const Cycle now = p.cpu().now();
            if (now >= sched)
                break;
            if (p.threads().hasRunnable())
                co_await p.threads().yield();
            else
                co_await p.compute(sched - p.cpu().now());
        }
        const std::uint64_t key = arr.nextKey();
        const bool is_put = kv && s->opRng.real() < cfg.putFrac;
        const Word op = kv ? (is_put ? kOpPut : kOpGet) : kOpRpc;
        const Word value = static_cast<Word>(mixKey(key));
        const Cycle t = p.cpu().now();
        s->arrivalAt[i] = t;
        if (i >= cfg.warmup) {
            ++s->res.offeredArrivals;
            s->res.firstArrival = std::min(s->res.firstArrival, t);
            if (is_put)
                ++s->res.puts;
        }
        if (kv) {
            const NodeId owner = s->homeOf(s->shardOf(key));
            if (owner == p.node()) {
                // Own-shard request: no network delivery; served by
                // the local queue and classified as the fast case.
                if (i >= cfg.warmup)
                    ++s->res.localHits;
                s->work.push_back(WorkItem{key, value,
                                           static_cast<Word>(i),
                                           p.node(), op, false, true});
                s->workCv.notifyAll();
            } else {
                net::PayloadVec payload{
                    op, static_cast<Word>(i),
                    static_cast<Word>(key),
                    static_cast<Word>(key >> 32), value};
                co_await p.port().send(owner, kServeReq,
                                       std::move(payload));
            }
        } else {
            NodeId dst =
                static_cast<NodeId>(s->opRng.uniform(0, nnodes - 2));
            if (dst >= p.node())
                ++dst; // uniform over the *other* nodes
            net::PayloadVec payload{op, static_cast<Word>(i), 0u, 0u,
                                    0u};
            co_await p.port().send(dst, kServeReq,
                                   std::move(payload));
        }
    }

    // Wait for this node's own requests to complete, then rendezvous:
    // once every node has completed, no request anywhere is in
    // flight, so res (including server-side counters) is final.
    while (s->got < total)
        co_await s->cv.wait();
    co_await s->barrier.wait();

    if (kv) {
        s->shutdown = true;
        s->workCv.notifyAll();
        while (!s->workerDone)
            co_await s->cv.wait();
    }

    // The caller reads the slots after the machine run completes.
    (*slots)[p.node()] = s->res;
}

} // namespace

glaze::AppBody
makeServingApp(unsigned nnodes, ServeConfig cfg,
               sim::ArrivalConfig arrival,
               std::shared_ptr<std::vector<ServeResult>> slots)
{
    return [nnodes, cfg, arrival, slots](glaze::Process &p) {
        return serveMain(p, nnodes, cfg, arrival, slots);
    };
}

} // namespace fugu::serve
