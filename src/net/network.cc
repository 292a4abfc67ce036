#include "net/network.hh"

#include <algorithm>

#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

namespace fugu::net
{

void
bindConfig(sim::Binder &b, NetworkConfig &c)
{
    b.item("mesh_x", c.meshX, "mesh width (0 = size from node count)",
           "nodes");
    b.item("mesh_y", c.meshY, "mesh height (0 = size from node count)",
           "nodes");
    b.item("latency_base", c.latencyBase, "fixed overhead per message",
           "cycles");
    b.item("per_hop", c.perHop, "router/wire latency per mesh hop",
           "cycles");
    b.item("per_word", c.perWord, "serialization cost per word",
           "cycles");
    b.item("channel_capacity_words", c.channelCapacityWords,
           "max words in flight per (src,dst) channel", "words");
}

Network::Stats::Stats(StatGroup *parent, const std::string &name)
    : group(name, parent),
      messages(&group, "messages", "messages delivered"),
      words(&group, "words", "words delivered"),
      deliveryLatency(&group, "latency",
                      "inject-to-sink-accept latency (cycles)"),
      headOfLineBlocks(&group, "hol_blocks",
                       "arrivals stalled by a full input queue"),
      headOfLineBypasses(&group, "hol_bypasses",
                         "arrivals delivered past a flow-blocked head")
{
}

Network::Network(EventQueue &eq, NetworkConfig cfg, std::string name,
                 StatGroup *stat_parent)
    : stats(stat_parent, name), eq_(eq), cfg_(cfg),
      name_(std::move(name)), arriveName_(name_ + "-arrive")
{
    fugu_assert(cfg_.meshX > 0 && cfg_.meshY > 0, "empty mesh");
    // channelKey() packs node ids into 16 bits per endpoint; a mesh whose
    // addresses exceed NodeId would alias channels (and kNoNode must
    // stay out of the address space). Fail loudly instead.
    fugu_assert(static_cast<std::uint64_t>(cfg_.meshX) * cfg_.meshY <=
                    kNoNode,
                "mesh ", cfg_.meshX, "x", cfg_.meshY,
                " exceeds the NodeId address space");
    fugu_assert(cfg_.channelCapacityWords >= kMaxMessageWords,
                "channel must hold at least one max-size message");
}

void
Network::attach(NodeId id, NetSink *sink)
{
    fugu_assert(id < cfg_.meshX * cfg_.meshY, "node ", id,
                " outside the ", cfg_.meshX, "x", cfg_.meshY, " mesh");
    if (sinks_.size() <= id) {
        sinks_.resize(id + 1, nullptr);
        arrived_.resize(id + 1);
    }
    fugu_assert(!sinks_[id], "node ", id, " attached twice");
    sinks_[id] = sink;
}

unsigned
Network::hops(NodeId a, NodeId b) const
{
    const unsigned ax = a % cfg_.meshX, ay = a / cfg_.meshX;
    const unsigned bx = b % cfg_.meshX, by = b / cfg_.meshX;
    const unsigned dx = ax > bx ? ax - bx : bx - ax;
    const unsigned dy = ay > by ? ay - by : by - ay;
    return dx + dy;
}

Cycle
Network::latency(NodeId src, NodeId dst, unsigned words) const
{
    return cfg_.latencyBase + cfg_.perHop * hops(src, dst) +
           cfg_.perWord * words;
}

bool
Network::canAccept(NodeId src, NodeId dst, unsigned words) const
{
    const Channel *ch = chans_.find(channelKey(src, dst));
    const unsigned in_flight = ch ? ch->wordsInFlight : 0;
    return in_flight + words <= cfg_.channelCapacityWords;
}

void
Network::send(Packet pkt)
{
    const unsigned words = pkt.size();
    fugu_assert(words <= kMaxMessageWords, "oversized message (", words,
                " words)");
    fugu_assert(pkt.dst < sinks_.size() && sinks_[pkt.dst],
                "send to unattached node ", pkt.dst);
    fugu_assert(canAccept(pkt.src, pkt.dst, words),
                "send without canAccept");

    Channel &ch = chans_.getOrCreate(channelKey(pkt.src, pkt.dst));
    ch.wordsInFlight += words;

    Cycle ready = eq_.now() + latency(pkt.src, pkt.dst, words);
    // Injected jitter lands before the FIFO clamp below so it can
    // never reorder messages within a channel — pairwise FIFO is a
    // property of the fabric, not of benign timing.
    if (fault_)
        ready += fault_->packetJitter();
    // Per-channel FIFO with serialization: a message cannot arrive
    // before an earlier one on the same channel has been received.
    ready = std::max(ready, ch.lastArrival + cfg_.perWord * words);
    ch.lastArrival = ready;

    pkt.injectedAt = eq_.now();
    pkt.seq = seq_++;
    if (watcher_)
        watcher_->onInject(pkt);
    FUGU_TRACE(tracer_, pkt.src, trace::Type::Inject,
               osNet_ ? trace::osMsgId(pkt.seq)
                      : trace::userMsgId(pkt.seq),
               trace::DivertReason::None,
               (static_cast<std::uint32_t>(pkt.dst) << 16) | words);
    NodeId dst = pkt.dst;
    eq_.scheduleFn(
        [this, dst, p = std::move(pkt)]() mutable {
            arrived_[dst].push_back(std::move(p));
            drain(dst);
        },
        ready, arriveName_.c_str());
}

void
Network::drain(NodeId dst)
{
    auto &q = arrived_[dst];
    while (!q.empty()) {
        Packet &head = q.front();
        const unsigned words = head.size();
        const NodeId src = head.src;
        const Cycle injected = head.injectedAt;
        if (!sinks_[dst]->tryDeliver(std::move(head))) {
            ++stats.headOfLineBlocks;
            // A queue-wide refusal (full ring, input-full burst)
            // blocks everything equally: park until re-poked. A
            // flow-local refusal (a DAMQ flow at its per-(src,GID)
            // cap) must not let one tenant's parked packet starve
            // every other tenant queued behind it — offer the rest.
            if (sinks_[dst]->refusalIsSelective(q.front()))
                bypassBlockedHead(dst);
            return; // the head itself retries via onSinkSpaceFreed
        }
        q.pop_front();
        accountDelivery(src, dst, words, injected);
    }
}

std::size_t
Network::bypassBlockedHead(NodeId dst)
{
    auto &q = arrived_[dst];
    std::vector<std::uint64_t> &blocked = bypassScratch_;
    blocked.clear();
    const auto flowKey = [](const Packet &p) {
        return (static_cast<std::uint64_t>(p.src) << 32) | p.gid;
    };
    blocked.push_back(flowKey(q.front()));
    std::size_t delivered = 0;
    std::size_t i = 1;
    while (i < q.size()) {
        Packet &cand = q[i];
        const std::uint64_t k = flowKey(cand);
        bool skip = false;
        for (std::uint64_t b : blocked)
            if (b == k) {
                skip = true;
                break;
            }
        if (skip) {
            // A refused packet of this flow sits ahead: delivering
            // this one would reorder the stream.
            ++i;
            continue;
        }
        const unsigned words = cand.size();
        const NodeId src = cand.src;
        const Cycle injected = cand.injectedAt;
        if (!sinks_[dst]->tryDeliver(std::move(cand))) {
            if (!sinks_[dst]->refusalIsSelective(q[i]))
                break; // refusal went queue-wide; stop scanning
            blocked.push_back(flowKey(q[i]));
            ++i;
            continue;
        }
        q.remove_at(i); // earlier (blocked) entries shift back one
        ++delivered;
        ++stats.headOfLineBypasses;
        accountDelivery(src, dst, words, injected);
    }
    return delivered;
}

void
Network::accountDelivery(NodeId src, NodeId dst, unsigned words,
                         Cycle injected)
{
    ++stats.messages;
    stats.words += words;
    stats.deliveryLatency.sample(static_cast<double>(eq_.now() - injected));
    Channel *ch = chans_.find(channelKey(src, dst));
    fugu_assert(ch);
    releaseChannel(*ch, words);
}

void
Network::onSinkSpaceFreed(NodeId dst)
{
    fugu_assert(dst < arrived_.size());
    drain(dst);
}

void
Network::releaseChannel(Channel &ch, unsigned words)
{
    fugu_assert(ch.wordsInFlight >= words);
    ch.wordsInFlight -= words;
    SpaceWaiter *w = ch.waitHead;
    if (!w)
        return;
    ch.waitHead = nullptr;
    ch.waitTail = nullptr;
    // `ch` must not be touched past this point: a woken sender may
    // re-enter send()/subscribeSpace() and grow the channel map,
    // invalidating the reference. Waiters run in subscribe order.
    while (w) {
        SpaceWaiter *next = w->nextWaiter_;
        w->nextWaiter_ = nullptr;
        w->linked_ = false;
        w->onSpaceAvailable();
        w = next;
    }
}

void
Network::subscribeSpace(NodeId src, NodeId dst, SpaceWaiter *waiter)
{
    fugu_assert(waiter && !waiter->linked_,
                "SpaceWaiter subscribed while already linked");
    waiter->linked_ = true;
    waiter->nextWaiter_ = nullptr;
    Channel &ch = chans_.getOrCreate(channelKey(src, dst));
    if (ch.waitTail)
        ch.waitTail->nextWaiter_ = waiter;
    else
        ch.waitHead = waiter;
    ch.waitTail = waiter;
}

} // namespace fugu::net
