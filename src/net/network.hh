/**
 * @file
 * Message-level interconnect model.
 *
 * The fabric preserves the properties the paper's mechanisms rely on,
 * without modelling wormhole routing:
 *
 *  - pairwise FIFO: messages between a given (src,dst) pair are
 *    delivered in injection order (as on the Alewife mesh);
 *  - finite buffering and back-pressure: each (src,dst) channel holds
 *    a bounded number of words in flight, and a full receive queue at
 *    the destination blocks the channel head, eventually blocking the
 *    sender's inject (this is what the atomicity timeout polices);
 *  - latency: base + per-hop (2D mesh dimension-ordered distance) +
 *    per-word serialization.
 *
 * A machine instantiates the class twice: the main user network and
 * the reserved, slower second network the operating system uses as a
 * guaranteed deadlock-free path (Section 4.2).
 */

#ifndef FUGU_NET_NETWORK_HH
#define FUGU_NET_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/event.hh"
#include "sim/flatmap.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace fugu::sim
{
class Binder;
class FaultInjector;
}

namespace fugu::net
{

/** Receiving side attached to each node (the NI input queue). */
class NetSink
{
  public:
    virtual ~NetSink() = default;

    /**
     * Offer an arrived packet to the node.
     * @return false if the input queue is full; the network will
     *         retry when onSinkSpaceFreed is called.
     */
    virtual bool tryDeliver(Packet &&pkt) = 0;

    /**
     * After tryDeliver refused @p pkt: was the refusal specific to
     * that packet's (src,gid) flow, leaving room for other flows?
     * Queue-wide refusals (a full static ring, an injected input-full
     * burst) return false — re-offering anything else is pointless.
     * When true, the network may deliver later arrivals from *other*
     * flows past the refused head (per-flow FIFO is preserved; only
     * cross-flow order, which the fabric never promised, changes).
     */
    virtual bool
    refusalIsSelective(const Packet &pkt) const
    {
        (void)pkt;
        return false;
    }
};

struct NetworkConfig
{
    /** Mesh dimensions; meshX*meshY must cover all attached nodes. */
    unsigned meshX = 4;
    unsigned meshY = 4;

    /** Fixed overhead per message. */
    Cycle latencyBase = 5;

    /** Router/wire latency per mesh hop. */
    Cycle perHop = 2;

    /** Serialization cost per word. */
    Cycle perWord = 1;

    /** Max words in flight per (src,dst) channel (back-pressure). */
    unsigned channelCapacityWords = 64;
};

/** Register NetworkConfig's fields on the scenario/config tree. */
void bindConfig(sim::Binder &b, NetworkConfig &c);

/** A (src,dst) channel, both node ids packed into one word. */
using ChannelKey = std::uint32_t;

// The pack gives each endpoint 16 bits. NodeId is 16 bits, so it is
// lossless by construction; if NodeId ever widens, this must fail to
// compile rather than silently alias channels between distant pairs.
static_assert(sizeof(NodeId) <= 2, "channelKey packs NodeId into 16 bits");

constexpr ChannelKey
channelKey(NodeId src, NodeId dst)
{
    return (static_cast<ChannelKey>(src) << 16) | dst;
}

struct Channel
{
    unsigned wordsInFlight = 0;
    Cycle lastArrival = 0;
    // Intrusive FIFO of blocked senders (see SpaceWaiter).
    SpaceWaiter *waitHead = nullptr;
    SpaceWaiter *waitTail = nullptr;
};

/**
 * (src,dst) -> Channel. Channels are created once per communicating
 * pair and then only looked up, on the per-message send and drain
 * path (see sim::FlatMap).
 */
using ChannelMap = sim::FlatMap<ChannelKey, Channel>;

class Network
{
  public:
    Network(EventQueue &eq, NetworkConfig cfg, std::string name,
            StatGroup *stat_parent);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    const NetworkConfig &config() const { return cfg_; }

    /** Attach the receive sink for node @p id. */
    void attach(NodeId id, NetSink *sink);

    /** Can a @p words -word message be injected right now? */
    bool canAccept(NodeId src, NodeId dst, unsigned words) const;

    /**
     * Inject a packet. The caller must have checked canAccept; the
     * send side of the NI blocks stores to the output buffer
     * otherwise.
     */
    void send(Packet pkt);

    /**
     * Called by a sink after it dequeued a message, making room for
     * a blocked arrival.
     */
    void onSinkSpaceFreed(NodeId dst);

    /**
     * One-shot notification when channel (src,dst) has room again.
     * Used by the NI to wake a blocked injector. The waiter is linked
     * intrusively (no allocation) and unlinked before its callback
     * runs; it must stay alive until notified.
     */
    void subscribeSpace(NodeId src, NodeId dst, SpaceWaiter *waiter);

    /**
     * Attach a message-lifecycle trace recorder. @p os_net selects
     * the message-id tag so the two networks' injection sequences
     * stay distinguishable in a merged trace.
     */
    void
    setTracer(trace::Recorder *tracer, bool os_net)
    {
        tracer_ = tracer;
        osNet_ = os_net;
    }

    /**
     * Attach a fault injector: jitters packet delivery latency. Only
     * the user network gets one; the OS network must stay the
     * guaranteed deadlock-free path.
     */
    void setFault(sim::FaultInjector *fault) { fault_ = fault; }

    /** Attach a packet-lifecycle watcher (the invariant checker). */
    void setWatcher(PacketWatcher *watcher) { watcher_ = watcher; }

    /** Dimension-ordered mesh hop count between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /** End-to-end delivery latency for a message of @p words words. */
    Cycle latency(NodeId src, NodeId dst, unsigned words) const;

    struct Stats
    {
        Stats(StatGroup *parent, const std::string &name);
        StatGroup group;
        Scalar messages;
        Scalar words;
        Distribution deliveryLatency;
        Scalar headOfLineBlocks;
        Scalar headOfLineBypasses;
    };

    Stats stats;

  private:
    void drain(NodeId dst);

    /**
     * Head-of-line bypass: the sink refused the queue head for a
     * flow-local reason (per-flow cap), so offer later arrivals from
     * other flows, preserving per-(src,gid) FIFO. Returns the number
     * delivered.
     */
    std::size_t bypassBlockedHead(NodeId dst);

    void accountDelivery(NodeId src, NodeId dst, unsigned words,
                         Cycle injected);

    void releaseChannel(Channel &ch, unsigned words);

    EventQueue &eq_;
    NetworkConfig cfg_;
    std::string name_;
    // The arrival events' name. scheduleFn keeps the pointer, not a
    // copy, so it lives in a member that outlasts every event.
    std::string arriveName_;
    std::vector<NetSink *> sinks_;

    /** Per-destination queues of packets that finished traversal. */
    std::vector<sim::RingDeque<Packet>> arrived_;

    ChannelMap chans_;
    std::uint64_t seq_ = 0;
    // Blocked-flow keys for the head-of-line bypass scan, reused so
    // the scan allocates only up to its high-water mark.
    std::vector<std::uint64_t> bypassScratch_;
    trace::Recorder *tracer_ = nullptr;
    sim::FaultInjector *fault_ = nullptr;
    bool osNet_ = false;

    PacketWatcher *watcher_ = nullptr;
};

} // namespace fugu::net

#endif // FUGU_NET_NETWORK_HH
