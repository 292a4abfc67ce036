#include "core/nibuf.hh"

#include "core/costs.hh"
#include "core/netif.hh"
#include "sim/log.hh"

namespace fugu::core
{

const char *
toString(NiBackendKind k)
{
    switch (k) {
      case NiBackendKind::StaticFifo: return "static_fifo";
      case NiBackendKind::Damq: return "damq";
      case NiBackendKind::ZerocopyRemap: return "zerocopy_remap";
    }
    return "?";
}

Cycle
NiBufferBackend::fastExtra(const CostModel &c) const
{
    (void)c;
    return 0;
}

NiBufferedCosts
NiBufferBackend::bufferedCosts(const CostModel &c) const
{
    // The copying insert of the paper's Table 5.
    return {c.bufferInsertMin, c.vmallocExtra, c.bufferNullHandler,
            c.perBufferWordX2};
}

// ---------------------------------------------------------------------
// StaticFifoBackend
// ---------------------------------------------------------------------

StaticFifoBackend::StaticFifoBackend(unsigned capacity_msgs)
    : slots_(capacity_msgs)
{
    fugu_assert(capacity_msgs >= 1);
}

bool
StaticFifoBackend::canAccept(const net::Packet &pkt) const
{
    (void)pkt;
    return count_ < slots_.size();
}

const net::Packet &
StaticFifoBackend::accept(net::Packet &&pkt)
{
    fugu_assert(count_ < slots_.size(), "accept into a full ring");
    net::Packet &slot = slots_[wrap(head_ + count_)];
    slot = std::move(pkt);
    ++count_;
    return slot;
}

const net::Packet *
StaticFifoBackend::oldest() const
{
    return count_ ? &slots_[head_] : nullptr;
}

const net::Packet *
StaticFifoBackend::userHead(Gid gid, bool divert) const
{
    // The hardware compares the front message's GID only: a matching
    // message behind a foreign one stays invisible (that is the whole
    // weakness DAMQ addresses).
    if (count_ == 0 || divert)
        return nullptr;
    const net::Packet &f = slots_[head_];
    return f.gid == gid ? &f : nullptr;
}

const net::Packet *
StaticFifoBackend::mismatchHead(Gid gid, bool divert) const
{
    if (count_ == 0)
        return nullptr;
    const net::Packet &f = slots_[head_];
    return (divert || f.gid != gid) ? &f : nullptr;
}

net::Packet
StaticFifoBackend::extractAt(const net::Packet *p)
{
    fugu_assert(count_ > 0, "extract from an empty ring");
    fugu_assert(p == &slots_[head_],
                "static FIFO can only extract the front");
    net::Packet out = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --count_;
    return out;
}

// ---------------------------------------------------------------------
// DamqBackend
// ---------------------------------------------------------------------

DamqBackend::DamqBackend(unsigned pool_msgs, unsigned flow_msgs)
    : poolMsgs_(pool_msgs), flowMsgs_(flow_msgs)
{
    fugu_assert(pool_msgs >= 2,
                "DAMQ pool must hold at least two messages (one can "
                "be reserved by a live output descriptor)");
    fugu_assert(flow_msgs >= 1 && flow_msgs <= pool_msgs);
    slots_.reserve(pool_msgs);
}

unsigned
DamqBackend::flowCount(NodeId src, Gid gid) const
{
    unsigned n = 0;
    for (const net::Packet &p : slots_)
        if (p.src == src && p.gid == gid)
            ++n;
    return n;
}

bool
DamqBackend::canAccept(const net::Packet &pkt) const
{
    // Shared input/output SRAM: a live output descriptor holds one
    // slot of the pool, and the per-flow cap stops any one
    // (source,GID) stream from squatting the rest.
    const std::size_t reserved = descLive_ ? 1 : 0;
    if (slots_.size() + reserved >= poolMsgs_)
        return false;
    return flowCount(pkt.src, pkt.gid) < flowMsgs_;
}

bool
DamqBackend::acceptsOtherFlows(const net::Packet &refused) const
{
    (void)refused;
    // If the shared pool itself is exhausted the refusal is global;
    // only a per-flow-cap refusal leaves room for other tenants.
    const std::size_t reserved = descLive_ ? 1 : 0;
    return slots_.size() + reserved < poolMsgs_;
}

const net::Packet &
DamqBackend::accept(net::Packet &&pkt)
{
    fugu_assert(slots_.size() < poolMsgs_, "accept into a full pool");
    slots_.push_back(std::move(pkt)); // within reserve(): no alloc
    return slots_.back();
}

const net::Packet *
DamqBackend::oldest() const
{
    return slots_.empty() ? nullptr : &slots_.front();
}

const net::Packet *
DamqBackend::userHead(Gid gid, bool divert) const
{
    if (divert)
        return nullptr;
    // Associative select: the oldest message of the scheduled GID,
    // wherever it sits in the pool.
    for (const net::Packet &p : slots_)
        if (p.gid == gid)
            return &p;
    return nullptr;
}

const net::Packet *
DamqBackend::mismatchHead(Gid gid, bool divert) const
{
    for (const net::Packet &p : slots_)
        if (divert || p.gid != gid)
            return &p;
    return nullptr;
}

net::Packet
DamqBackend::extractAt(const net::Packet *p)
{
    fugu_assert(!slots_.empty(), "extract from an empty pool");
    const std::size_t idx =
        static_cast<std::size_t>(p - slots_.data());
    fugu_assert(idx < slots_.size(), "extract of a foreign pointer");
    net::Packet out = std::move(slots_[idx]);
    // Keep arrival order with a shift; the pool is a handful of
    // messages, so this is cheaper (and allocation-free) vs. any
    // linked structure.
    slots_.erase(slots_.begin() +
                 static_cast<std::ptrdiff_t>(idx));
    return out;
}

Cycle
DamqBackend::fastExtra(const CostModel &c) const
{
    return c.damqSelect;
}

// ---------------------------------------------------------------------
// ZerocopyRemapBackend
// ---------------------------------------------------------------------

NiBufferedCosts
ZerocopyRemapBackend::bufferedCosts(const CostModel &c) const
{
    // Page flip instead of copy: map the arrival page into the
    // process's buffer region (remap charge), touch no words on
    // insert, and drain straight from the flipped page.
    return {c.zerocopyInsertMin, c.vmRemap, c.bufferNullHandler,
            c.zerocopyPerWordX2};
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<NiBufferBackend>
makeNiBackend(const NetIfConfig &cfg)
{
    switch (cfg.backend) {
      case NiBackendKind::StaticFifo:
        return std::make_unique<StaticFifoBackend>(cfg.inputQueueMsgs);
      case NiBackendKind::Damq:
        return std::make_unique<DamqBackend>(cfg.damqPoolMsgs,
                                             cfg.damqFlowMsgs);
      case NiBackendKind::ZerocopyRemap:
        return std::make_unique<ZerocopyRemapBackend>(
            cfg.inputQueueMsgs);
    }
    fugu_panic("unknown ni.backend");
}

} // namespace fugu::core
