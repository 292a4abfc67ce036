/**
 * @file
 * NiBufferBackend: pluggable NI input-queue buffering designs.
 *
 * The paper's two-case split hinges on how the NI buffers traffic:
 * static FIFOs bound the fast case, and the buffered case pays a copy
 * into virtual buffering. Both ends are design choices, not fixed
 * costs, so every place a packet is queued at the NI sits behind this
 * interface and `--set ni.backend=...` selects the design:
 *
 *  - `static_fifo`: the FUGU hardware's statically partitioned input
 *    ring. One FIFO, strict arrival order, full refuses arrivals.
 *    Bit-exact with the original hard-coded path — the oracle every
 *    other backend is diffed against.
 *
 *  - `damq`: a dynamically-allocated multi-queue (Jamali et al.). All
 *    slots live in one shared pool with a per-(source,GID) occupancy
 *    cap, and the head the hardware hands out is the oldest message
 *    for the *scheduled* GID — a descheduled tenant's arrivals no
 *    longer block the fast case at the queue head. Output descriptor
 *    space shares the same SRAM: a live descriptor reserves one input
 *    slot. The associative head select is charged through the cost
 *    model (`costs.damq_select`) on every fast-path stub entry.
 *
 *  - `zerocopy_remap`: buffered-case delivery by page flip (Power's
 *    memory-protection zero-copy). The input side is the static FIFO,
 *    but a diverted message is donated to the process by remapping
 *    the NI-side page into the virtual buffer instead of copying:
 *    cheaper insert, a VM remap charge instead of a vmalloc, a
 *    cheaper per-word drain (the words were never copied), and no
 *    per-record header words in the buffer pages.
 *
 * Backends only reorder *across* (src,gid) streams — per-stream FIFO,
 * content transparency and frame conservation are invariants every
 * backend must keep (tests/test_backend.cc holds them to it).
 */

#ifndef FUGU_CORE_NIBUF_HH
#define FUGU_CORE_NIBUF_HH

#include <memory>
#include <vector>

#include "net/packet.hh"
#include "sim/types.hh"

namespace fugu::core
{

struct CostModel;
struct NetIfConfig;

enum class NiBackendKind
{
    StaticFifo,    ///< statically partitioned input ring (the oracle)
    Damq,          ///< dynamically-shared pool, per-flow caps
    ZerocopyRemap, ///< static input + page-flip buffered delivery
};

const char *toString(NiBackendKind k);

/**
 * The buffered-path cost vector a backend charges: how a diverted
 * message gets into — and back out of — the virtual buffer. The
 * copying backends use the paper's Table 5 numbers; zerocopy_remap
 * substitutes remap costs.
 */
struct NiBufferedCosts
{
    Cycle insertBase = 0;   ///< buffer-insert handler, no page alloc
    Cycle newPageExtra = 0; ///< extra when a fresh page is needed
    Cycle drainBase = 0;    ///< execute null handler from the buffer
    Cycle perWordX2 = 0;    ///< per-word drain cost, in half-cycles
};

/**
 * One NI's input-queue storage and head-selection policy.
 *
 * Head selection is split three ways so the NetIf can keep the
 * hardware's register semantics for any policy:
 *  - userHead(): the message the *user* sees (message-available /
 *    input window / dispose) — null unless one matches the scheduled
 *    GID with divert off;
 *  - mismatchHead(): the message the *kernel's* mismatch path should
 *    service next — null unless one needs kernel attention;
 *  - oldest(): strict arrival order, for kernel-mode extraction when
 *    neither of the above applies.
 *
 * extractAt() removes a specific message previously returned by one
 * of the head functions; for the FIFO backends that is always the
 * front. All storage is preallocated in the constructor — accepting,
 * reading and extracting packets never allocates (the packet path's
 * zero-steady-state-allocation guarantee).
 */
class NiBufferBackend
{
  public:
    virtual ~NiBufferBackend() = default;

    virtual NiBackendKind kind() const = 0;

    /// @name Input side
    /// @{

    /** Would the queue accept @p pkt right now? */
    virtual bool canAccept(const net::Packet &pkt) const = 0;

    /**
     * Store @p pkt (canAccept must hold).
     * @return the stored copy (valid until the next mutation), so
     *         the caller can trace from the queue's own bytes.
     */
    virtual const net::Packet &accept(net::Packet &&pkt) = 0;

    virtual bool empty() const = 0;
    virtual std::size_t size() const = 0;

    /// @}
    /// @name Head selection
    /// @{

    /** Oldest stored message (null if empty). */
    virtual const net::Packet *oldest() const = 0;

    /** The user-visible head for @p gid (null if none matches). */
    virtual const net::Packet *userHead(Gid gid, bool divert) const = 0;

    /** The mismatch-path head for @p gid (null if none needs it). */
    virtual const net::Packet *mismatchHead(Gid gid,
                                            bool divert) const = 0;

    /** Remove and return @p p (a pointer from a head function). */
    virtual net::Packet extractAt(const net::Packet *p) = 0;

    /// @}
    /// @name Output-queue coupling
    /// @{

    /** Descriptor liveness changed (live = words described > 0). */
    virtual void onDescriptor(bool live) { (void)live; }

    /**
     * Does freeing the output descriptor free input space? When true
     * the NetIf re-pokes the network on descriptor death so refused
     * packets held at channel heads get re-offered.
     */
    virtual bool outputCoupled() const { return false; }

    /**
     * After canAccept refused @p refused: could a packet from a
     * *different* (src,gid) flow still get in right now? False for
     * queue-wide refusals (a full ring refuses everything, so there
     * is no point offering anything else); true only when the refusal
     * is flow-local — a DAMQ flow at its per-(src,GID) cap while the
     * shared pool has room. The network uses this to let victims'
     * arrivals bypass a hog's parked packet at the arrival-queue head
     * instead of wedging the whole destination behind it.
     */
    virtual bool
    acceptsOtherFlows(const net::Packet &refused) const
    {
        (void)refused;
        return false;
    }

    /// @}
    /// @name Cost hooks
    /// @{

    /** Extra fast-path stub-entry cost (e.g. DAMQ head select). */
    virtual Cycle fastExtra(const CostModel &c) const;

    /** The buffered-path cost vector this backend charges. */
    virtual NiBufferedCosts bufferedCosts(const CostModel &c) const;

    /** Per-record bookkeeping words a buffered message occupies. */
    virtual unsigned recordOverheadWords() const { return 2; }

    /// @}
};

/**
 * The statically partitioned hardware input ring: one FIFO of
 * config.inputQueueMsgs slots, strict arrival order. This is the
 * seed behavior, bit-exact, and the oracle for the other backends.
 */
class StaticFifoBackend : public NiBufferBackend
{
  public:
    explicit StaticFifoBackend(unsigned capacity_msgs);

    NiBackendKind kind() const override
    {
        return NiBackendKind::StaticFifo;
    }

    bool canAccept(const net::Packet &pkt) const override;
    const net::Packet &accept(net::Packet &&pkt) override;
    bool empty() const override { return count_ == 0; }
    std::size_t size() const override { return count_; }

    const net::Packet *oldest() const override;
    const net::Packet *userHead(Gid gid, bool divert) const override;
    const net::Packet *mismatchHead(Gid gid,
                                    bool divert) const override;
    net::Packet extractAt(const net::Packet *p) override;

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    std::vector<net::Packet> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/**
 * A dynamically-allocated multi-queue: every flow shares one slot
 * pool, each (source,GID) flow capped at flowMsgs slots so no tenant
 * can squat the whole SRAM, and a live output descriptor reserves one
 * slot of the same pool (shared input/output queue space). Heads are
 * selected associatively per GID, so the scheduled tenant's fast case
 * bypasses a descheduled tenant's arrivals parked at the front.
 */
class DamqBackend : public NiBufferBackend
{
  public:
    DamqBackend(unsigned pool_msgs, unsigned flow_msgs);

    NiBackendKind kind() const override { return NiBackendKind::Damq; }

    bool canAccept(const net::Packet &pkt) const override;
    const net::Packet &accept(net::Packet &&pkt) override;
    bool empty() const override { return slots_.empty(); }
    std::size_t size() const override { return slots_.size(); }

    const net::Packet *oldest() const override;
    const net::Packet *userHead(Gid gid, bool divert) const override;
    const net::Packet *mismatchHead(Gid gid,
                                    bool divert) const override;
    net::Packet extractAt(const net::Packet *p) override;

    void onDescriptor(bool live) override { descLive_ = live; }
    bool outputCoupled() const override { return true; }
    bool acceptsOtherFlows(const net::Packet &refused) const override;

    Cycle fastExtra(const CostModel &c) const override;

    /** Slots flow (src,gid) occupies right now (for tests). */
    unsigned flowCount(NodeId src, Gid gid) const;

  private:
    std::vector<net::Packet> slots_; ///< arrival order, front = oldest
    unsigned poolMsgs_;
    unsigned flowMsgs_;
    bool descLive_ = false;
};

/**
 * Static-FIFO input with page-flip buffered delivery: the kernel
 * donates the arrival page to the process's virtual buffer by VM
 * remap instead of copying words, so the insert is cheap, a fresh
 * "allocation" is one remap, the drain reads words that were never
 * copied, and records carry no header words.
 */
class ZerocopyRemapBackend : public StaticFifoBackend
{
  public:
    explicit ZerocopyRemapBackend(unsigned capacity_msgs)
        : StaticFifoBackend(capacity_msgs)
    {
    }

    NiBackendKind kind() const override
    {
        return NiBackendKind::ZerocopyRemap;
    }

    NiBufferedCosts bufferedCosts(const CostModel &c) const override;
    unsigned recordOverheadWords() const override { return 0; }
};

/** Build the backend NetIfConfig selects. */
std::unique_ptr<NiBufferBackend> makeNiBackend(const NetIfConfig &cfg);

} // namespace fugu::core

#endif // FUGU_CORE_NIBUF_HH
