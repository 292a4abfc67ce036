/**
 * @file
 * Machine-wide invariant checker.
 *
 * The paper's central claim is that two-case delivery is *transparent*:
 * whatever mixture of fast-path and software-buffered delivery a run
 * happens to take — including fault-injected storms of mode switches —
 * an application observes exactly the semantics of a reliable,
 * per-sender-FIFO, protection-checked message layer. This checker
 * verifies that continuously, from inside the machine:
 *
 *  - per-sender FIFO: messages of one (src,dst,gid) stream are
 *    consumed in injection order, across any number of fast/buffered
 *    transitions;
 *  - content transparency: the packet handed to user code is
 *    bit-identical to the packet injected (checksummed end to end);
 *  - protection: no packet is ever delivered to a process whose GID
 *    differs from the packet's stamp, and a handler never observes a
 *    matching head it should not see;
 *  - atomicity: a handler only runs inside the hardware atomic section
 *    (direct path) or under the drain thread's software equivalent,
 *    and never while the drain is gated behind a suspended user
 *    atomic section;
 *  - conservation: every physical frame in use is accounted for by a
 *    pinned allocation, a resident vbuf page, or a mapped heap page;
 *  - accounting: the trace's per-cause Divert events sum to the
 *    kernels' bufferInserts counters.
 *
 * The checker is always compiled and on by default; it observes via
 * the net::PacketWatcher hooks plus a per-dispatch callback, keeps no
 * RNG and schedules no events, so enabling it never perturbs the
 * simulation timeline.
 */

#ifndef FUGU_GLAZE_CHECK_HH
#define FUGU_GLAZE_CHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/flatmap.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::glaze
{

class Machine;
class Process;

struct CheckConfig
{
    /** Master switch; off removes every hook's work (not the hooks). */
    bool enabled = true;

    /** Treat any violation as fatal (abort the run). */
    bool fatal = false;

    /** Run a frame-conservation sweep every N deliveries (0 = only
     *  at finalChecks). */
    std::uint64_t sweepEvery = 64;

    /**
     * Starvation: max cycles a GID with traffic pending may go
     * unserviced before it counts as a violation. 0 records the
     * per-GID service-gap watermarks without judging them — gang
     * descheduling legitimately opens gaps of a quantum or more, so
     * any limit must be set per scenario, above the quantum.
     */
    Cycle serviceGapLimit = 0;

    /**
     * Isolation: max fraction of one node's frame pool a single GID
     * may hold (vbuf-resident + heap-mapped pages). 0 records the
     * occupancy watermarks without judging them.
     */
    double frameShareLimit = 0.0;
};

/** Register CheckConfig's fields on the scenario/config tree. */
void bindConfig(sim::Binder &b, CheckConfig &c);

class InvariantChecker final : public net::PacketWatcher
{
  public:
    InvariantChecker(Machine &m, CheckConfig cfg);

    /// @name net::PacketWatcher (user network only)
    /// @{
    void onInject(const net::Packet &pkt) override;
    void onDeliver(const net::Packet &pkt, NodeId node, Gid receiver_gid,
                   bool buffered_path) override;
    void onDrop(const net::Packet &pkt, NodeId node) override;
    /// @}

    /** Called by Process at every handler dispatch, both paths. */
    void onDispatch(Process &p, bool buffered_path);

    /**
     * End-of-run checks: frame conservation on every node and Divert
     * trace events summing to the kernels' bufferInserts. Called by
     * Machine::runUntilDone on successful completion; harmless to
     * call more than once.
     */
    void finalChecks();

    /** Total violations of any class seen so far. */
    double totalViolations() const;

    /**
     * Per-GID isolation metrics, accumulated alongside the
     * transparency checks (adversarial-neighbor reporting).
     */
    struct GidIsolation
    {
        /** Watermark: longest wait of pending traffic for service. */
        Cycle serviceGapMax = 0;
        /** Watermark: most frames this GID held on any one node. */
        unsigned framePeak = 0;
        /** Watermark: largest fraction of one node's frame pool. */
        double frameShareMax = 0.0;
    };

    /** Isolation metrics of @p gid (zeros if never seen). */
    GidIsolation isolation(Gid gid) const;

    struct Stats
    {
        explicit Stats(StatGroup *parent);
        StatGroup group;
        Scalar checkedDeliveries;
        Scalar fifoViolations;
        Scalar contentViolations;
        Scalar gidViolations;
        Scalar atomicityViolations;
        Scalar conservationViolations;
        Scalar accountingViolations;
        Scalar unknownDeliveries;
        Scalar starvationViolations;
        Scalar isolationViolations;
        /** Machine-wide watermarks (max over every GID). */
        Scalar maxServiceGap;
        Scalar maxFrameShare;
    };

    Stats stats;

  private:
    /** One per-stream key: (src, dst, gid). */
    static std::uint64_t
    streamKey(NodeId src, NodeId dst, Gid gid)
    {
        return (static_cast<std::uint64_t>(src) << 32) |
               (static_cast<std::uint64_t>(dst) << 16) | gid;
    }

    static std::uint64_t checksum(const net::Packet &pkt);

    void report(Scalar &counter, const std::string &msg);
    void sweepConservation();

    struct PendingMsg
    {
        std::uint64_t checksum;
        std::uint64_t orderIdx; ///< position within its stream
    };

    /** One (src, dst, gid) stream's order indices. */
    struct StreamState
    {
        std::uint64_t sent = 0; ///< next order index to assign
        std::uint64_t next = 0; ///< order index expected to retire next
    };

    /** Live per-GID starvation/occupancy bookkeeping. */
    struct GidState
    {
        GidIsolation iso;
        Cycle lastService = 0;   ///< cycle of the last delivery
        Cycle pendingSince = 0;  ///< earliest undelivered inject
        std::uint64_t pending = 0;
    };

    GidState &gidState(Gid gid);

    /**
     * Retire @p msg from its stream (delivered or dropped). A message
     * retired past its stream's next order index jumps the queue and
     * counts one FIFO violation; the messages it overtook then retire
     * without counting again.
     */
    void retire(const net::Packet &pkt, const PendingMsg &msg,
                const char *how);

    void noteService(GidState &g, Gid gid, Cycle now);

    Machine &m_;
    CheckConfig cfg_;

    /** In-flight user messages, keyed by injection seq. */
    sim::FlatMap<std::uint64_t, PendingMsg> pending_;

    /** Order indices per stream, keyed by streamKey. */
    sim::FlatMap<std::uint64_t, StreamState> streams_;

    /** Isolation/starvation metrics, indexed by application GID. */
    std::vector<GidState> gids_;

    /** Frames accounted per node by the last conservation sweep. */
    std::vector<unsigned> accounted_;

    std::uint64_t deliveries_ = 0;
};

} // namespace fugu::glaze

#endif // FUGU_GLAZE_CHECK_HH
