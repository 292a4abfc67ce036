#include "glaze/check.hh"

#include <string>

#include "glaze/kernel.hh"
#include "glaze/machine.hh"
#include "glaze/process.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "trace/trace.hh"

namespace fugu::glaze
{

void
bindConfig(sim::Binder &b, CheckConfig &c)
{
    b.item("enabled", c.enabled,
           "run the machine-wide invariant checker");
    b.item("fatal", c.fatal,
           "abort the run on the first invariant violation");
    b.item("sweep_every", c.sweepEvery,
           "frame-conservation sweep period (0 = final check only)",
           "deliveries");
    b.item("service_gap_limit", c.serviceGapLimit,
           "max unserviced wait per GID before a starvation violation "
           "(0 = watermark only)",
           "cycles");
    b.item("frame_share_limit", c.frameShareLimit,
           "max fraction of one node's frames a single GID may hold "
           "(0 = watermark only)");
}

InvariantChecker::Stats::Stats(StatGroup *parent)
    : group("check", parent),
      checkedDeliveries(&group, "checked_deliveries",
                        "user messages verified end to end"),
      fifoViolations(&group, "fifo_violations",
                     "per-sender FIFO order violations"),
      contentViolations(&group, "content_violations",
                        "payload checksum mismatches"),
      gidViolations(&group, "gid_violations",
                    "cross-GID delivery / visibility violations"),
      atomicityViolations(&group, "atomicity_violations",
                          "handler dispatches outside an atomic section"),
      conservationViolations(&group, "conservation_violations",
                             "frame-pool accounting mismatches"),
      accountingViolations(&group, "accounting_violations",
                           "trace Divert counts vs kernel bufferInserts"),
      unknownDeliveries(&group, "unknown_deliveries",
                        "deliveries of packets never seen injected"),
      starvationViolations(&group, "starvation_violations",
                           "per-GID service gaps past the limit"),
      isolationViolations(&group, "isolation_violations",
                          "per-GID frame-pool shares past the limit"),
      maxServiceGap(&group, "max_service_gap",
                    "watermark: longest pending-traffic service gap"),
      maxFrameShare(&group, "max_frame_share",
                    "watermark: largest single-GID frame-pool share")
{
}

InvariantChecker::InvariantChecker(Machine &m, CheckConfig cfg)
    : stats(&m.root), m_(m), cfg_(cfg)
{
}

std::uint64_t
InvariantChecker::checksum(const net::Packet &pkt)
{
    // FNV-1a over everything user code can observe about the message.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(pkt.src);
    mix(pkt.dst);
    mix(pkt.gid);
    mix(pkt.handler);
    mix(pkt.payload.size());
    for (Word w : pkt.payload)
        mix(w);
    return h;
}

void
InvariantChecker::report(Scalar &counter, const std::string &msg)
{
    ++counter;
    warn("invariant violation @", m_.now(), ": ", msg);
    if (cfg_.fatal)
        fugu_fatal("invariant violation (check.fatal=true): ", msg);
}

void
InvariantChecker::onInject(const net::Packet &pkt)
{
    if (!cfg_.enabled)
        return;
    // Kernel-tagged messages are internal protocol (scheduler
    // broadcasts etc.), not application messages with delivery
    // semantics to verify.
    if (pkt.gid == kKernelGid)
        return;
    const std::uint64_t key = streamKey(pkt.src, pkt.dst, pkt.gid);
    pending_.emplace(pkt.seq,
                     PendingMsg{checksum(pkt), sendIdx_[key]++});
    // Starvation clock: the GID now has traffic pending; if it had
    // none before, gaps measure from this inject, so idle tenants
    // accrue nothing.
    GidState &g = gids_[pkt.gid];
    if (g.pending++ == 0)
        g.pendingSince = m_.now();
}

void
InvariantChecker::onDeliver(const net::Packet &pkt, NodeId node,
                            Gid receiver_gid, bool buffered_path)
{
    if (!cfg_.enabled || pkt.gid == kKernelGid)
        return;

    if (pkt.gid != receiver_gid)
        report(stats.gidViolations,
               detail::concat("packet gid ", pkt.gid, " consumed by gid ",
                         receiver_gid, " on node ", node,
                         buffered_path ? " (buffered)" : " (direct)"));
    if (pkt.dst != node)
        report(stats.gidViolations,
               detail::concat("packet for node ", pkt.dst,
                         " consumed on node ", node));

    noteService(gids_[pkt.gid], pkt.gid, m_.now());

    auto it = pending_.find(pkt.seq);
    if (it == pending_.end()) {
        report(stats.unknownDeliveries,
               detail::concat("seq ", pkt.seq, " consumed on node ", node,
                         " was never injected (or consumed twice)"));
        return;
    }

    const std::uint64_t key = streamKey(pkt.src, pkt.dst, pkt.gid);
    std::uint64_t &expect = consumeIdx_[key];
    if (it->second.orderIdx != expect)
        report(stats.fifoViolations,
               detail::concat("stream (", pkt.src, "->", pkt.dst, ", gid ",
                         pkt.gid, ") consumed message #",
                         it->second.orderIdx, " but #", expect,
                         " was next",
                         buffered_path ? " (buffered)" : " (direct)"));
    if (it->second.orderIdx >= expect)
        expect = it->second.orderIdx + 1;

    if (it->second.checksum != checksum(pkt))
        report(stats.contentViolations,
               detail::concat("seq ", pkt.seq, " payload changed between ",
                         "inject and consume (stream ", pkt.src, "->",
                         pkt.dst, ")"));

    pending_.erase(it);
    ++stats.checkedDeliveries;

    ++deliveries_;
    if (cfg_.sweepEvery && deliveries_ % cfg_.sweepEvery == 0)
        sweepConservation();
}

void
InvariantChecker::onDrop(const net::Packet &pkt, NodeId node)
{
    if (!cfg_.enabled || pkt.gid == kKernelGid)
        return;
    (void)node;
    // A kernel-policy drop (no process owns the GID here) retires the
    // message's slot in its stream so later deliveries — if a process
    // does own the GID elsewhere in time — still FIFO-check cleanly.
    auto it = pending_.find(pkt.seq);
    if (it == pending_.end())
        return;
    const std::uint64_t key = streamKey(pkt.src, pkt.dst, pkt.gid);
    std::uint64_t &expect = consumeIdx_[key];
    if (it->second.orderIdx >= expect)
        expect = it->second.orderIdx + 1;
    pending_.erase(it);
    // The dropped message no longer waits for service.
    GidState &g = gids_[pkt.gid];
    if (g.pending && --g.pending == 0)
        g.pendingSince = 0;
}

void
InvariantChecker::onDispatch(Process &p, bool buffered_path)
{
    if (!cfg_.enabled)
        return;

    // Handler atomicity (Section 3): a direct-path handler runs with
    // the hardware atomic section on; a buffered-path handler runs
    // under the drain thread. Neither may run while the drain is
    // gated behind a user atomic section suspended by revocation —
    // except the gated context itself (a resumed upcall that owns the
    // suspended section) finishing its own extraction, which is not
    // the drain thread.
    if (!p.port().buffered() && !p.port().atomicityOn())
        report(stats.atomicityViolations,
               detail::concat("direct dispatch outside an atomic section on ",
                         "node ", p.node(), " gid ", p.gid()));
    if (p.atomicGate && p.drainThread &&
        p.threads().current() == p.drainThread)
        report(stats.atomicityViolations,
               detail::concat("drain dispatch while the atomicity gate is ",
                         "closed on node ", p.node(), " gid ", p.gid()));

    // Protection: in direct mode the head the hardware would hand out
    // must carry this process's GID.
    if (!buffered_path && !p.port().ni().divert() &&
        p.port().ni().head() != nullptr &&
        p.port().ni().head()->gid != p.gid())
        report(stats.gidViolations,
               detail::concat("direct dispatch with a foreign-gid head on ",
                         "node ", p.node(), " (head gid ",
                         p.port().ni().head()->gid, ", process gid ",
                         p.gid(), ")"));
}

void
InvariantChecker::noteService(GidState &g, Gid gid, Cycle now)
{
    // Starvation watermark: how long this GID's oldest pending
    // message had been waiting when service finally arrived. Measured
    // from the later of the last delivery and the first queued
    // inject; skipped entirely when no inject was tracked (a
    // delivery the injector never saw is the unknown-delivery check's
    // business, not a service gap).
    if (g.pending) {
        const Cycle since = g.lastService > g.pendingSince
                                ? g.lastService
                                : g.pendingSince;
        const Cycle gap = now > since ? now - since : 0;
        if (gap > g.iso.serviceGapMax)
            g.iso.serviceGapMax = gap;
        if (static_cast<double>(gap) > stats.maxServiceGap.value())
            stats.maxServiceGap.set(static_cast<double>(gap));
        if (cfg_.serviceGapLimit && gap > cfg_.serviceGapLimit)
            report(stats.starvationViolations,
                   detail::concat("gid ", gid, " went ", gap,
                             " cycles unserviced with traffic ",
                             "pending (limit ", cfg_.serviceGapLimit,
                             ")"));
        if (--g.pending == 0)
            g.pendingSince = 0;
    }
    g.lastService = now;
}

InvariantChecker::GidIsolation
InvariantChecker::isolation(Gid gid) const
{
    const auto it = gids_.find(gid);
    return it == gids_.end() ? GidIsolation{} : it->second.iso;
}

void
InvariantChecker::sweepConservation()
{
    for (NodeId n = 0; n < m_.nodeCount(); ++n) {
        unsigned expected = m_.pinnedFrames(n);
        std::unordered_map<Gid, unsigned> held;
        for (const auto &proc : m_.processes) {
            if (proc->node() != n)
                continue;
            const unsigned frames = proc->vbuf().pagesResident() +
                                    proc->as().mappedPages();
            expected += frames;
            held[proc->gid()] += frames;
        }
        const unsigned used = m_.node(n).frames.used();
        if (used != expected)
            report(stats.conservationViolations,
                   detail::concat("node ", n, " frame pool uses ", used,
                             " frames but ", expected,
                             " are accounted for (pinned + vbuf ",
                             "resident + heap mapped)"));

        // Cross-tenant occupancy, fed by the same accounting the
        // conservation check just verified: how much of this node's
        // pool each GID pins right now.
        const unsigned total = m_.node(n).frames.total();
        if (total == 0)
            continue;
        for (const auto &[gid, frames] : held) {
            GidState &g = gids_[gid];
            if (frames > g.iso.framePeak)
                g.iso.framePeak = frames;
            const double share =
                static_cast<double>(frames) / total;
            if (share > g.iso.frameShareMax)
                g.iso.frameShareMax = share;
            if (share > stats.maxFrameShare.value())
                stats.maxFrameShare.set(share);
            if (cfg_.frameShareLimit > 0.0 &&
                share > cfg_.frameShareLimit)
                report(stats.isolationViolations,
                       detail::concat("gid ", gid, " holds ", frames,
                                 " of ", total, " frames on node ", n,
                                 " (share limit ",
                                 cfg_.frameShareLimit, ")"));
        }
    }
}

void
InvariantChecker::finalChecks()
{
    if (!cfg_.enabled)
        return;
    sweepConservation();

    // Per-cause Divert trace events must sum to the kernels'
    // bufferInserts counters — every software-buffered insertion is
    // attributed to exactly one cause. Only checkable when the ring
    // kept every event.
    const trace::Recorder *tr = m_.tracer();
    if (!tr || tr->buffer().dropped() != 0)
        return;
    const trace::TraceBuffer &buf = tr->buffer();
    std::uint64_t diverts = 0;
    for (std::size_t i = 0; i < buf.size(); ++i)
        if (buf[i].type == static_cast<std::uint8_t>(trace::Type::Divert))
            ++diverts;
    double inserts = 0;
    for (NodeId n = 0; n < m_.nodeCount(); ++n)
        inserts += m_.node(n).kernel.stats.bufferInserts.value();
    if (diverts != static_cast<std::uint64_t>(inserts))
        report(stats.accountingViolations,
               detail::concat("trace records ", diverts,
                         " Divert events but kernels count ", inserts,
                         " buffer inserts"));
}

double
InvariantChecker::totalViolations() const
{
    return stats.fifoViolations.value() + stats.contentViolations.value() +
           stats.gidViolations.value() +
           stats.atomicityViolations.value() +
           stats.conservationViolations.value() +
           stats.accountingViolations.value() +
           stats.unknownDeliveries.value() +
           stats.starvationViolations.value() +
           stats.isolationViolations.value();
}

} // namespace fugu::glaze
