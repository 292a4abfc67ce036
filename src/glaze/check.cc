#include "glaze/check.hh"

#include <optional>
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
    // FNV-1a over everything user code can observe about the message,
    // one word per step. Each step x -> (x ^ w) * prime is a bijection
    // of x for a fixed word w and of w for a fixed x (the prime is
    // odd), so changing any single word changes the checksum.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 0x100000001b3ull; };
    mix(pkt.src | (std::uint64_t{pkt.dst} << 16) |
        (std::uint64_t{pkt.gid} << 32));
    mix(pkt.handler | (std::uint64_t{pkt.payload.size()} << 32));
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

InvariantChecker::GidState &
InvariantChecker::gidState(Gid gid)
{
    // Machine assigns GIDs densely from 1, so this stays a few entries.
    if (gid >= gids_.size())
        gids_.resize(gid + 1);
    return gids_[gid];
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
    StreamState &s = streams_.getOrCreate(streamKey(pkt.src, pkt.dst, pkt.gid));
    pending_.getOrCreate(pkt.seq) = PendingMsg{checksum(pkt), s.sent++};
    // Starvation clock: the GID now has traffic pending; if it had
    // none before, gaps measure from this inject, so idle tenants
    // accrue nothing.
    GidState &g = gidState(pkt.gid);
    if (g.pending++ == 0)
        g.pendingSince = m_.now();
}

void
InvariantChecker::retire(const net::Packet &pkt, const PendingMsg &msg,
                         const char *how)
{
    StreamState &s =
        streams_.getOrCreate(streamKey(pkt.src, pkt.dst, pkt.gid));
    // Every message of the stream before s.next has retired or been
    // overtaken by one that did (and counted then), so only a message
    // past s.next jumps the queue.
    if (msg.orderIdx > s.next)
        report(stats.fifoViolations,
               detail::concat("stream (", pkt.src, "->", pkt.dst, ", gid ",
                         pkt.gid, ") ", how, " message #", msg.orderIdx,
                         " but #", s.next, " was next"));
    if (msg.orderIdx >= s.next)
        s.next = msg.orderIdx + 1;
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

    noteService(gidState(pkt.gid), pkt.gid, m_.now());

    const std::optional<PendingMsg> msg = pending_.take(pkt.seq);
    if (!msg) {
        report(stats.unknownDeliveries,
               detail::concat("seq ", pkt.seq, " consumed on node ", node,
                         " was never injected (or consumed twice)"));
        return;
    }

    retire(pkt, *msg,
           buffered_path ? "consumed (buffered)" : "consumed (direct)");

    if (msg->checksum != checksum(pkt))
        report(stats.contentViolations,
               detail::concat("seq ", pkt.seq, " payload changed between ",
                         "inject and consume (stream ", pkt.src, "->",
                         pkt.dst, ")"));

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
    const std::optional<PendingMsg> msg = pending_.take(pkt.seq);
    if (!msg)
        return;
    retire(pkt, *msg, "dropped");
    // The dropped message no longer waits for service.
    GidState &g = gidState(pkt.gid);
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
    return gid < gids_.size() ? gids_[gid].iso : GidIsolation{};
}

void
InvariantChecker::sweepConservation()
{
    accounted_.resize(m_.nodeCount());
    for (NodeId n = 0; n < m_.nodeCount(); ++n)
        accounted_[n] = m_.pinnedFrames(n);
    for (const auto &proc : m_.processes)
        accounted_[proc->node()] +=
            proc->vbuf().pagesResident() + proc->as().mappedPages();
    for (NodeId n = 0; n < m_.nodeCount(); ++n) {
        const unsigned used = m_.node(n).frames.used();
        if (used != accounted_[n])
            report(stats.conservationViolations,
                   detail::concat("node ", n, " frame pool uses ", used,
                             " frames but ", accounted_[n],
                             " are accounted for (pinned + vbuf ",
                             "resident + heap mapped)"));
    }

    // Cross-tenant occupancy, fed by the same accounting the
    // conservation check just verified: how much of its node's pool
    // each GID pins right now. A job has one process per node, so a
    // process's frames are its GID's frames on that node.
    for (const auto &proc : m_.processes) {
        const unsigned total = m_.node(proc->node()).frames.total();
        if (total == 0)
            continue;
        const unsigned frames =
            proc->vbuf().pagesResident() + proc->as().mappedPages();
        GidState &g = gidState(proc->gid());
        if (frames > g.iso.framePeak)
            g.iso.framePeak = frames;
        const double share = static_cast<double>(frames) / total;
        if (share > g.iso.frameShareMax)
            g.iso.frameShareMax = share;
        if (share > stats.maxFrameShare.value())
            stats.maxFrameShare.set(share);
        if (cfg_.frameShareLimit > 0.0 && share > cfg_.frameShareLimit)
            report(stats.isolationViolations,
                   detail::concat("gid ", proc->gid(), " holds ", frames,
                             " of ", total, " frames on node ",
                             proc->node(), " (share limit ",
                             cfg_.frameShareLimit, ")"));
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
