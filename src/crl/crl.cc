#include "crl/crl.hh"

#include <algorithm>

#include "sim/log.hh"

namespace fugu::crl
{

using exec::CoTask;

Crl::Stats::Stats(StatGroup *parent, NodeId node, Gid gid)
    : group("crl_n" + std::to_string(node) + "_g" + std::to_string(gid),
            parent),
      startOps(&group, "start_ops", "startRead/startWrite operations"),
      hits(&group, "hits", "sections satisfied locally"),
      misses(&group, "misses", "sections requiring the protocol"),
      invalidationsSent(&group, "invs", "invalidations issued (home)"),
      writebacks(&group, "writebacks", "exclusive copies written back"),
      upgrades(&group, "upgrades", "shared-to-exclusive upgrades")
{
}

Crl::Crl(glaze::Process &proc, Word handler_base)
    : stats(&proc.stats.group, proc.node(), proc.gid()), proc_(proc),
      base_(handler_base), cv_(proc.threads())
{
    registerHandlers();
}

Crl::Client &
Crl::client(Rid rid)
{
    auto it = clients_.find(rid);
    fugu_assert(it != clients_.end(), "unknown region ", rid);
    return it->second;
}

const Crl::Client &
Crl::client(Rid rid) const
{
    auto it = clients_.find(rid);
    fugu_assert(it != clients_.end(), "unknown region ", rid);
    return it->second;
}

Crl::Home &
Crl::home(Rid rid)
{
    auto it = homes_.find(rid);
    fugu_assert(it != homes_.end(), "node ", proc_.node(),
                " is not home of region ", rid);
    return it->second;
}

bool
Crl::isHome(Rid rid) const
{
    return homes_.count(rid) != 0;
}

void
Crl::createRegion(Rid rid, NodeId home_node, unsigned words)
{
    fugu_assert(words > 0, "empty region");
    fugu_assert(!clients_.count(rid), "region ", rid, " created twice");
    Client c;
    c.home = home_node;
    c.words = words;
    c.data.assign(words, 0);
    clients_.emplace(rid, std::move(c));
    if (home_node == proc_.node()) {
        Home h;
        h.words = words;
        h.data.assign(words, 0);
        homes_.emplace(rid, std::move(h));
    }
}

// ---------------------------------------------------------------------
// Data access
// ---------------------------------------------------------------------

Word
Crl::read(Rid rid, unsigned off) const
{
    const Client &c = client(rid);
    fugu_assert(c.readers > 0 || c.writing,
                "read outside a mapped section of region ", rid);
    fugu_assert(off < c.words, "read past region end");
    return c.data[off];
}

void
Crl::write(Rid rid, unsigned off, Word w)
{
    Client &c = client(rid);
    fugu_assert(c.writing, "write outside a write section of region ",
                rid);
    fugu_assert(off < c.words, "write past region end");
    c.data[off] = w;
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

exec::CoTask<void>
Crl::startRead(Rid rid)
{
    ++stats.startOps;
    co_await proc_.compute(15);
    Client &c = client(rid);
    bool counted_miss = false;
    for (;;) {
        if (c.mode != CMode::Inv && !c.writing &&
            (c.claimPending || (!c.invPending && !c.fetchPending))) {
            break;
        }
        if (c.mode == CMode::Inv && !c.reqOutstanding && !c.writing) {
            if (!counted_miss) {
                ++stats.misses;
                counted_miss = true;
            }
            c.reqOutstanding = true;
            if (isHome(rid)) {
                home(rid).queue.push_back(Req{proc_.node(), false});
                co_await homeAdvance(rid);
            } else {
                net::PayloadVec payload(1, rid);
                co_await sendMsg(c.home, kReqRead, std::move(payload));
            }
            continue; // re-check before waiting (may have granted)
        }
        co_await cv_.wait();
    }
    if (!counted_miss)
        ++stats.hits;
    c.claimPending = false;
    ++c.readers;
}

exec::CoTask<void>
Crl::endRead(Rid rid)
{
    co_await proc_.compute(10);
    Client &c = client(rid);
    fugu_assert(c.readers > 0, "endRead without startRead");
    --c.readers;
    if (c.readers == 0 && !c.writing) {
        if (c.invPending)
            co_await ackInvalidate(rid);
        if (c.fetchPending) {
            c.fetchPending = false;
            co_await writeBack(rid, c.fetchDemoteToInv);
        }
    }
    cv_.notifyAll();
}

exec::CoTask<void>
Crl::startWrite(Rid rid)
{
    ++stats.startOps;
    co_await proc_.compute(15);
    Client &c = client(rid);
    bool counted_miss = false;
    for (;;) {
        if (c.mode == CMode::Excl && !c.writing && c.readers == 0 &&
            (c.claimPending || !c.fetchPending)) {
            break;
        }
        if (c.mode != CMode::Excl && !c.reqOutstanding &&
            !c.invPending && !c.fetchPending && !c.claimPending) {
            if (!counted_miss) {
                ++stats.misses;
                if (c.mode == CMode::Shared)
                    ++stats.upgrades;
                counted_miss = true;
            }
            c.reqOutstanding = true;
            if (isHome(rid)) {
                home(rid).queue.push_back(Req{proc_.node(), true});
                co_await homeAdvance(rid);
            } else {
                net::PayloadVec payload(1, rid);
                co_await sendMsg(c.home, kReqWrite, std::move(payload));
            }
            continue;
        }
        co_await cv_.wait();
    }
    if (!counted_miss)
        ++stats.hits;
    c.claimPending = false;
    c.writing = true;
}

exec::CoTask<void>
Crl::endWrite(Rid rid)
{
    co_await proc_.compute(10);
    Client &c = client(rid);
    fugu_assert(c.writing, "endWrite without startWrite");
    c.writing = false;
    if (c.fetchPending) {
        c.fetchPending = false;
        co_await writeBack(rid, c.fetchDemoteToInv);
    }
    cv_.notifyAll();
}

// ---------------------------------------------------------------------
// Home state machine
// ---------------------------------------------------------------------

exec::CoTask<void>
Crl::homeAdvance(Rid rid)
{
    Home &h = home(rid);
    if (h.inAdvance)
        co_return; // an earlier activation will complete the work
    h.inAdvance = true;
    const NodeId me = proc_.node();

    for (;;) {
        if (h.phase != Phase::None)
            break; // waiting on a writeback or invalidation acks
        if (!h.curActive) {
            if (h.queue.empty())
                break;
            h.cur = h.queue.front();
            h.queue.pop_front();
            h.curActive = true;
        }

        // Step 1: an exclusive copy elsewhere must be written back.
        if (h.mode == HMode::Excl && h.owner != h.cur.node) {
            const bool demote = h.cur.isWrite;
            if (h.owner == me) {
                Client &c = client(rid);
                if (c.writing || c.claimPending) {
                    // The local claimant finishes first; the deferred
                    // writeback runs at endWrite/endRead.
                    c.fetchPending = true;
                    c.fetchDemoteToInv = demote;
                    h.phase = Phase::WaitWb;
                    break;
                }
                ++stats.writebacks;
                h.data = c.data;
                c.mode = demote ? CMode::Inv : CMode::Shared;
                applyWbState(h, me, demote);
            } else {
                h.phase = Phase::WaitWb;
                h.wbFill = 0;
                net::PayloadVec payload{rid, demote ? 1u : 0u};
                co_await sendMsg(h.owner, kFetch, std::move(payload));
                break;
            }
        }

        // Step 2: a write must invalidate the other sharers.
        if (h.cur.isWrite) {
            std::vector<NodeId> targets;
            for (NodeId s : h.sharers)
                if (s != h.cur.node)
                    targets.push_back(s);
            if (!targets.empty()) {
                h.invAcksLeft = static_cast<unsigned>(targets.size());
                h.phase = Phase::WaitInvAcks;
                stats.invalidationsSent += targets.size();
                for (NodeId s : targets) {
                    if (s == me) {
                        localInvalidate(rid);
                    } else {
                        net::PayloadVec payload(1, rid);
                        co_await sendMsg(s, kInv, std::move(payload));
                    }
                }
                if (h.phase == Phase::WaitInvAcks)
                    break; // remote (or deferred local) acks pending
                continue;  // all acks were immediate and local
            }
        }

        // Step 3: grant.
        co_await homeGrant(rid);
        h.curActive = false;
    }
    h.inAdvance = false;
}

void
Crl::applyWbState(Home &h, NodeId owner, bool demoted_to_inv)
{
    h.sharers.clear();
    if (demoted_to_inv) {
        h.mode = HMode::Idle;
    } else {
        h.mode = HMode::Shared;
        h.sharers.push_back(owner);
    }
}

void
Crl::homeInvAck(Rid rid, NodeId node)
{
    Home &h = home(rid);
    auto it = std::find(h.sharers.begin(), h.sharers.end(), node);
    if (it != h.sharers.end())
        h.sharers.erase(it);
    if (h.phase == Phase::WaitInvAcks) {
        fugu_assert(h.invAcksLeft > 0);
        if (--h.invAcksLeft == 0)
            h.phase = Phase::None;
    }
}

void
Crl::localInvalidate(Rid rid)
{
    Client &c = client(rid);
    fugu_assert(c.mode == CMode::Shared,
                "invalidate of non-shared local copy");
    if (c.readers > 0 || c.claimPending) {
        c.invPending = true; // acked when the claim/readers finish
        return;
    }
    c.mode = CMode::Inv;
    homeInvAck(rid, proc_.node());
    cv_.notifyAll();
}

exec::CoTask<void>
Crl::homeGrant(Rid rid)
{
    Home &h = home(rid);
    const Req r = h.cur;
    const NodeId me = proc_.node();
    const bool was_sharer =
        std::find(h.sharers.begin(), h.sharers.end(), r.node) !=
        h.sharers.end();

    if (r.isWrite) {
        h.sharers.clear();
        h.mode = HMode::Excl;
        h.owner = r.node;
    } else {
        if (!was_sharer)
            h.sharers.push_back(r.node);
        h.mode = HMode::Shared;
    }

    if (r.node == me) {
        Client &c = client(rid);
        if (!was_sharer)
            c.data = h.data;
        c.mode = r.isWrite ? CMode::Excl : CMode::Shared;
        c.reqOutstanding = false;
        c.claimPending = true;
        cv_.notifyAll();
        co_return;
    }
    co_await sendCopy(rid, r.node, r.isWrite, !was_sharer);
}

exec::CoTask<void>
Crl::sendCopy(Rid rid, NodeId dst, bool excl, bool with_data)
{
    Home &h = home(rid);
    if (with_data) {
        for (unsigned off = 0; off < h.words; off += kChunkWords) {
            const unsigned n = std::min(kChunkWords, h.words - off);
            net::PayloadVec payload;
            payload.reserve(2 + n);
            payload.push_back(rid);
            payload.push_back(off);
            for (unsigned i = 0; i < n; ++i)
                payload.push_back(h.data[off + i]);
            co_await sendMsg(dst, kChunk, std::move(payload));
        }
    }
    net::PayloadVec grant{rid, excl ? 1u : 0u, with_data ? 1u : 0u};
    co_await sendMsg(dst, kGrant, std::move(grant));
}

// ---------------------------------------------------------------------
// Client-side protocol actions
// ---------------------------------------------------------------------

exec::CoTask<void>
Crl::writeBack(Rid rid, bool demote_to_inv)
{
    Client &c = client(rid);
    fugu_assert(c.mode == CMode::Excl, "writeback of non-exclusive copy");
    ++stats.writebacks;
    if (isHome(rid)) {
        Home &h = home(rid);
        h.data = c.data;
        c.mode = demote_to_inv ? CMode::Inv : CMode::Shared;
        applyWbState(h, proc_.node(), demote_to_inv);
        h.phase = Phase::None;
        cv_.notifyAll();
        co_await homeAdvance(rid);
        co_return;
    }
    for (unsigned off = 0; off < c.words; off += kChunkWords) {
        const unsigned n = std::min(kChunkWords, c.words - off);
        net::PayloadVec payload;
        payload.reserve(2 + n);
        payload.push_back(rid);
        payload.push_back(off);
        for (unsigned i = 0; i < n; ++i)
            payload.push_back(c.data[off + i]);
        co_await sendMsg(c.home, kWbChunk, std::move(payload));
    }
    c.mode = demote_to_inv ? CMode::Inv : CMode::Shared;
    net::PayloadVec done{rid, demote_to_inv ? 0u : 1u};
    co_await sendMsg(c.home, kWbDone, std::move(done));
    cv_.notifyAll();
}

exec::CoTask<void>
Crl::ackInvalidate(Rid rid)
{
    Client &c = client(rid);
    c.invPending = false;
    c.mode = CMode::Inv;
    if (isHome(rid)) {
        homeInvAck(rid, proc_.node());
        Home &h = home(rid);
        if (h.phase == Phase::None)
            co_await homeAdvance(rid);
        co_return;
    }
    net::PayloadVec payload(1, rid);
    co_await sendMsg(c.home, kInvAck, std::move(payload));
}

void
Crl::debugDump(std::ostream &os) const
{
    os << "CRL node " << proc_.node() << "\n";
    for (const auto &[rid, c] : clients_) {
        os << "  client rid=" << rid << " mode=" << (int)c.mode
           << " readers=" << c.readers << " writing=" << c.writing
           << " req=" << c.reqOutstanding << " claim=" << c.claimPending
           << " invP=" << c.invPending << " fetchP=" << c.fetchPending
           << "\n";
    }
    for (const auto &[rid, h] : homes_) {
        os << "  home rid=" << rid << " mode=" << (int)h.mode
           << " owner=" << h.owner << " phase=" << (int)h.phase
           << " curActive=" << h.curActive << " cur.node=" << h.cur.node
           << " cur.w=" << h.cur.isWrite << " q=" << h.queue.size()
           << " invLeft=" << h.invAcksLeft << " sharers=[";
        for (NodeId s : h.sharers)
            os << s << " ";
        os << "]\n";
    }
}

exec::CoTask<void>
Crl::sendMsg(NodeId dst, MsgId id, net::PayloadVec payload)
{
    return proc_.port().send(dst, base_ + id, std::move(payload));
}

// ---------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------

void
Crl::registerHandlers()
{
    auto &port = proc_.port();

    auto reqHandler = [this](bool is_write) {
        return [this, is_write](core::UdmPort &p,
                                NodeId src) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            co_await proc_.compute(handlerCost);
            co_await p.dispose();
            home(rid).queue.push_back(Req{src, is_write});
            co_await homeAdvance(rid);
        };
    };
    port.setHandler(base_ + kReqRead, reqHandler(false));
    port.setHandler(base_ + kReqWrite, reqHandler(true));

    port.setHandler(
        base_ + kFetch,
        [this](core::UdmPort &p, NodeId) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            const bool demote = co_await p.read(1);
            co_await proc_.compute(handlerCost);
            co_await p.dispose();
            Client &c = client(rid);
            if (c.writing || c.claimPending) {
                c.fetchPending = true;
                c.fetchDemoteToInv = demote;
                co_return;
            }
            co_await writeBack(rid, demote);
        });

    port.setHandler(
        base_ + kInv,
        [this](core::UdmPort &p, NodeId) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            co_await proc_.compute(handlerCost);
            co_await p.dispose();
            Client &c = client(rid);
            fugu_assert(c.mode == CMode::Shared,
                        "INV for non-shared copy of region ", rid);
            if (c.readers > 0 || c.claimPending) {
                c.invPending = true;
                co_return;
            }
            c.mode = CMode::Inv;
            cv_.notifyAll();
            net::PayloadVec payload(1, rid);
            co_await sendMsg(c.home, kInvAck, std::move(payload));
        });

    port.setHandler(
        base_ + kInvAck,
        [this](core::UdmPort &p, NodeId src) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            co_await proc_.compute(handlerCost);
            co_await p.dispose();
            homeInvAck(rid, src);
            if (home(rid).phase == Phase::None)
                co_await homeAdvance(rid);
        });

    port.setHandler(
        base_ + kChunk,
        [this](core::UdmPort &p, NodeId) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            const unsigned off = co_await p.read(1);
            const unsigned n = p.headPayloadWords() - 2;
            Client &c = client(rid);
            for (unsigned i = 0; i < n; ++i)
                c.data[off + i] = co_await p.read(2 + i);
            co_await proc_.compute(handlerCost / 2);
            co_await p.dispose();
        });

    port.setHandler(
        base_ + kGrant,
        [this](core::UdmPort &p, NodeId) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            const bool excl = co_await p.read(1);
            co_await proc_.compute(handlerCost);
            // Install the copy before disposing. A dispose that drains
            // the last buffered message returns the process to direct
            // delivery, and the home's next message for this region (an
            // INV right behind the GRANT) can then be upcalled before
            // this handler resumes.
            Client &c = client(rid);
            c.mode = excl ? CMode::Excl : CMode::Shared;
            c.reqOutstanding = false;
            c.claimPending = true;
            co_await p.dispose();
            cv_.notifyAll();
        });

    port.setHandler(
        base_ + kWbChunk,
        [this](core::UdmPort &p, NodeId) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            const unsigned off = co_await p.read(1);
            const unsigned n = p.headPayloadWords() - 2;
            Home &h = home(rid);
            for (unsigned i = 0; i < n; ++i)
                h.data[off + i] = co_await p.read(2 + i);
            co_await proc_.compute(handlerCost / 2);
            co_await p.dispose();
        });

    port.setHandler(
        base_ + kWbDone,
        [this](core::UdmPort &p, NodeId src) -> CoTask<void> {
            const Rid rid = co_await p.read(0);
            const bool to_shared = co_await p.read(1);
            co_await proc_.compute(handlerCost);
            co_await p.dispose();
            Home &h = home(rid);
            applyWbState(h, src, /*demoted_to_inv=*/!to_shared);
            h.phase = Phase::None;
            co_await homeAdvance(rid);
        });
}

} // namespace fugu::crl
