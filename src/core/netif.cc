#include "core/netif.hh"

#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

namespace fugu::core
{

void
bindConfig(sim::Binder &b, NetIfConfig &c)
{
    b.item("input_queue_msgs", c.inputQueueMsgs,
           "hardware input queue depth", "messages");
    b.item("atomicity_timeout", c.atomicityTimeout,
           "atomicity-timeout preset (a free parameter, Section 4.1)",
           "cycles");
    b.enumItem("backend", c.backend,
               {{"static_fifo", NiBackendKind::StaticFifo},
                {"damq", NiBackendKind::Damq},
                {"zerocopy_remap", NiBackendKind::ZerocopyRemap}},
               "NI input-queue buffering design (core/nibuf.hh)");
    b.item("damq_pool_msgs", c.damqPoolMsgs,
           "DAMQ shared slot pool (input + live output descriptor)",
           "messages");
    b.item("damq_flow_msgs", c.damqFlowMsgs,
           "DAMQ per-(source,GID) flow occupancy cap", "messages");
}

unsigned
trapVector(NiTrap t)
{
    switch (t) {
      case NiTrap::Protection: return kTrapProtectionViolation;
      case NiTrap::BadDispose: return kTrapBadDispose;
      case NiTrap::DisposeFailure: return kTrapDisposeFailure;
      case NiTrap::AtomicityExtend: return kTrapAtomicityExtend;
      case NiTrap::DisposeExtend: return kTrapDisposeExtend;
      case NiTrap::None: break;
    }
    fugu_panic("no vector for NiTrap::None");
}

NetIf::Stats::Stats(StatGroup *parent, NodeId id)
    : group("ni" + std::to_string(id), parent),
      launches(&group, "launches", "messages launched"),
      received(&group, "received", "messages accepted from the network"),
      disposed(&group, "disposed", "messages disposed"),
      mismatchIrqs(&group, "mismatch_irqs",
                   "mismatch-available assertions"),
      messageIrqs(&group, "message_irqs",
                  "message-available assertions"),
      atomicityTimeouts(&group, "atomicity_timeouts",
                        "atomicity timer expirations"),
      fastLatency(&group, "fast_latency",
                  "inject-to-dispose latency, fast path (cycles)")
{
}

NetIf::NetIf(exec::Cpu &cpu, net::Network &network, NodeId id,
             NetIfConfig cfg, StatGroup *stat_parent)
    : stats(stat_parent, id), cpu_(cpu), network_(network), id_(id),
      cfg_(cfg), inb_(makeNiBackend(cfg_)), outBuf_{}
{
    fugu_assert(cfg_.inputQueueMsgs >= 1);
    network_.attach(id, this);
}

// ---------------------------------------------------------------------
// Network side
// ---------------------------------------------------------------------

bool
NetIf::tryDeliver(net::Packet &&pkt)
{
    // An injected input-full burst is indistinguishable from a real
    // full queue: the network keeps the packet at the channel head
    // and re-offers it when the burst expires.
    if (fault_ && fault_->inputDenied(id_))
        return false;
    if (!inb_->canAccept(pkt))
        return false;
    const net::Packet &stored = inb_->accept(std::move(pkt));
    ++stats.received;
    FUGU_TRACE(tracer_, id_, trace::Type::NetAccept,
               trace::userMsgId(stored.seq),
               trace::DivertReason::None,
               (static_cast<std::uint32_t>(stored.src) << 16) |
                   stored.size());
    updateLines();
    return true;
}

bool
NetIf::refusalIsSelective(const net::Packet &pkt) const
{
    // Inside an injected input-full burst everything is refused
    // alike; only a backend flow-cap refusal is packet-specific.
    if (fault_ && fault_->inputBurstActive(id_))
        return false;
    return inb_->acceptsOtherFlows(pkt);
}

// ---------------------------------------------------------------------
// User-visible registers
// ---------------------------------------------------------------------

const net::Packet *
NetIf::visibleHead() const
{
    const net::Packet *u = inb_->userHead(gid_, divert_);
    return u ? u : inb_->oldest();
}

bool
NetIf::messageAvailable() const
{
    return inb_->userHead(gid_, divert_) != nullptr;
}

unsigned
NetIf::inputSize() const
{
    const net::Packet *h = visibleHead();
    return h ? h->size() : 0;
}

Word
NetIf::readInput(unsigned offset) const
{
    const net::Packet *h = visibleHead();
    fugu_assert(h, "input window read with no message");
    const net::Packet &p = *h;
    if (offset == 0)
        return makeHeader(p.src, p.gid == kKernelGid);
    if (offset == 1)
        return p.handler;
    fugu_assert(offset - 2 < p.payload.size(),
                "input window read past message end (offset ", offset,
                ")");
    return p.payload[offset - 2];
}

void
NetIf::setDescLen(unsigned n)
{
    const bool was_live = descLen_ > 0;
    descLen_ = n;
    const bool live = n > 0;
    if (live == was_live)
        return;
    inb_->onDescriptor(live);
    // Shared input/output space: the dying descriptor frees an input
    // slot, so packets refused for it (held at their channel heads)
    // must be re-offered now.
    if (!live && inb_->outputCoupled())
        network_.onSinkSpaceFreed(id_);
}

void
NetIf::writeOutput(unsigned offset, Word w)
{
    fugu_assert(offset < net::kMaxMessageWords,
                "output descriptor overflow (offset ", offset, ")");
    outBuf_[offset] = w;
    if (offset + 1 > descLen_)
        setDescLen(offset + 1);
}

bool
NetIf::spaceAvailable(NodeId dst, unsigned words) const
{
    if (fault_ && fault_->outputDenied(id_))
        return false;
    return network_.canAccept(id_, dst, words);
}

// ---------------------------------------------------------------------
// Operations (Table 1)
// ---------------------------------------------------------------------

NiTrap
NetIf::launch(unsigned n, bool user_mode)
{
    fugu_assert(n >= 2 && n <= net::kMaxMessageWords, "bad launch size ",
                n);
    if (user_mode && headerKernel(outBuf_[0]))
        return NiTrap::Protection;
    if (descLen_ == 0)
        return NiTrap::None; // Table 1: nothing described, no effect
    fugu_assert(n <= descLen_, "launch length ", n,
                " exceeds described ", descLen_);

    net::Packet pkt;
    pkt.src = id_;
    pkt.dst = headerNode(outBuf_[0]);
    // The hardware stamps the GID of the current application; kernel
    // launches are stamped with the kernel GID.
    pkt.gid = user_mode ? gid_ : kKernelGid;
    pkt.handler = outBuf_[1];
    pkt.payload.assign(outBuf_.begin() + 2, outBuf_.begin() + n);
    network_.send(std::move(pkt));

    setDescLen(0);
    ++stats.launches;
    return NiTrap::None;
}

NiTrap
NetIf::dispose(bool user_mode)
{
    if (user_mode && divert_)
        return NiTrap::DisposeExtend;
    if (!messageAvailable() && user_mode)
        return NiTrap::BadDispose;
    fugu_assert(!inb_->empty(), "dispose with empty input queue");
    const net::Packet *u = inb_->userHead(gid_, divert_);
    const net::Packet *h = u ? u : inb_->oldest();
    if (u) {
        // The fast (direct) path completes here: the message went
        // from the wire straight into the handler's dispose.
        if (watcher_)
            watcher_->onDeliver(*u, id_, gid_,
                                /*buffered_path=*/false);
        const Cycle lat = cpu_.now() - u->injectedAt;
        stats.fastLatency.sample(static_cast<double>(lat));
        FUGU_TRACE(tracer_, id_, trace::Type::DirectExtract,
                   trace::userMsgId(u->seq), trace::DivertReason::None,
                   trace::packExtractAux(u->gid, lat));
    }
    inb_->extractAt(h);
    ++stats.disposed;
    // Table 3: dispose resets dispose-pending and presets the timer.
    uac_ &= ~kUacDisposePending;
    network_.onSinkSpaceFreed(id_);
    updateLines(/*restart_timer=*/true);
    return NiTrap::None;
}

void
NetIf::beginAtom(unsigned mask)
{
    uac_ |= mask & kUacUserMask;
    updateLines();
}

NiTrap
NetIf::endAtom(unsigned mask)
{
    if (uac_ & kUacDisposePending)
        return NiTrap::DisposeFailure;
    if (uac_ & kUacAtomicityExtend)
        return NiTrap::AtomicityExtend;
    uac_ &= ~(mask & kUacUserMask);
    updateLines();
    return NiTrap::None;
}

// ---------------------------------------------------------------------
// Kernel registers and privileged operations
// ---------------------------------------------------------------------

void
NetIf::setGid(Gid gid)
{
    gid_ = gid;
    updateLines();
}

void
NetIf::setDivert(bool on)
{
    divert_ = on;
    updateLines();
}

void
NetIf::setAtomicityTimeout(Cycle preset)
{
    fugu_assert(preset > 0);
    cfg_.atomicityTimeout = preset;
}

void
NetIf::setKernelUac(unsigned set_mask, unsigned clear_mask)
{
    uac_ |= set_mask & kUacKernelMask;
    uac_ &= ~(clear_mask & kUacKernelMask);
    updateLines();
}

void
NetIf::writeUac(unsigned value)
{
    uac_ = value & (kUacUserMask | kUacKernelMask);
    updateLines();
}

bool
NetIf::mismatchPending() const
{
    return inb_->mismatchHead(gid_, divert_) != nullptr;
}

const net::Packet *
NetIf::head() const
{
    return visibleHead();
}

const net::Packet *
NetIf::mismatchHead() const
{
    return inb_->mismatchHead(gid_, divert_);
}

net::Packet
NetIf::kernelExtract()
{
    fugu_assert(!inb_->empty(), "kernelExtract with empty queue");
    const net::Packet *m = inb_->mismatchHead(gid_, divert_);
    net::Packet p = inb_->extractAt(m ? m : inb_->oldest());
    ++stats.disposed;
    network_.onSinkSpaceFreed(id_);
    updateLines(/*restart_timer=*/true);
    return p;
}

net::MsgVec
NetIf::saveOutput()
{
    net::MsgVec saved;
    saved.assign(outBuf_.begin(), outBuf_.begin() + descLen_);
    setDescLen(0);
    return saved;
}

void
NetIf::restoreOutput(const net::MsgVec &saved)
{
    fugu_assert(descLen_ == 0, "restoreOutput over a live descriptor");
    std::copy(saved.begin(), saved.end(), outBuf_.begin());
    setDescLen(saved.size());
}

void
NetIf::subscribeSpace(NodeId dst, net::SpaceWaiter *waiter)
{
    network_.subscribeSpace(id_, dst, waiter);
}

void
NetIf::injectAtomicityTimeout()
{
    // Only a timer that is genuinely armed may fire early; otherwise
    // the injection would manufacture a timeout the hardware could
    // never produce (e.g. with no message pending).
    if (!timerRunning_)
        return;
    cpu_.cancelUserTimer();
    timerRunning_ = false;
    ++stats.atomicityTimeouts;
    FUGU_TRACE(tracer_, id_, trace::Type::AtomTimeout);
    cpu_.raiseIrq(kIrqAtomicityTimeout);
}

// ---------------------------------------------------------------------
// Interrupt line / timer recomputation
// ---------------------------------------------------------------------

void
NetIf::raiseLine(unsigned line, bool want)
{
    if (want == linesRaised_[line])
        return;
    linesRaised_[line] = want;
    if (want)
        cpu_.raiseIrq(line);
    else
        cpu_.lowerIrq(line);
}

void
NetIf::updateLines(bool restart_timer)
{
    const bool pending_user = messageAvailable();
    const bool mismatch = mismatchPending();
    const bool msg_irq = pending_user && !(uac_ & kUacInterruptDisable);

    if (msg_irq && !linesRaised_[kIrqMessageAvailable])
        ++stats.messageIrqs;
    if (mismatch && !linesRaised_[kIrqMismatchAvailable])
        ++stats.mismatchIrqs;

    raiseLine(kIrqMismatchAvailable, mismatch);
    raiseLine(kIrqMessageAvailable, msg_irq);

    // Table 3 timer enable: timer-force, or interrupts disabled while
    // a message for this application is pending.
    const bool timer_en = (uac_ & kUacTimerForce) ||
                          ((uac_ & kUacInterruptDisable) && pending_user);
    if (!timer_en) {
        if (timerRunning_) {
            cpu_.cancelUserTimer();
            timerRunning_ = false;
        }
        return;
    }
    if (!timerRunning_ || restart_timer) {
        timerRunning_ = true;
        cpu_.setUserTimer(cfg_.atomicityTimeout, [this] {
            timerRunning_ = false;
            ++stats.atomicityTimeouts;
            FUGU_TRACE(tracer_, id_, trace::Type::AtomTimeout);
            cpu_.raiseIrq(kIrqAtomicityTimeout);
        });
    }
}

} // namespace fugu::core
