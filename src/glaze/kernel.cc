#include "glaze/kernel.hh"

#include "glaze/check.hh"
#include "glaze/machine.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

namespace fugu::glaze
{

using core::kUacAtomicityExtend;
using core::kUacDisposePending;
using core::kUacInterruptDisable;
using core::NiTrap;

// ---------------------------------------------------------------------
// OsNic
// ---------------------------------------------------------------------

OsNic::OsNic(exec::Cpu &cpu, net::Network &osnet, NodeId id)
    : cpu_(cpu), id_(id)
{
    osnet.attach(id, this);
}

bool
OsNic::tryDeliver(net::Packet &&pkt)
{
    FUGU_TRACE(tracer_, id_, trace::Type::NetAccept,
               trace::osMsgId(pkt.seq), trace::DivertReason::None,
               (static_cast<std::uint32_t>(pkt.src) << 16) |
                   pkt.size());
    q_.push_back(std::move(pkt));
    cpu_.raiseIrq(core::kIrqOsNet);
    return true;
}

net::Packet
OsNic::pop()
{
    fugu_assert(!q_.empty());
    net::Packet p = std::move(q_.front());
    q_.pop_front();
    if (q_.empty())
        cpu_.lowerIrq(core::kIrqOsNet);
    return p;
}

// ---------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------

Kernel::Stats::Stats(StatGroup *parent, NodeId id)
    : group("kernel" + std::to_string(id), parent),
      upcalls(&group, "upcalls", "message-available upcalls delivered"),
      spuriousUpcalls(&group, "spurious_upcalls",
                      "upcalls whose message was diverted before "
                      "the stub could dispatch it"),
      bufferInserts(&group, "buffer_inserts",
                    "messages inserted into virtual buffers"),
      kernelMsgs(&group, "kernel_msgs", "kernel messages dispatched"),
      processSwitches(&group, "process_switches",
                      "gang quantum switches taken"),
      modeEntries(&group, "mode_entries", "entries into buffered mode"),
      modeExits(&group, "mode_exits", "exits from buffered mode"),
      pageFaults(&group, "page_faults", "page-fault traps serviced"),
      overflowEvents(&group, "overflow_events",
                     "overflow-control activations"),
      droppedNoProcess(&group, "dropped_no_process",
                       "messages for unknown GIDs dropped"),
      bufLatency(&group, "buf_latency",
                 "inject-to-extract latency, buffered path (cycles)")
{
}

Kernel::Kernel(Machine &machine, NodeId id)
    : stats(&machine.root, id), m_(machine), id_(id),
      kernelHandlers_(16)
{
}

exec::Cpu &
Kernel::cpu()
{
    return m_.node(id_).cpu;
}

core::NetIf &
Kernel::ni()
{
    return m_.node(id_).ni;
}

FramePool &
Kernel::frames()
{
    return m_.node(id_).frames;
}

const core::CostModel &
Kernel::costs() const
{
    return m_.cfg.costs;
}

core::AtomicityMode
Kernel::atomicity() const
{
    return m_.cfg.atomicity;
}

trace::Recorder *
Kernel::tracer() const
{
    return m_.tracer();
}

void
Kernel::init()
{
    auto &c = cpu();
    c.setIrqHandler(core::kIrqMessageAvailable,
                    [this](unsigned) { return onMessageAvailable(); });
    c.setIrqHandler(core::kIrqMismatchAvailable,
                    [this](unsigned) { return onMismatchAvailable(); });
    c.setIrqHandler(core::kIrqAtomicityTimeout,
                    [this](unsigned) { return onAtomicityTimeout(); },
                    /*pulse=*/true);
    c.setIrqHandler(core::kIrqOsNet,
                    [this](unsigned) { return onOsNet(); });
    c.setIrqHandler(core::kIrqSched,
                    [this](unsigned) { return onSched(); },
                    /*pulse=*/true);

    c.setTrapHandler(core::kTrapDisposeExtend, [this](auto victim) {
        return onDisposeExtend(std::move(victim));
    });
    c.setTrapHandler(core::kTrapAtomicityExtend, [this](auto victim) {
        return onAtomicityExtend(std::move(victim));
    });
    c.setTrapHandler(core::kTrapPageFault, [this](auto victim) {
        return onPageFault(std::move(victim));
    });
    c.setTrapHandler(core::kTrapDisposeFailure, [this](auto victim) {
        return onFatalTrap(std::move(victim),
                           "dispose-failure: handler exited its atomic "
                           "section without extracting a message");
    });
    c.setTrapHandler(core::kTrapBadDispose, [this](auto victim) {
        return onFatalTrap(std::move(victim),
                           "bad-dispose: dispose with no message");
    });
    c.setTrapHandler(core::kTrapProtectionViolation, [this](auto victim) {
        return onFatalTrap(std::move(victim), "protection violation");
    });

    c.setIdleHook([this] { dispatchIdle(); });

    ni().setGid(kIdleGid);

    // Overflow-control coordination messages (second network).
    setKernelHandler(kOsSuspendJob,
                     [](Kernel &k, net::Packet pkt) -> exec::CoTask<void> {
                         if (Process *p = k.findProcess(
                                 static_cast<Gid>(pkt.payload.at(0))))
                             p->suspended = true;
                         co_return;
                     });
    setKernelHandler(kOsResumeJob,
                     [](Kernel &k, net::Packet pkt) -> exec::CoTask<void> {
                         if (Process *p = k.findProcess(
                                 static_cast<Gid>(pkt.payload.at(0)))) {
                             p->suspended = false;
                             k.ensureDrain(p);
                         }
                         co_return;
                     });
}

void
Kernel::addProcess(Process *p)
{
    fugu_assert(!byGid_.count(p->gid()), "duplicate gid ", p->gid());
    byGid_[p->gid()] = p;
    p->setKernel(this);
}

Process *
Kernel::findProcess(Gid gid) const
{
    auto it = byGid_.find(gid);
    return it == byGid_.end() ? nullptr : it->second;
}

void
Kernel::installProcess(Process *p)
{
    fugu_assert(!current_, "installProcess over a running process");
    current_ = p;
    ni().setGid(p->gid());
    ni().writeUac(p->savedUac);
    ni().setDivert(p->buffered);
    if (m_.cfg.alwaysBuffered && !p->buffered)
        enterBuffered(p, /*from_atomic=*/false,
                      trace::DivertReason::Config);
    cpu().requestDispatch();
}

void
Kernel::requestSwitch(Process *next)
{
    pendingNext_ = next;
    havePendingNext_ = true;
    cpu().raiseIrq(core::kIrqSched);
}

void
Kernel::setKernelHandler(Word id, KernelHandler fn)
{
    if (kernelHandlers_.size() <= id)
        kernelHandlers_.resize(id + 1);
    kernelHandlers_[id] = std::move(fn);
}

// ---------------------------------------------------------------------
// Fast path: the message-available stub and upcall
// ---------------------------------------------------------------------

exec::Task
Kernel::onMessageAvailable()
{
    const auto &c = costs();
    ++stats.upcalls;
    // The whole stub entry is one accumulated charge. The individual
    // costs (interrupt entry, register save, GID check, timer setup,
    // upcall dispatch) are modelled as separate line items in the cost
    // table, but the stub runs them back to back with interrupts
    // already masked, so there is no legal preemption point between
    // them — fusing the awaits into one suspension changes no
    // observable timing, only how often this coroutine parks.
    Cycle entry = c.interruptOverhead + c.registerSave;
    if (atomicity() != core::AtomicityMode::Kernel)
        entry += c.gidCheck;
    entry += c.timerSetup(atomicity()) + c.virtualBufferingOverhead +
             c.dispatchUpcall;
    // Backend surcharge (e.g. the DAMQ associative head select).
    entry += ni().backend().fastExtra(c);
    co_await cpu().spend(entry);

    Process *p = current_;
    fugu_assert(p, "message-available with no current process");
    if (!p->mainStarted && !p->buffered) {
        // The arrival raced the main's startup prologue on the
        // process's first-ever quantum (a skewed gang start lets a
        // peer's send land here first): there is no handler table to
        // dispatch into yet. Divert to the software buffer — the
        // drain waits for startup before delivering.
        enterBuffered(p, (ni().uac() & kUacInterruptDisable) != 0,
                      trace::DivertReason::QuantumCarry);
        co_return;
    }
    if (!ni().messageAvailable()) {
        // The pending message can vanish while the stub spends its
        // fixed entry cost: anything that pushes the process into
        // buffered mode meanwhile (an atomicity-timeout revocation,
        // a scheduler divert, a fault-forced storm) extracts the NI
        // queue into the software buffer, and the drain machinery
        // now owns delivery. Dispatching would peek an empty port;
        // treat the upcall as spurious instead.
        ++stats.spuriousUpcalls;
        co_return;
    }

    // The handler begins execution in an atomic section, with the
    // dispose-pending exit hook armed (Table 3).
    ni().writeUac(ni().uac() | kUacInterruptDisable |
                  kUacDisposePending);

    // Part of the register save: transparently unload the output
    // descriptor. The interrupted thread may be in the middle of
    // describing a message; the handler's own injects would clobber
    // it (Section 4.1: "the contents of the output buffer may be
    // transparently unloaded and later reloaded").
    net::MsgVec saved_output = ni().saveOutput();

    // Chain: this stub -> upcall context -> the interrupted thread.
    auto self = cpu().current();
    auto interrupted = self->takeReturnTo();
    auto up = cpu().spawn("upcall", /*kernel=*/false,
                          upcallBody(p, std::move(saved_output)));
    up->setReturnTo(std::move(interrupted));
    self->setReturnTo(std::move(up));
}

exec::Task
Kernel::upcallBody(Process *p, net::MsgVec saved_output)
{
    bool skip_dispatch = false;
    if (auto *f = m_.fault(); f && f->drawHandlerPageFault()) {
        co_await injectHandlerFault(p);
        // The fault fired inside the upcall's atomic section, so it
        // revoked interrupt-disable and diverted the pending message
        // into the software buffer: there is nothing left to extract
        // directly. The drain / atomicity-extend machinery delivers
        // it; dispatching here would peek an empty port.
        skip_dispatch = !p->port().messageAvailable();
    }
    if (!skip_dispatch)
        co_await p->port().dispatchUpcall();
    const auto &c = costs();
    co_await cpu().spend(c.upcallCleanup + c.timerCleanup(atomicity()) +
                         c.registerRestore);
    // Stub epilogue: leave the atomic section. The kernel exit hooks
    // (dispose-pending, atomicity-extend) trap here if armed.
    NiTrap t = ni().endAtom(kUacInterruptDisable);
    if (t != NiTrap::None)
        co_await cpu().trap(core::trapVector(t));
    // Reload the interrupted thread's output descriptor.
    ni().restoreOutput(saved_output);
    p->onEndAtomic();
}

// ---------------------------------------------------------------------
// Mismatch path: kernel messages and buffer insertion
// ---------------------------------------------------------------------

exec::Task
Kernel::onMismatchAvailable()
{
    const auto &c = costs();
    co_await cpu().spend(c.interruptOverhead);
    while (ni().mismatchPending()) {
        const net::Packet *h = ni().mismatchHead();
        if (h->gid == kKernelGid) {
            co_await kernelDispatch(ni().kernelExtract());
        } else if (Process *p = findProcess(h->gid)) {
            // Attribution: a head GID differing from the installed GID
            // means the target is descheduled; otherwise divert mode
            // is on and the message buffers for whatever reason put
            // the process into buffered mode.
            const trace::DivertReason why =
                h->gid != ni().gid() ? trace::DivertReason::GidMismatch
                                     : p->bufferCause;
            co_await bufferInsert(p, ni().kernelExtract(), why);
        } else {
            // A message for a GID with no process here: the paper's
            // OS reports the offending sender to the global
            // scheduler; we count and drop.
            ++stats.droppedNoProcess;
            if (auto *ck = m_.checker())
                ck->onDrop(*h, id_);
            ni().kernelExtract();
        }
    }
}

exec::CoTask<void>
Kernel::kernelDispatch(net::Packet pkt)
{
    const auto &c = costs();
    ++stats.kernelMsgs;
    FUGU_TRACE(tracer(), id_, trace::Type::KernelMsg,
               trace::userMsgId(pkt.seq), trace::DivertReason::None,
               pkt.handler);
    // Entry + dispatch are back-to-back kernel-mode work with no
    // legal preemption point between them: one fused charge.
    co_await cpu().spend(
        c.registerSave + c.dispatchKernel + c.nullHandler +
        c.receiveArgCost(static_cast<unsigned>(pkt.payload.size())));
    Word id = pkt.handler;
    if (id < kernelHandlers_.size() && kernelHandlers_[id])
        co_await kernelHandlers_[id](*this, std::move(pkt));
    co_await cpu().spend(c.registerRestore);
}

exec::CoTask<void>
Kernel::bufferInsert(Process *p, net::Packet pkt,
                     trace::DivertReason reason)
{
    const auto &c = costs();
    // How a diverted message gets into the buffer is the backend's
    // call: the copying insert of Table 5, or a page flip.
    const core::NiBufferedCosts bc = ni().backend().bufferedCosts(c);
    ++stats.bufferInserts;
    FUGU_TRACE(tracer(), id_, trace::Type::Divert,
               trace::userMsgId(pkt.seq), reason,
               (static_cast<std::uint32_t>(pkt.src) << 16) | p->gid());
    fugu_assert(bc.insertBase > c.interruptOverhead);
    co_await cpu().spend(bc.insertBase - c.interruptOverhead);
    if (p->vbuf().needsNewPageFor(pkt)) {
        co_await cpu().spend(bc.newPageExtra);
        while (!p->vbuf().allocatePage())
            co_await overflowControl(p);
        if (frames().belowWatermark())
            co_await overflowControl(p);
    }
    p->vbuf().insert(std::move(pkt));
    if (p == current_)
        ensureDrain(p);
}

exec::CoTask<void>
Kernel::overflowControl(Process *p)
{
    const auto &c = costs();
    ++stats.overflowEvents;
    FUGU_TRACE(tracer(), id_, trace::Type::Overflow, 0,
               trace::DivertReason::None, p->gid());

    // Globally suspend the offending application while paging clears
    // out space (the anti-thrashing strategy of Section 4.2).
    for (NodeId n = 0; n < m_.nodeCount(); ++n) {
        if (n != id_) {
            net::PayloadVec arg(1, p->gid());
            co_await osSend(n, kOsSuspendJob, std::move(arg));
        }
    }
    p->suspended = true;

    // Page buffer pages out to backing store over the second network
    // (the guaranteed deadlock-free path).
    unsigned target = std::max(2u, p->vbuf().pagesAllocated() / 2);
    co_await cpu().spend(c.pageOutLatency);
    unsigned freed = p->vbuf().swapOut(target);
    if (freed == 0) {
        // Nothing of this process's to swap; wait for other consumers
        // of the pool to release frames.
        co_await cpu().spend(c.pageOutLatency);
    }

    // Resume; the buffering system advises the scheduler to gang
    // schedule the application (we already gang schedule, so this is
    // recorded as an event).
    for (NodeId n = 0; n < m_.nodeCount(); ++n) {
        if (n != id_) {
            net::PayloadVec arg(1, p->gid());
            co_await osSend(n, kOsResumeJob, std::move(arg));
        }
    }
    p->suspended = false;
    ensureDrain(p);
}

// ---------------------------------------------------------------------
// Revocation: atomicity timeout
// ---------------------------------------------------------------------

exec::Task
Kernel::onAtomicityTimeout()
{
    Process *p = current_;
    if (!p || p->buffered)
        co_return; // stale timeout
    co_await cpu().spend(costs().modeTransition);
    // The transition cost is paid with the event queue live: another
    // divert (a forced storm, a page fault) can land while it is
    // pending, so re-check before committing.
    if (p != current_ || p->buffered)
        co_return;
    // Revoke the interrupt-disable privilege: switch from physical to
    // virtual atomicity. The pending messages divert to the software
    // buffer via the mismatch path. Whether an atomic section is still
    // open must be read from the live UAC, not assumed from the
    // interrupt's cause: the timeout can dispatch after the section
    // that armed it closed (it stays pending behind other kernel
    // handlers), or with no section open at all when a squatter forces
    // the timer via kUacTimerForce. Committing from_atomic in those
    // states would raise the atomicity gate with no endAtomic trap
    // ever coming to clear it, wedging the drain permanently.
    enterBuffered(p, (ni().uac() & kUacInterruptDisable) != 0,
                  trace::DivertReason::AtomTimeout);
}

void
Kernel::enterBuffered(Process *p, bool from_atomic,
                      trace::DivertReason cause)
{
    fugu_assert(p == current_, "enterBuffered for non-current process");
    fugu_assert(!p->buffered);
    ++stats.modeEntries;
    p->bufferCause = cause;
    FUGU_TRACE(tracer(), id_, trace::Type::ModeEnter, 0, cause,
               p->gid());
    p->buffered = true;
    ni().setDivert(true);
    p->port().enterBuffered(&p->vbuf());
    if (from_atomic) {
        // Preserve the suspended atomic section: defer buffered
        // handling until the user exits it (atomicity-extend hook).
        ni().setKernelUac(kUacAtomicityExtend, 0);
        p->atomicGate = true;
    } else {
        ensureDrain(p);
    }
}

void
Kernel::forceDivert()
{
    Process *p = current_;
    if (!p || p->buffered || p->suspended)
        return;
    // If the storm lands inside a user atomic section, preserve it
    // exactly as a revocation would (atomicity-extend hook + gate).
    enterBuffered(p, (ni().uac() & kUacInterruptDisable) != 0,
                  trace::DivertReason::Forced);
}

void
Kernel::exitBuffered(Process *p)
{
    fugu_assert(p->buffered && p->vbuf().empty());
    ++stats.modeExits;
    FUGU_TRACE(tracer(), id_, trace::Type::ModeExit, 0,
               p->bufferCause, p->gid());
    p->bufferCause = trace::DivertReason::None;
    p->buffered = false;
    p->port().exitBuffered();
    if (p == current_)
        ni().setDivert(false);
}

void
Kernel::ensureDrain(Process *p)
{
    if (p != current_ || p->suspended)
        return;
    if (!p->buffered || p->atomicGate)
        return;
    if (p->vbuf().empty())
        return;
    if (!p->mainStarted)
        // Messages can buffer for a process that has never been
        // scheduled (skewed gang start). The drain runs at handler
        // priority and would outrank the main forever, upcalling into
        // a handler table the application never got to fill; the
        // main's first slice re-pokes us once startup has run.
        return;
    if (p->drainThread && !p->drainThread->finished())
        return;
    p->drainThread =
        p->threads().spawn("drain", rt::kPrioHandler, drainBody(p));
}

exec::Task
Kernel::drainBody(Process *p)
{
    // Handler execution is made atomic in buffered mode by elevating
    // this thread's priority (Section 4.2); handlers never block, so
    // no other application thread can interleave with one.
    while (p->buffered && !p->atomicGate &&
           p->port().messageAvailable()) {
        if (auto *f = m_.fault(); f && f->drawHandlerPageFault()) {
            co_await injectHandlerFault(p);
            // Re-check the loop conditions: servicing the fault may
            // have swapped buffer pages or gated the drain.
            if (!p->buffered || p->atomicGate ||
                !p->port().messageAvailable())
                break;
        }
        co_await p->port().dispatchUpcall();
    }
}

exec::CoTask<void>
Kernel::injectHandlerFault(Process *p)
{
    // A page far outside any application heap, reserved on first use;
    // each injection takes the full page-fault trap path and then
    // returns the frame so the pool stays conserved and the next
    // injection faults again.
    constexpr std::uint64_t kScratchPage = 0xfa017000000ull;
    if (p->as().state(kScratchPage) == PageState::Unmapped)
        p->as().reserve(kScratchPage, 1);
    if (!p->as().needsFault(kScratchPage))
        co_return;
    co_await cpu().trap(core::kTrapPageFault, kScratchPage);
    if (p->as().state(kScratchPage) == PageState::Mapped)
        p->as().unmapPage(kScratchPage);
}

// ---------------------------------------------------------------------
// Traps
// ---------------------------------------------------------------------

exec::Task
Kernel::onDisposeExtend(exec::ContextPtr)
{
    Process *p = current_;
    fugu_assert(p && p->buffered,
                "dispose-extend outside buffered mode");
    // Emulate the dispose: pop the software buffer and reset the
    // dispose-pending hook exactly as the hardware dispose would.
    ni().setKernelUac(0, kUacDisposePending);
    {
        // Buffered-path delivery completes here.
        const net::Packet &f = p->vbuf().front();
        if (auto *ck = m_.checker())
            ck->onDeliver(f, id_, p->gid(), /*buffered_path=*/true);
        const Cycle lat = cpu().now() - f.injectedAt;
        stats.bufLatency.sample(static_cast<double>(lat));
        FUGU_TRACE(tracer(), id_, trace::Type::BufExtract,
                   trace::userMsgId(f.seq), trace::DivertReason::None,
                   trace::packExtractAux(f.gid, lat));
    }
    p->vbuf().pop();
    if (!p->vbuf().empty() && p->vbuf().frontSwapped()) {
        co_await cpu().spend(costs().pageInLatency);
        while (!p->vbuf().pageInFront())
            co_await cpu().spend(1000);
    }
    if (p->vbuf().empty() && !m_.cfg.alwaysBuffered) {
        co_await cpu().spend(costs().modeTransition);
        exitBuffered(p);
    }
}

exec::Task
Kernel::onAtomicityExtend(exec::ContextPtr)
{
    Process *p = current_;
    fugu_assert(p, "atomicity-extend with no process");
    // Complete the endatom the user attempted, clear the hook, and
    // let the deferred buffered messages be handled.
    ni().setKernelUac(0, kUacAtomicityExtend);
    ni().writeUac(ni().uac() & ~kUacInterruptDisable);
    p->atomicGate = false;
    ensureDrain(p);
    co_return;
}

exec::Task
Kernel::onPageFault(exec::ContextPtr victim)
{
    Process *p = current_;
    fugu_assert(p, "page fault with no process");
    ++stats.pageFaults;
    co_await cpu().spend(costs().pageZeroFill);
    const std::uint64_t page = victim->trapArg;
    FUGU_TRACE(tracer(), id_, trace::Type::PageFault, 0,
               trace::DivertReason::None,
               static_cast<std::uint32_t>(page));
    while (!p->as().mapPage(page))
        co_await cpu().spend(1000); // wait for the pool to drain
    // A page fault inside an atomic section (e.g. in a handler) must
    // not block the network: switch to buffered mode (Section 4.3).
    if ((ni().uac() & kUacInterruptDisable) && !p->buffered) {
        co_await cpu().spend(costs().modeTransition);
        // Another divert can land while the transition cost is
        // pending; entering twice would corrupt the port state.
        if (p == current_ && !p->buffered)
            enterBuffered(p, /*from_atomic=*/true,
                          trace::DivertReason::PageFault);
    }
}

exec::Task
Kernel::onFatalTrap(exec::ContextPtr victim, const char *what)
{
    fugu_fatal("node ", id_, ": process killed in context '",
               victim->name(), "': ", what);
    co_return;
}

// ---------------------------------------------------------------------
// Second network / kernel messaging
// ---------------------------------------------------------------------

exec::Task
Kernel::onOsNet()
{
    const auto &c = costs();
    co_await cpu().spend(c.interruptOverhead + c.registerSave);
    auto &nic = m_.node(id_).osnic;
    while (!nic.empty()) {
        net::Packet pkt = nic.pop();
        Word id = pkt.handler;
        ++stats.kernelMsgs;
        FUGU_TRACE(tracer(), id_, trace::Type::KernelMsg,
                   trace::osMsgId(pkt.seq), trace::DivertReason::None,
                   pkt.handler);
        co_await cpu().spend(
            c.nullHandler +
            c.receiveArgCost(static_cast<unsigned>(pkt.payload.size())));
        if (id < kernelHandlers_.size() && kernelHandlers_[id])
            co_await kernelHandlers_[id](*this, std::move(pkt));
    }
    co_await cpu().spend(c.registerRestore);
}

exec::CoTask<void>
Kernel::kernelSend(NodeId dst, Word handler, net::PayloadVec payload)
{
    const auto &c = costs();
    const unsigned words = 2 + static_cast<unsigned>(payload.size());
    co_await cpu().spend(
        c.descriptorConstruction +
        c.sendArgCost(static_cast<unsigned>(payload.size())));
    auto saved = ni().saveOutput();
    while (!ni().spaceAvailable(dst, words))
        co_await cpu().spend(4);
    ni().writeOutput(0, core::makeHeader(dst, /*kernel=*/true));
    ni().writeOutput(1, handler);
    for (unsigned i = 0; i < payload.size(); ++i)
        ni().writeOutput(2 + i, payload[i]);
    co_await cpu().spend(c.launch);
    NiTrap t = ni().launch(words, /*user_mode=*/false);
    fugu_assert(t == NiTrap::None);
    ni().restoreOutput(saved);
}

exec::CoTask<void>
Kernel::osSend(NodeId dst, Word handler, net::PayloadVec payload)
{
    const auto &c = costs();
    co_await cpu().spend(c.descriptorConstruction + c.launch);
    net::Packet pkt;
    pkt.src = id_;
    pkt.dst = dst;
    pkt.gid = kKernelGid;
    pkt.handler = handler;
    pkt.payload = std::move(payload);
    while (!m_.osnet.canAccept(id_, dst, pkt.size()))
        co_await cpu().spend(16);
    m_.osnet.send(std::move(pkt));
}

// ---------------------------------------------------------------------
// Gang quantum switch and idle dispatch
// ---------------------------------------------------------------------

exec::Task
Kernel::onSched()
{
    co_await cpu().spend(costs().processSwitch);
    if (!havePendingNext_)
        co_return;
    Process *next = pendingNext_;
    pendingNext_ = nullptr;
    havePendingNext_ = false;
    if (next == current_)
        co_return;
    ++stats.processSwitches;
    FUGU_TRACE(tracer(), id_, trace::Type::QuantumSwitch, 0,
               trace::DivertReason::None,
               next ? next->gid() : 0xffffu);

    auto self = cpu().current();
    auto stolen = self->takeReturnTo();
    if (current_) {
        if (stolen) {
            // An interrupted rt thread goes back on its run queue so
            // priority ordering (drain thread first) is preserved —
            // unless it was interrupted in the middle of describing a
            // message, in which case it must be the first context to
            // touch the NI send side again. Non-thread contexts
            // (upcalls) always park in savedCtx.
            auto t = current_->threads().threadOf(stolen);
            if (t && ni().descriptorLength() == 0) {
                current_->threads().makeReady(t);
            } else {
                fugu_assert(!current_->savedCtx,
                            "double-saved context at quantum switch");
                current_->savedCtxUrgent =
                    ni().descriptorLength() > 0;
                current_->savedCtx = std::move(stolen);
            }
        }
        current_->savedUac = ni().uac();
        current_->savedOutput = ni().saveOutput();
    } else {
        fugu_assert(!stolen, "interrupted context with no process");
    }

    current_ = next;
    if (!next) {
        ni().setGid(kIdleGid);
        ni().writeUac(0);
        ni().setDivert(false);
        co_return;
    }

    ni().setGid(next->gid());
    ni().writeUac(next->savedUac);
    ni().restoreOutput(next->savedOutput);
    next->savedOutput.clear();
    ni().setDivert(next->buffered);

    // Transparency at the start of a quantum (Section 4.3): begin in
    // buffered mode if messages were buffered while descheduled.
    if (m_.cfg.alwaysBuffered && !next->buffered)
        enterBuffered(next, (ni().uac() & kUacInterruptDisable) != 0,
                      trace::DivertReason::Config);
    if (!next->buffered && !next->vbuf().empty()) {
        co_await cpu().spend(costs().modeTransition);
        // A divert can land while the transition cost is pending.
        if (next == current_ && !next->buffered)
            enterBuffered(next,
                          (ni().uac() & kUacInterruptDisable) != 0,
                          trace::DivertReason::QuantumCarry);
    }
    ensureDrain(next);
}

void
Kernel::dispatchIdle()
{
    Process *p = current_;
    if (!p || p->suspended)
        return;
    // Buffered-mode atomicity emulation (Section 4.2): the
    // message-handling thread runs in preference to other threads,
    // including the thread frozen at the last quantum switch — unless
    // that thread holds a suspended atomic section (atomicGate), in
    // which case it must finish first.
    const bool drain_first = p->buffered && !p->atomicGate &&
                             !p->savedCtxUrgent && p->drainThread &&
                             !p->drainThread->finished();
    if (p->savedCtx && !drain_first) {
        auto c = std::move(p->savedCtx);
        p->savedCtx = nullptr;
        p->savedCtxUrgent = false;
        cpu().switchTo(std::move(c));
        return;
    }
    if (auto ctx = p->threads().pickNext()) {
        cpu().switchTo(std::move(ctx));
        return;
    }
    if (p->savedCtx) {
        auto c = std::move(p->savedCtx);
        p->savedCtx = nullptr;
        p->savedCtxUrgent = false;
        cpu().switchTo(std::move(c));
    }
}

} // namespace fugu::glaze
