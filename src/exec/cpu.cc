#include "exec/cpu.hh"

#include "exec/pool.hh"
#include "sim/log.hh"

namespace fugu::exec
{

const char *
toString(CtxState s)
{
    switch (s) {
      case CtxState::Unstarted: return "Unstarted";
      case CtxState::Active: return "Active";
      case CtxState::Frozen: return "Frozen";
      case CtxState::Blocked: return "Blocked";
      case CtxState::Finished: return "Finished";
    }
    return "?";
}

Context::Context(Cpu *cpu, std::string name, bool kernel, Task task)
    : cpu_(cpu), name_(std::move(name)), kernel_(kernel),
      task_(std::move(task))
{
    fugu_assert(task_.valid(), "context '", name_, "' needs a coroutine");
    task_.handle().promise().ctx = this;
    cpu_->linkContext(this);
}

Context::~Context()
{
    if (ctxListed_)
        cpu_->unlinkContext(this);
}

std::coroutine_handle<>
Task::promise_type::FinalAwaiter::await_suspend(Handle h) noexcept
{
    Context *ctx = h.promise().ctx;
    // A bug here would throw from a noexcept context and terminate,
    // which is an acceptable response to a corrupted simulation.
    ctx->cpu()->onFinished(ctx);
    return std::noop_coroutine();
}

Cpu::Stats::Stats(StatGroup *parent, NodeId id)
    : group("cpu" + std::to_string(id), parent),
      userCycles(&group, "user_cycles", "cycles spent in user contexts"),
      kernelCycles(&group, "kernel_cycles",
                   "cycles spent in kernel contexts"),
      irqsTaken(&group, "irqs_taken", "interrupt handlers dispatched"),
      trapsTaken(&group, "traps_taken", "traps taken"),
      contextsSpawned(&group, "contexts_spawned", "contexts created"),
      preemptions(&group, "preemptions",
                  "user contexts frozen by interrupts"),
      spendsElided(&group, "spends_elided",
                   "spends ended without an event")
{
}

Cpu::Cpu(EventQueue &eq, NodeId id, StatGroup *stat_parent)
    : stats(stat_parent, id), eq_(eq), id_(id),
      irqHandlers_(kNumIrqLines), irqPulse_(kNumIrqLines, false),
      trapHandlers_(kNumTrapVectors)
{
}

Cpu::~Cpu()
{
    destroyParkedContexts();
}

void
Cpu::linkContext(Context *ctx)
{
    ctx->ctxNext_ = ctxHead_;
    if (ctxHead_)
        ctxHead_->ctxPrev_ = ctx;
    ctxHead_ = ctx;
    ctx->ctxListed_ = true;
}

void
Cpu::unlinkContext(Context *ctx)
{
    if (ctx->ctxPrev_)
        ctx->ctxPrev_->ctxNext_ = ctx->ctxNext_;
    else
        ctxHead_ = ctx->ctxNext_;
    if (ctx->ctxNext_)
        ctx->ctxNext_->ctxPrev_ = ctx->ctxPrev_;
    ctx->ctxPrev_ = ctx->ctxNext_ = nullptr;
    ctx->ctxListed_ = false;
}

void
Cpu::destroyParkedContexts()
{
    // Drop the Cpu's own references first so frame destruction below
    // observes the final ownership graph.
    current_.reset();
    pendingReturn_.reset();
    retired_.reset();
    spend_.ctx = nullptr;
    timer_.cb = nullptr;

    // Destroy the frame of every context suspended mid-coroutine.
    // Each destruction can release ContextPtrs that in turn destroy
    // other contexts (unlinking them), so restart the scan after
    // every mutation rather than walking a possibly-stale chain.
    bool progress = true;
    while (progress) {
        progress = false;
        for (Context *c = ctxHead_; c; c = c->ctxNext_) {
            if (!c->task_.valid() || c->finished())
                continue;
            // Keep the context alive across the frame destruction:
            // the frame may hold the last ContextPtr to it, and
            // re-entering ~Context mid-assignment would be UB.
            ContextPtr keep = c->shared_from_this();
            c->state_ = CtxState::Finished;
            c->task_ = Task();
            progress = true;
            break;
        }
    }

    // Unregister survivors (contexts still referenced by outside
    // owners) so their eventual destruction does not touch this Cpu.
    for (Context *c = ctxHead_; c;) {
        Context *next = c->ctxNext_;
        c->ctxPrev_ = c->ctxNext_ = nullptr;
        c->ctxListed_ = false;
        c = next;
    }
    ctxHead_ = nullptr;
}

void
Cpu::setIrqHandler(unsigned line, IrqHandlerFactory factory, bool pulse)
{
    fugu_assert(line < kNumIrqLines, "bad irq line ", line);
    irqHandlers_[line] = std::move(factory);
    irqPulse_[line] = pulse;
}

void
Cpu::setTrapHandler(unsigned vec, TrapHandlerFactory factory)
{
    fugu_assert(vec < kNumTrapVectors, "bad trap vector ", vec);
    trapHandlers_[vec] = std::move(factory);
}

void
Cpu::setIdleHook(std::function<void()> hook)
{
    idleHook_ = std::move(hook);
}

Cycle
Cpu::userCycles() const
{
    Cycle c = userCycles_;
    if (spend_.active && spend_.ctx->preemptible())
        c += eq_.now() - spend_.start;
    return c;
}

// ---------------------------------------------------------------------
// Device interface
// ---------------------------------------------------------------------

void
Cpu::raiseIrq(unsigned line)
{
    fugu_assert(line < kNumIrqLines);
    pendingIrqs_ |= 1u << line;
    if (current_) {
        if (current_->preemptible() && spend_.active &&
            spend_.ctx == current_.get()) {
            // Preempt the user context in the middle of its spend.
            ++stats.preemptions;
            ContextPtr victim = current_;
            preemptCurrent();
            int l = pendingIrqLine();
            fugu_assert(l >= 0);
            dispatchIrq(static_cast<unsigned>(l), victim);
        }
        // Otherwise: kernel context running, or a user context is
        // between spends (its C++ code is on the call stack right
        // now). The line stays pending; it is re-checked when the
        // context next begins a spend, or at the next dispatch
        // decision.
    } else {
        requestDispatch();
    }
}

void
Cpu::lowerIrq(unsigned line)
{
    fugu_assert(line < kNumIrqLines);
    pendingIrqs_ &= ~(1u << line);
}

int
Cpu::pendingIrqLine() const
{
    if (!pendingIrqs_)
        return -1;
    for (unsigned l = 0; l < kNumIrqLines; ++l)
        if (pendingIrqs_ & (1u << l))
            return static_cast<int>(l);
    return -1;
}

// ---------------------------------------------------------------------
// Context management
// ---------------------------------------------------------------------

ContextPtr
Cpu::spawn(std::string name, bool kernel, Task task)
{
    ++stats.contextsSpawned;
    return std::allocate_shared<Context>(PoolAllocator<Context>(), this,
                                         std::move(name), kernel,
                                         std::move(task));
}

void
Cpu::switchTo(ContextPtr ctx)
{
    fugu_assert(!current_, "switchTo('", ctx->name(), "') while '",
                current_ ? current_->name() : "", "' is current");
    fugu_assert(!ctx->finished(), "switchTo a finished context '",
                ctx->name(), "'");
    int line = pendingIrqLine();
    if (ctx->preemptible() && line >= 0) {
        // Deliver the interrupt first; the handler returns to ctx.
        ++stats.preemptions;
        dispatchIrq(static_cast<unsigned>(line), std::move(ctx));
    } else {
        resumeContext(ctx);
    }
}

void
Cpu::requestDispatch()
{
    if (current_ || dispatchPending_)
        return;
    dispatchPending_ = true;
    eq_.scheduleFn([this] { reschedule(); }, eq_.now(), "cpu-dispatch");
}

// ---------------------------------------------------------------------
// Awaiter entry points
// ---------------------------------------------------------------------

bool
Cpu::onSpendSuspend(Cycle n, std::coroutine_handle<> h)
{
    fugu_assert(current_, "spend() outside any context");
    Context &ctx = *current_;
    ctx.resumePoint_ = h;
    if (ctx.preemptible() && pendingIrqLine() >= 0) {
        // An interrupt arrived while this context executed between
        // spends; take it now, before the spend begins. current_
        // moves into the handler's return path.
        ++stats.preemptions;
        ctx.state_ = CtxState::Frozen;
        ctx.remaining_ = n;
        dispatchIrq(static_cast<unsigned>(pendingIrqLine()),
                    std::move(current_));
        return true;
    }
    if (n == 0)
        return false; // nothing to wait for; continue immediately
    // Elide the spend when its end event would fire next: nothing is
    // due until then, and no user-timer event would fire inside it.
    // endSpend runs what that event would run before resuming this
    // coroutine, which then continues at the same cycle with the same
    // queue. Only here, where the coroutine's suspension would end the
    // event: beginSpend's other caller, the frozen-resume path, still
    // has work to do after it.
    const bool timer_inside = timer_.active && ctx.preemptible() &&
                              timer_.deadline < userCycles_ + n;
    if (!timer_inside && eq_.tryAdvance(eq_.now() + n)) {
        ++stats.spendsElided;
        endSpend(ctx, n);
        return false;
    }
    beginSpend(n);
    return true;
}

void
Cpu::onBlockSuspend(std::coroutine_handle<> h)
{
    fugu_assert(current_, "block() outside any context");
    ContextPtr ctx = std::move(current_);
    ctx->resumePoint_ = h;
    ctx->state_ = CtxState::Blocked;
    reschedule();
}

void
Cpu::onTrapSuspend(std::coroutine_handle<> h, unsigned vec,
                   std::uint64_t arg)
{
    fugu_assert(current_, "trap() outside any context");
    fugu_assert(vec < kNumTrapVectors && trapHandlers_[vec],
                "no handler for trap vector ", vec);
    ++stats.trapsTaken;
    ContextPtr victim = std::move(current_);
    victim->resumePoint_ = h;
    victim->state_ = CtxState::Blocked;
    victim->trapArg = arg;
    ContextPtr handler =
        spawn("trap" + std::to_string(vec), /*kernel=*/true,
              trapHandlers_[vec](victim));
    handler->setReturnTo(std::move(victim));
    resumeContext(handler);
}

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

void
Cpu::onFinished(Context *ctx)
{
    fugu_assert(current_.get() == ctx, "finish of non-current context");
    ctx->state_ = CtxState::Finished;
    pendingReturn_ = ctx->takeReturnTo();
    // Defer destruction: we are executing inside this context's
    // coroutine frame right now.
    retired_ = std::move(current_);
    requestDispatch();
}

void
Cpu::reschedule()
{
    dispatchPending_ = false;
    retired_.reset();
    if (current_)
        return;
    int line = pendingIrqLine();
    if (line >= 0) {
        ContextPtr ret = std::move(pendingReturn_);
        dispatchIrq(static_cast<unsigned>(line), std::move(ret));
        return;
    }
    if (pendingReturn_) {
        ContextPtr ret = std::move(pendingReturn_);
        switchTo(std::move(ret));
        return;
    }
    if (idleHook_)
        idleHook_();
}

void
Cpu::dispatchIrq(unsigned line, ContextPtr ret)
{
    fugu_assert(!current_);
    fugu_assert(irqHandlers_[line], "irq line ", line,
                " raised with no handler installed");
    if (irqPulse_[line])
        pendingIrqs_ &= ~(1u << line);
    ++stats.irqsTaken;
    FUGU_TRACE(tracer_, id_, trace::Type::IrqDispatch, 0,
               trace::DivertReason::None, line);
    ContextPtr handler = spawn("irq" + std::to_string(line),
                               /*kernel=*/true, irqHandlers_[line](line));
    handler->setReturnTo(std::move(ret));
    resumeContext(handler);
}

void
Cpu::resumeContext(const ContextPtr &ctx)
{
    fugu_assert(!current_);
    switch (ctx->state_) {
      case CtxState::Unstarted:
        ctx->state_ = CtxState::Active;
        current_ = ctx;
        scheduleResume(ctx->task_.handle(), 0, "ctx-start");
        break;
      case CtxState::Blocked:
        ctx->state_ = CtxState::Active;
        current_ = ctx;
        scheduleResume(ctx->resumePoint_, 0, "ctx-resume");
        break;
      case CtxState::Frozen: {
        Cycle rem = ctx->remaining_;
        ctx->state_ = CtxState::Active;
        ctx->remaining_ = 0;
        current_ = ctx;
        beginSpend(rem);
        break;
      }
      default:
        fugu_panic("resume of context '", ctx->name(), "' in state ",
                   toString(ctx->state_));
    }
}

void
Cpu::scheduleResume(std::coroutine_handle<> h, Cycle delay,
                    const char *why)
{
    eq_.scheduleFn([h] { h.resume(); }, eq_.now() + delay, why);
}

void
Cpu::beginSpend(Cycle n)
{
    fugu_assert(current_ && !spend_.active);
    spend_.active = true;
    spend_.ctx = current_.get();
    spend_.start = eq_.now();
    spend_.end = eq_.now() + n;
    spend_.endEv = eq_.scheduleFn([this] { onSpendComplete(); },
                                  spend_.end, "spend-end");
    armTimerForSpend();
}

void
Cpu::onSpendComplete()
{
    fugu_assert(spend_.active && spend_.ctx == current_.get());
    // current_ stays set (and owns ctx) until the resume below: the
    // timer callback only raises an interrupt, which pends.
    Context &ctx = *spend_.ctx;
    spend_.active = false;
    spend_.ctx = nullptr;
    endSpend(ctx, spend_.end - spend_.start);
    ctx.resumePoint_.resume();
}

void
Cpu::endSpend(const Context &ctx, Cycle n)
{
    accountCycles(ctx, n);
    if (timer_.active && ctx.preemptible()) {
        // The in-spend firing event (if any) only exists for
        // deadlines strictly inside the spend; a deadline landing
        // exactly on the spend boundary fires here.
        eq_.cancelFn(timer_.ev);
        if (userCycles_ >= timer_.deadline) {
            timer_.active = false;
            auto cb = timer_.cb;
            cb(); // typically raises an IRQ; pends until next spend
        }
    }
}

void
Cpu::preemptCurrent()
{
    fugu_assert(spend_.active && spend_.ctx == current_.get());
    Context &ctx = *spend_.ctx;
    Cycle now = eq_.now();
    Cycle consumed = now - spend_.start;
    Cycle rem = spend_.end - now;
    eq_.cancelFn(spend_.endEv);
    spend_.active = false;
    spend_.ctx = nullptr;
    accountCycles(ctx, consumed);
    if (timer_.active)
        eq_.cancelFn(timer_.ev); // re-armed at the next user spend
    ctx.state_ = CtxState::Frozen;
    ctx.remaining_ = rem;
    current_.reset();
}

void
Cpu::accountCycles(const Context &ctx, Cycle n)
{
    if (ctx.preemptible()) {
        userCycles_ += n;
        stats.userCycles += static_cast<double>(n);
    } else {
        stats.kernelCycles += static_cast<double>(n);
    }
}

// ---------------------------------------------------------------------
// User-cycle timer
// ---------------------------------------------------------------------

void
Cpu::setUserTimer(Cycle user_cycles, std::function<void()> cb)
{
    fugu_assert(user_cycles > 0, "zero user timer");
    cancelUserTimer();
    timer_.active = true;
    timer_.deadline = userCycles() + user_cycles;
    timer_.cb = std::move(cb);
    if (spend_.active && spend_.ctx->preemptible())
        armTimerForSpend();
}

void
Cpu::cancelUserTimer()
{
    if (!timer_.active)
        return;
    eq_.cancelFn(timer_.ev);
    timer_.active = false;
    timer_.cb = nullptr;
}

void
Cpu::armTimerForSpend()
{
    if (!timer_.active || !spend_.active || !spend_.ctx->preemptible())
        return;
    Cycle uc = userCycles(); // includes progress inside this spend
    fugu_assert(timer_.deadline > uc,
                "user timer deadline already passed");
    Cycle dist = timer_.deadline - uc;
    Cycle left = spend_.end - eq_.now();
    if (dist < left) {
        timer_.ev = eq_.scheduleFn(
            [this] {
                timer_.active = false;
                auto cb = timer_.cb;
                cb();
            },
            eq_.now() + dist, "user-timer");
    }
}

} // namespace fugu::exec
