#include "core/udm.hh"

#include "sim/log.hh"

namespace fugu::core
{

UdmPort::UdmPort(exec::Cpu &cpu, NetIf &ni, const CostModel &costs)
    : cpu_(cpu), ni_(ni), costs_(costs),
      bufCosts_(ni.backend().bufferedCosts(costs)),
      disposeBase_(costs.nullHandler)
{
}

// ---------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------

exec::CoTask<void>
UdmPort::send(NodeId dst, Word handler, net::PayloadVec args)
{
    const unsigned words = 2 + static_cast<unsigned>(args.size());
    co_await cpu_.spend(costs_.descriptorConstruction +
                        costs_.sendArgCost(
                            static_cast<unsigned>(args.size())));
    // FUGU blocks the descriptor *stores* while the network cannot
    // accept the implied message; we model the same stall here, in
    // interruptible chunks so message interrupts still land.
    while (!ni_.spaceAvailable(dst, words))
        co_await cpu_.spend(4);
    ni_.writeOutput(0, makeHeader(dst));
    ni_.writeOutput(1, handler);
    for (unsigned i = 0; i < args.size(); ++i)
        ni_.writeOutput(2 + i, args[i]);
    co_await cpu_.spend(costs_.launch);
    NiTrap t = ni_.launch(words, /*user_mode=*/true);
    fugu_assert(t == NiTrap::None, "user launch trapped unexpectedly");
    if (observer_)
        observer_->onSend();
}

exec::CoTask<bool>
UdmPort::trySend(NodeId dst, Word handler, net::PayloadVec args)
{
    const unsigned words = 2 + static_cast<unsigned>(args.size());
    co_await cpu_.spend(costs_.descriptorConstruction +
                        costs_.sendArgCost(
                            static_cast<unsigned>(args.size())));
    if (!ni_.spaceAvailable(dst, words))
        co_return false;
    ni_.writeOutput(0, makeHeader(dst));
    ni_.writeOutput(1, handler);
    for (unsigned i = 0; i < args.size(); ++i)
        ni_.writeOutput(2 + i, args[i]);
    co_await cpu_.spend(costs_.launch);
    NiTrap t = ni_.launch(words, /*user_mode=*/true);
    fugu_assert(t == NiTrap::None, "user launch trapped unexpectedly");
    if (observer_)
        observer_->onSend();
    co_return true;
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

bool
UdmPort::messageAvailable() const
{
    return buffered_ ? buffered_->available() : ni_.messageAvailable();
}

Word
UdmPort::readRaw(unsigned offset) const
{
    return buffered_ ? buffered_->read(offset) : ni_.readInput(offset);
}

Word
UdmPort::headHandler() const
{
    fugu_assert(messageAvailable(), "peek with no message");
    return readRaw(1);
}

NodeId
UdmPort::headSrc() const
{
    fugu_assert(messageAvailable(), "peek with no message");
    return headerNode(readRaw(0));
}

unsigned
UdmPort::headPayloadWords() const
{
    fugu_assert(messageAvailable(), "peek with no message");
    return (buffered_ ? buffered_->size() : ni_.inputSize()) - 2;
}

UdmPort::ReadAwaiter
UdmPort::read(unsigned idx)
{
    // Buffered: the backend-dependent per-word drain cost, kept in
    // half cycles and floored to whole cycles for each word read.
    const Cycle cost = buffered_ ? bufCosts_.perWordX2 / 2
                                 : costs_.receiveArgCost(1);
    return {cpu_.spend(cost), this, idx};
}

exec::CoTask<void>
UdmPort::dispose()
{
    if (buffered_) {
        // Retrieval from the buffer plus the dispose-extend trap
        // emulation; the base cost is the backend's.
        co_await cpu_.spend(bufCosts_.drainBase +
                            costs_.bufferedPathExtra);
    } else {
        co_await cpu_.spend(disposeBase_);
    }
    disposeBase_ = costs_.nullHandler;
    NiTrap t = ni_.dispose(/*user_mode=*/true);
    if (t == NiTrap::None)
        co_return;
    co_await cpu_.trap(trapVector(t));
}

// ---------------------------------------------------------------------
// Atomicity
// ---------------------------------------------------------------------

exec::CoTask<void>
UdmPort::beginAtomic()
{
    co_await cpu_.spend(1);
    ni_.beginAtom(kUacInterruptDisable);
    if (observer_)
        observer_->onBeginAtomic();
}

exec::CoTask<void>
UdmPort::endAtomic()
{
    co_await cpu_.spend(1);
    NiTrap t = ni_.endAtom(kUacInterruptDisable);
    if (t != NiTrap::None)
        co_await cpu_.trap(trapVector(t));
    if (observer_)
        observer_->onEndAtomic();
}

bool
UdmPort::atomicityOn() const
{
    return ni_.uac() & kUacInterruptDisable;
}

// ---------------------------------------------------------------------
// Notification / dispatch
// ---------------------------------------------------------------------

void
UdmPort::setHandler(Word id, Handler fn)
{
    if (handlers_.size() <= id)
        handlers_.resize(id + 1);
    handlers_[id] = std::move(fn);
}

exec::CoTask<void>
UdmPort::dispatch(Cycle dispose_base)
{
    const Word id = headHandler();
    const NodeId src = headSrc();
    fugu_assert(id < handlers_.size() && handlers_[id],
                "no handler registered for id ", id);
    disposeBase_ = dispose_base;
    const bool was_buffered = buffered();
    const Cycle t0 = cpu_.now();
    if (observer_)
        observer_->onDispatchStart(was_buffered);
    co_await handlers_[id](*this, src);
    if (observer_)
        observer_->onDispatchEnd(was_buffered, cpu_.now() - t0);
}

exec::CoTask<bool>
UdmPort::poll()
{
    fugu_assert(atomicityOn() || buffered_,
                "polling outside an atomic section");
    co_await cpu_.spend(costs_.poll);
    if (!messageAvailable())
        co_return false;
    co_await cpu_.spend(costs_.pollDispatch);
    co_await dispatch(costs_.pollNullHandler);
    co_return true;
}

// ---------------------------------------------------------------------
// Mode control
// ---------------------------------------------------------------------

void
UdmPort::enterBuffered(BufferedInput *buffer)
{
    fugu_assert(buffer, "null buffer");
    buffered_ = buffer;
}

void
UdmPort::exitBuffered()
{
    buffered_ = nullptr;
}

} // namespace fugu::core
