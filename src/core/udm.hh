/**
 * @file
 * UdmPort: the user-level UDM messaging API (Section 3).
 *
 * A port is the application's view of the network interface on one
 * node. It implements inject/extract/peek and the explicit atomicity
 * operations as thin software wrappers over the NetIf hardware model,
 * charging the per-stage cycle costs of Table 4/5 through the
 * CostModel, and taking traps on the Cpu where the hardware would.
 *
 * Transparent access (Section 4.3): the port reads messages through a
 * "base pointer" that normally aims at the NI input window; when the
 * OS moves the process to buffered mode it retargets the pointer at
 * the software buffer (a BufferedInput). Message reads and the
 * message-available flag are thereby identical in both modes, and
 * dispose is emulated through the dispose-extend trap exactly as on
 * the hardware.
 */

#ifndef FUGU_CORE_UDM_HH
#define FUGU_CORE_UDM_HH

#include <functional>
#include <vector>

#include "core/costs.hh"
#include "core/netif.hh"
#include "exec/cpu.hh"
#include "exec/task.hh"

namespace fugu::core
{

/**
 * The software buffer's read-side interface, implemented by the OS's
 * virtual buffering system. Offsets mirror the NI input window:
 * word 0 header (source), word 1 handler, 2.. payload.
 */
class BufferedInput
{
  public:
    virtual ~BufferedInput() = default;
    virtual bool available() const = 0;
    virtual unsigned size() const = 0;
    virtual Word read(unsigned offset) const = 0;
};

class UdmPort;

/**
 * A user message handler. Invoked with the port and the source node;
 * it must extract (dispose) at least one message before returning or
 * re-enabling interrupts, per the UDM model.
 */
using Handler = std::function<exec::CoTask<void>(UdmPort &, NodeId src)>;

/**
 * Hooks the OS/process layer attaches to a port: statistics (which
 * delivery path served each message, handler occupancy) and the
 * buffered-mode atomicity emulation (the thread scheduler must defer
 * buffered-message handling across user atomic sections).
 */
class PortObserver
{
  public:
    virtual ~PortObserver() = default;
    virtual void onSend() {}
    virtual void onDispatchStart(bool buffered) { (void)buffered; }
    virtual void onDispatchEnd(bool buffered, Cycle handler_cycles)
    {
        (void)buffered;
        (void)handler_cycles;
    }
    virtual void onBeginAtomic() {}
    virtual void onEndAtomic() {}
};

class UdmPort
{
  public:
    UdmPort(exec::Cpu &cpu, NetIf &ni, const CostModel &costs);

    UdmPort(const UdmPort &) = delete;
    UdmPort &operator=(const UdmPort &) = delete;

    exec::Cpu &cpu() { return cpu_; }
    NetIf &ni() { return ni_; }
    const CostModel &costs() const { return costs_; }

    /// @name Sending
    /// @{

    /**
     * Blocking inject: describe and launch a message. Blocks (by
     * stalling, interruptibly) until the network accepts it.
     */
    exec::CoTask<void> send(NodeId dst, Word handler,
                            net::PayloadVec args = {});

    /** Conditional inject: @return false if the network is full. */
    exec::CoTask<bool> trySend(NodeId dst, Word handler,
                               net::PayloadVec args = {});

    /// @}
    /// @name Extraction (transparent between fast and buffered mode)
    /// @{

    /** The message-available flag (free to read; polling charges). */
    bool messageAvailable() const;

    /** Handler word of the pending message (peek; no cost). */
    Word headHandler() const;

    /** Source node of the pending message (peek; no cost). */
    NodeId headSrc() const;

    /** Payload length in words of the pending message. */
    unsigned headPayloadWords() const;

    /**
     * Awaiter for read(), with no coroutine frame: one per-word
     * spend, then the payload word from whichever buffer the port
     * points at when the spend ends (a divert may retarget it
     * mid-spend).
     */
    struct [[nodiscard]] ReadAwaiter : exec::Cpu::SpendAwaiter
    {
        const UdmPort *port;
        unsigned idx;
        Word await_resume() const { return port->readRaw(2 + idx); }
    };

    /**
     * Read payload word @p idx of the pending message into user
     * variables; charges the per-word extract cost of the delivery
     * path active at the call.
     */
    ReadAwaiter read(unsigned idx);

    /**
     * Extract-and-free the pending message. Charges the handler
     * base cost of the active path (Table 4/5) and takes the
     * dispose-extend trap in buffered mode.
     */
    exec::CoTask<void> dispose();

    /// @}
    /// @name Atomicity (Section 3)
    /// @{

    /** Enter an atomic section (disable message interrupts). */
    exec::CoTask<void> beginAtomic();

    /** Leave an atomic section; may trap to the OS (Table 1). */
    exec::CoTask<void> endAtomic();

    /** Is the interrupt-disable flag set? */
    bool atomicityOn() const;

    /// @}
    /// @name Notification
    /// @{

    /** Register the handler invoked for messages naming @p id. */
    void setHandler(Word id, Handler fn);

    /**
     * Poll once: charge the poll cost; if a message is pending,
     * dispatch its handler (polling-path costs) and return true.
     * Must be called inside an atomic section.
     */
    exec::CoTask<bool> poll();

    /**
     * Dispatch the pending message's handler with upcall-path costs.
     * Called by the OS upcall stub inside the upcall context.
     */
    exec::CoTask<void>
    dispatchUpcall()
    {
        return dispatch(costs_.nullHandler);
    }

    /// @}
    /// @name OS-side mode control (transparent to the user)
    /// @{

    /** Retarget extraction at the software buffer (buffered mode). */
    void enterBuffered(BufferedInput *buffer);

    /** Back to direct NI access (fast mode). */
    void exitBuffered();

    bool buffered() const { return buffered_ != nullptr; }

    /** Attach the process layer's hooks (may be null). */
    void setObserver(PortObserver *obs) { observer_ = obs; }

    /// @}

  private:
    Word readRaw(unsigned offset) const;
    exec::CoTask<void> dispatch(Cycle dispose_base);

    exec::Cpu &cpu_;
    NetIf &ni_;
    const CostModel &costs_;

    /** The buffered-path drain costs the NI's backend charges. */
    NiBufferedCosts bufCosts_;

    BufferedInput *buffered_ = nullptr;
    PortObserver *observer_ = nullptr;
    std::vector<Handler> handlers_;

    /** Base cost dispose() charges; set by the dispatch path. */
    Cycle disposeBase_;
};

} // namespace fugu::core

#endif // FUGU_CORE_UDM_HH
