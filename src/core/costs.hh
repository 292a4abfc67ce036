/**
 * @file
 * CostModel: the per-stage cycle costs of the messaging paths.
 *
 * Defaults come from the paper's Tables 4 and 5. The modelled code
 * paths in core/glaze/rt charge these costs, so the Table 4/5
 * microbenchmarks reproduce the paper's totals by construction and the
 * application experiments inherit a consistent cost structure.
 * Experiments may override individual entries (Figure 10 sweeps
 * bufferedPathExtra).
 */

#ifndef FUGU_CORE_COSTS_HH
#define FUGU_CORE_COSTS_HH

#include "sim/types.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::core
{

/**
 * Which atomicity implementation the receive path models (Table 4
 * columns): unprotected kernel-level delivery, the hardware revocable
 * interrupt disable ("hard"), or the all-software emulation the
 * authors ran on first-silicon ("soft").
 */
enum class AtomicityMode
{
    Kernel, ///< unprotected kernel-to-kernel messaging
    Hard,   ///< hardware atomicity (the paper's proposed mechanism)
    Soft,   ///< software-emulated atomicity (their measured system)
};

struct CostModel
{
    /// @name Message send (Table 4)
    /// @{
    Cycle descriptorConstruction = 6; ///< null-message descriptor
    Cycle perSendArgWord = 3;         ///< each payload word
    Cycle launch = 1;
    /// @}

    /// @name Message receive, interrupt path (Table 4)
    /// @{
    Cycle interruptOverhead = 6;
    Cycle registerSave = 16;
    Cycle gidCheck = 10;       ///< protected modes only
    Cycle timerSetupHard = 1;  ///< hardware atomicity
    Cycle timerSetupSoft = 13; ///< software atomicity
    Cycle virtualBufferingOverhead = 8;
    Cycle dispatchKernel = 10; ///< kernel-mode dispatch
    Cycle dispatchUpcall = 13; ///< dispatch + upcall to user
    Cycle nullHandler = 5;     ///< null handler incl. dispose
    Cycle perReceiveArgWord = 2;
    Cycle upcallCleanup = 10;
    Cycle timerCleanupHard = 1;
    Cycle timerCleanupSoft = 17;
    Cycle registerRestore = 17;
    /// @}

    /// @name Message receive, polling path (Table 4)
    /// @{
    Cycle poll = 3;
    Cycle pollDispatch = 5;
    Cycle pollNullHandler = 1; ///< null handler incl. dispose
    /// @}

    /// @name Buffered path (Table 5)
    /// @{
    Cycle bufferInsertMin = 180;   ///< buffer-insert handler, no alloc
    Cycle vmallocExtra = 2982;     ///< extra when a fresh page is
                                   ///< allocated (3162 total)
    Cycle bufferNullHandler = 52;  ///< execute null handler from buffer
    /** Per-word extraction adds ~4.5 cycles (DRAM + cache misses). */
    Cycle perBufferWordX2 = 9;     ///< stored doubled to keep integers
    Cycle bufferedPathExtra = 0;   ///< Figure 10 knob: added latency
    /// @}

    /// @name NI-buffering backend charges (ni.backend ablations)
    /// @{
    Cycle damqSelect = 3;          ///< DAMQ associative head select,
                                   ///< charged per fast-path stub entry
    Cycle zerocopyInsertMin = 62;  ///< page-flip insert, page resident
    Cycle vmRemap = 420;           ///< remap the arrival page into the
                                   ///< buffer region (vs. vmallocExtra)
    /** Flipped pages drain TLB-warm: ~2.5 cycles per word. */
    Cycle zerocopyPerWordX2 = 5;   ///< stored doubled to keep integers
    /// @}

    /// @name Operating system costs (not from the paper's tables)
    /// @{
    Cycle processSwitch = 400;     ///< gang-scheduler process switch
    Cycle pageZeroFill = 600;      ///< demand-zero page fault service
    Cycle modeTransition = 60;     ///< fast<->buffered bookkeeping
    Cycle threadSwitch = 40;       ///< user-level thread switch
    Cycle pageOutLatency = 4000;   ///< swap a buffer page to backing
                                   ///< store over the second network
    Cycle pageInLatency = 4000;    ///< bring a swapped page back
    /// @}

    /** Receive-side per-word cost on the fast path. */
    Cycle
    receiveArgCost(unsigned words) const
    {
        return perReceiveArgWord * words;
    }

    /** Send-side per-word cost. */
    Cycle
    sendArgCost(unsigned words) const
    {
        return perSendArgWord * words;
    }

    /** Timer setup cost for the receive stub in @p mode. */
    Cycle
    timerSetup(AtomicityMode mode) const
    {
        return mode == AtomicityMode::Soft ? timerSetupSoft
                                           : timerSetupHard;
    }

    /** Timer cleanup cost for the receive stub in @p mode. */
    Cycle
    timerCleanup(AtomicityMode mode) const
    {
        return mode == AtomicityMode::Soft ? timerCleanupSoft
                                           : timerCleanupHard;
    }
};

/** Register every CostModel entry on the scenario/config tree. */
void bindConfig(sim::Binder &b, CostModel &c);

} // namespace fugu::core

#endif // FUGU_CORE_COSTS_HH
