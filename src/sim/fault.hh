/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultInjector perturbs one Machine with seeded, reproducible
 * adversity: packet delay jitter, NI input/output queue-full bursts,
 * frame-pool exhaustion, forced divert storms, atomicity-timeout
 * storms and mid-handler page faults, each at a configurable rate on
 * the scenario/config tree (fault.*), or as one of the named storms
 * that fault.class selects. Every decision draws from one
 * private Rng inside the owning Machine's single-threaded event loop,
 * so a faulted run is bit-identical across reruns and FUGU_THREADS
 * settings — the whole point is to drive the two-case delivery
 * machinery through its mode-transition corners while the invariant
 * checker (glaze::InvariantChecker) watches.
 *
 * The injector sits in the sim layer so every component above it
 * (net, core, glaze) can hold a nullable pointer; hooks cost one
 * branch when no injector is attached. The OS's second network never
 * gets an injector: it must remain the guaranteed deadlock-free path
 * (Section 4.2), under fire as in real life.
 */

#ifndef FUGU_SIM_FAULT_HH
#define FUGU_SIM_FAULT_HH

#include <functional>
#include <vector>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fugu::sim
{

class Binder;

/** The named fault storms (fault.class); their rates live in fault.cc. */
enum class FaultClass
{
    None,
    Jitter,
    InqFull,
    OutqFull,
    FrameDeny,
    Divert,
    Timeout,
    PageFault,
    Mixed,
};

struct FaultConfig
{
    bool enabled = false;

    /** Named storm; resolveFaultClass turns it into the rates below. */
    FaultClass cls = FaultClass::None;

    /** Scale factor on the named storm's base rates. */
    double intensity = 1.0;

    /** Injector RNG seed; 0 derives it from the machine seed. */
    std::uint64_t seed = 0;

    /** Per-packet chance of extra delivery delay (user net only). */
    double delayJitterProb = 0.0;

    /** Max extra delay per jittered packet. */
    Cycle delayJitterMax = 400;

    /** Per-arrival chance the NI input queue feigns "full". */
    double inputFullProb = 0.0;

    /** Length of one input-queue-full burst. */
    Cycle inputFullCycles = 600;

    /** Per-tick, per-node chance the NI output side feigns "full". */
    double outputFullProb = 0.0;

    /** Length of one output-full burst. */
    Cycle outputFullCycles = 800;

    /** Per-allocation chance the frame pool feigns exhaustion. */
    double frameDenyProb = 0.0;

    /** Per-tick, per-node chance of forcing divert (buffered) mode. */
    double divertStormProb = 0.0;

    /** Per-tick, per-node chance of forcing an atomicity timeout. */
    double atomTimeoutProb = 0.0;

    /** Per-dispatch chance of a page fault inside the handler path. */
    double pageFaultProb = 0.0;

    /** Spacing of the per-node fault ticks that drive the storms. */
    Cycle tickInterval = 3000;
};

/** Register FaultConfig's fields on the scenario/config tree. */
void bindConfig(Binder &b, FaultConfig &c);

/**
 * Resolve fault.class: any class but none sets @c enabled and fills
 * every *Prob that is still 0 with the class's base rate times
 * @c intensity. An explicit rate therefore wins, and resolving twice
 * changes nothing.
 */
void resolveFaultClass(FaultConfig &c);

class FaultInjector
{
  public:
    FaultInjector(EventQueue &eq, const FaultConfig &cfg,
                  std::uint64_t machine_seed, unsigned nodes,
                  StatGroup *stat_parent);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultConfig &config() const { return cfg_; }

    /// @name Inline hooks (called by net/core/glaze fault points)
    /// @{

    /** Extra delivery latency for the packet being sent (may be 0). */
    Cycle packetJitter();

    /**
     * Should the NI input queue at @p node refuse this arrival?
     * Opening a burst schedules a one-shot retry (the callback
     * registered with setInputRetry) for when the burst ends, so a
     * blocked channel head is re-offered exactly as after a real
     * queue-full episode.
     */
    bool inputDenied(NodeId node);

    /** Is @p node inside an output-full burst right now? */
    bool outputDenied(NodeId node) const;

    /**
     * Is @p node inside an input-full burst right now? Unlike
     * inputDenied this draws no randomness — it is a pure query for
     * callers (the head-of-line bypass) that must not perturb the
     * injector's stream.
     */
    bool
    inputBurstActive(NodeId node) const
    {
        return eq_.now() < inputDenyUntil_[node];
    }

    /** Should this frame allocation feign pool exhaustion? */
    bool frameDenied();

    /// @}
    /// @name Tick-driven draws (called by the Machine's fault tick)
    /// @{

    bool drawOutputDeny();
    void openOutputWindow(NodeId node);
    bool drawDivertStorm();
    bool drawAtomTimeout();

    /// @}

    /** Per-dispatch draw for a mid-handler page fault. */
    bool drawHandlerPageFault();

    /**
     * Register the input-burst-expiry callback (the Machine wires it
     * to Network::onSinkSpaceFreed for the faulted network).
     */
    void
    setInputRetry(std::function<void(NodeId)> cb)
    {
        inputRetry_ = std::move(cb);
    }

    struct Stats
    {
        explicit Stats(StatGroup *parent);
        StatGroup group;
        Scalar jitteredPackets;
        Scalar inputBursts;
        Scalar outputBursts;
        Scalar frameDenies;
        Scalar divertStorms;
        Scalar timeoutStorms;
        Scalar handlerFaults;
    };

    Stats stats;

  private:
    bool
    bernoulli(double p)
    {
        // Zero-rate classes must not consume randomness, or enabling
        // one fault class would perturb every other class's draws.
        return p > 0.0 && rng_.real() < p;
    }

    EventQueue &eq_;
    FaultConfig cfg_;
    Rng rng_;
    std::vector<Cycle> inputDenyUntil_;
    std::vector<Cycle> outputDenyUntil_;
    std::function<void(NodeId)> inputRetry_;
};

} // namespace fugu::sim

#endif // FUGU_SIM_FAULT_HH
