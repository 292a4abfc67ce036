#include "sim/fault.hh"

#include <iterator>

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::sim
{

namespace
{

/**
 * Base rates of each named storm, in FaultClass order. They are sized
 * so a quick stress run exercises each mechanism hundreds of times
 * without wedging the schedule.
 */
const FaultConfig kStorms[] = {
    {},                         // none
    {.delayJitterProb = 0.30},  // jitter
    {.inputFullProb = 0.05},    // inqfull
    {.outputFullProb = 0.30},   // outqfull
    {.frameDenyProb = 0.20},    // framedeny
    {.divertStormProb = 0.50},  // divert
    {.atomTimeoutProb = 0.50},  // timeout
    {.pageFaultProb = 0.10},    // pagefault
    {.delayJitterProb = 0.10,   // mixed
     .inputFullProb = 0.02,
     .outputFullProb = 0.10,
     .frameDenyProb = 0.05,
     .divertStormProb = 0.15,
     .atomTimeoutProb = 0.15,
     .pageFaultProb = 0.03},
};
static_assert(std::size(kStorms) ==
              static_cast<std::size_t>(FaultClass::Mixed) + 1);

} // namespace

void
bindConfig(Binder &b, FaultConfig &c)
{
    b.item("enabled", c.enabled,
           "master switch for deterministic fault injection");
    b.enumItem("class", c.cls,
               {{"none", FaultClass::None},
                {"jitter", FaultClass::Jitter},
                {"inqfull", FaultClass::InqFull},
                {"outqfull", FaultClass::OutqFull},
                {"framedeny", FaultClass::FrameDeny},
                {"divert", FaultClass::Divert},
                {"timeout", FaultClass::Timeout},
                {"pagefault", FaultClass::PageFault},
                {"mixed", FaultClass::Mixed}},
               "named storm: enables faults and fills each *_prob "
               "still 0 with its base rate x fault.intensity");
    b.item("intensity", c.intensity,
           "scale factor on the fault.class base rates");
    b.item("seed", c.seed,
           "fault RNG seed; 0 derives it from machine.seed");
    b.item("delay_jitter_prob", c.delayJitterProb,
           "per-packet chance of extra delivery delay (user net)");
    b.item("delay_jitter_max", c.delayJitterMax,
           "max extra delay per jittered packet", "cycles");
    b.item("input_full_prob", c.inputFullProb,
           "per-arrival chance the NI input queue feigns full");
    b.item("input_full_cycles", c.inputFullCycles,
           "length of one input-queue-full burst", "cycles");
    b.item("output_full_prob", c.outputFullProb,
           "per-tick per-node chance the NI output feigns full");
    b.item("output_full_cycles", c.outputFullCycles,
           "length of one output-full burst", "cycles");
    b.item("frame_deny_prob", c.frameDenyProb,
           "per-allocation chance the frame pool feigns exhaustion");
    b.item("divert_storm_prob", c.divertStormProb,
           "per-tick per-node chance of forcing buffered mode");
    b.item("atom_timeout_prob", c.atomTimeoutProb,
           "per-tick per-node chance of a forced atomicity timeout");
    b.item("page_fault_prob", c.pageFaultProb,
           "per-dispatch chance of a page fault in the handler path");
    b.item("tick_interval", c.tickInterval,
           "spacing of the per-node fault ticks", "cycles");
}

void
resolveFaultClass(FaultConfig &c)
{
    if (c.cls == FaultClass::None)
        return;
    const FaultConfig &base = kStorms[static_cast<std::size_t>(c.cls)];
    c.enabled = true;
    for (double FaultConfig::*p :
         {&FaultConfig::delayJitterProb, &FaultConfig::inputFullProb,
          &FaultConfig::outputFullProb, &FaultConfig::frameDenyProb,
          &FaultConfig::divertStormProb, &FaultConfig::atomTimeoutProb,
          &FaultConfig::pageFaultProb})
        if (c.*p == 0)
            c.*p = base.*p * c.intensity;
}

FaultInjector::Stats::Stats(StatGroup *parent)
    : group("faults", parent),
      jitteredPackets(&group, "jittered_packets",
                      "packets given extra delivery delay"),
      inputBursts(&group, "input_bursts",
                  "NI input-queue-full bursts opened"),
      outputBursts(&group, "output_bursts",
                   "NI output-full bursts opened"),
      frameDenies(&group, "frame_denies",
                  "frame allocations denied"),
      divertStorms(&group, "divert_storms",
                   "forced transitions into buffered mode"),
      timeoutStorms(&group, "timeout_storms",
                    "forced atomicity timeouts"),
      handlerFaults(&group, "handler_faults",
                    "page faults injected into handler dispatch")
{
}

FaultInjector::FaultInjector(EventQueue &eq, const FaultConfig &cfg,
                             std::uint64_t machine_seed, unsigned nodes,
                             StatGroup *stat_parent)
    : stats(stat_parent),
      eq_(eq),
      cfg_(cfg),
      rng_(cfg.seed ? cfg.seed : machine_seed ^ 0xfa017fa017ULL),
      inputDenyUntil_(nodes, 0),
      outputDenyUntil_(nodes, 0)
{
    fugu_assert(!cfg_.enabled || cfg_.tickInterval > 0,
                "fault.tick_interval must be positive");
}

Cycle
FaultInjector::packetJitter()
{
    if (!bernoulli(cfg_.delayJitterProb) || cfg_.delayJitterMax == 0)
        return 0;
    ++stats.jitteredPackets;
    return rng_.uniform(1, cfg_.delayJitterMax);
}

bool
FaultInjector::inputDenied(NodeId node)
{
    const Cycle now = eq_.now();
    if (now < inputDenyUntil_[node])
        return true;
    if (!bernoulli(cfg_.inputFullProb))
        return false;
    ++stats.inputBursts;
    const Cycle until = now + cfg_.inputFullCycles;
    inputDenyUntil_[node] = until;
    // The network only re-offers a refused packet when told space has
    // freed up; a fault burst has no real consumer to do that, so
    // schedule the nudge for the instant the burst expires.
    if (inputRetry_)
        eq_.scheduleFn([this, node] { inputRetry_(node); }, until,
                       "fault-input-retry");
    return true;
}

bool
FaultInjector::outputDenied(NodeId node) const
{
    return eq_.now() < outputDenyUntil_[node];
}

bool
FaultInjector::frameDenied()
{
    if (!bernoulli(cfg_.frameDenyProb))
        return false;
    ++stats.frameDenies;
    return true;
}

bool
FaultInjector::drawOutputDeny()
{
    return bernoulli(cfg_.outputFullProb);
}

void
FaultInjector::openOutputWindow(NodeId node)
{
    ++stats.outputBursts;
    outputDenyUntil_[node] = eq_.now() + cfg_.outputFullCycles;
}

bool
FaultInjector::drawDivertStorm()
{
    if (!bernoulli(cfg_.divertStormProb))
        return false;
    ++stats.divertStorms;
    return true;
}

bool
FaultInjector::drawAtomTimeout()
{
    if (!bernoulli(cfg_.atomTimeoutProb))
        return false;
    ++stats.timeoutStorms;
    return true;
}

bool
FaultInjector::drawHandlerPageFault()
{
    if (!bernoulli(cfg_.pageFaultProb))
        return false;
    ++stats.handlerFaults;
    return true;
}

} // namespace fugu::sim
