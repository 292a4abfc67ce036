/**
 * @file
 * Adversarial-neighbor tenants: applications written to *attack* the
 * two-case delivery machinery from inside their own protection
 * domain, for the isolation grid (harness::runAgainst, bench_sweep's
 * sweep.adversaries) and the stress sweep.
 *
 * Each adversary leans on exactly one shared resource the paper's
 * design multiplexes between tenants:
 *
 *  - hog: keeps the NI input ring / DAMQ pool saturated by flooding
 *    its neighbour while the receive handler sits on every message
 *    before disposing, so the head stays parked in the NI;
 *  - abuser: refuses to drain its own software buffer — it squats in
 *    back-to-back user atomic sections while its peers flood it, so
 *    arrivals divert to the vbuf and overflow control engages;
 *  - squatter: repeatedly re-arms physical atomicity and holds every
 *    section past the revocation preset (optionally arming the
 *    user-visible timer-force bit instead), so the kernel's
 *    atomicity-timeout path fires continuously;
 *  - covert tx/rx: two *cooperating* jobs in different protection
 *    domains that try to signal through shared NI-queue occupancy:
 *    tx floods a target node during "mark" windows of a seeded
 *    pseudo-random bit sequence, rx echo-probes the same node and
 *    decodes each window's bit from its own observed round-trip
 *    times. The decode accuracy bounds the channel's capacity.
 *
 * None of the adversaries uses any privileged interface: everything
 * goes through the public UdmPort API, so whatever damage they do is
 * damage any tenant could do. The isolation claim under test is that
 * victims keep their transparency invariants (and bounded latency
 * inflation) regardless.
 */

#ifndef FUGU_APPS_ADVERSARY_HH
#define FUGU_APPS_ADVERSARY_HH

#include "apps/common.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::apps
{

/**
 * NI-queue hog: node i floods node (i+1) mod n; the receive handler
 * spends holdCycles *before* disposing, so the message under service
 * keeps its NI slot (or DAMQ descriptor) occupied and the ring backs
 * up behind it.
 */
struct HogAppConfig
{
    unsigned messages = 2000; ///< floods per node
    Cycle gap = 60;           ///< inter-send spacing
    Cycle holdCycles = 900;   ///< handler hold before dispose
    /**
     * Idle computation before the first send, so every gang peer has
     * been scheduled once and registered its handlers before traffic
     * can drain at handler priority. Must cover at least one full
     * gang rotation.
     */
    Cycle warmup = 50000;
    std::uint64_t seed = 1;
};

AppBody makeHogApp(unsigned nnodes, HogAppConfig cfg = {});

/**
 * Overflow-control abuser: node 0 squats in back-to-back atomic
 * sections (holdCycles each, drainGap breathers) while every other
 * node sends it messages mid-squat; arrivals divert into node 0's
 * vbuf, which the squat keeps the drain from emptying.
 */
struct AbuserAppConfig
{
    unsigned messages = 400; ///< sends per peer node, aimed at node 0
    Cycle gap = 150;         ///< peer inter-send spacing
    Cycle holdCycles = 2500; ///< atomic-section length per squat
    Cycle drainGap = 400;    ///< non-atomic breather between squats
    Cycle warmup = 50000;    ///< see HogAppConfig::warmup
    std::uint64_t seed = 1;
};

AppBody makeAbuserApp(unsigned nnodes, AbuserAppConfig cfg = {});

/**
 * Atomicity-timeout squatter: every node runs rounds of "re-arm
 * physical atomicity, hold it past the revocation preset, barrier",
 * so the kernel revokes interrupt-disable over and over while real
 * barrier traffic is in flight. With timerForce set it instead arms
 * the user-visible timer-force UAC bit once and never opens a
 * section, so timeouts fire with no atomic section open at all.
 */
struct SquatterAppConfig
{
    unsigned rounds = 60;    ///< squat + barrier episodes per node
    Cycle holdCycles = 3000; ///< section length (set > the preset)
    bool timerForce = false; ///< arm kUacTimerForce instead
    std::uint64_t seed = 1;
};

AppBody makeSquatterApp(unsigned nnodes, SquatterAppConfig cfg = {});

/**
 * Covert-channel pair. Both jobs key their signalling windows off the
 * shared machine clock (window w covers cycles [w, w+1)*windowCycles)
 * and the shared seeded bit sequence covertBit(seed, w), so they need
 * no communication to stay aligned — exactly as co-conspiring tenants
 * on a real machine would use wall-clock time.
 */
struct CovertAppConfig
{
    unsigned target = 0;  ///< node whose NI queue carries the signal
    unsigned windows = 32;    ///< signalling windows per run
    Cycle windowCycles = 60000; ///< symbol period (>> gang quantum)
    unsigned burst = 24;      ///< tx messages per mark window
    Cycle gap = 120;          ///< tx intra-burst spacing
    Cycle probeGap = 2500;    ///< rx inter-probe spacing
    Cycle handlerCost = 150;  ///< receive-handler occupancy (both)
    Cycle warmup = 50000;     ///< see HogAppConfig::warmup
    std::uint64_t seed = 1;
};

/** Decode outcome, written by the rx prober when its run completes. */
struct CovertResult
{
    unsigned windows = 0; ///< windows with at least one probe
    unsigned correct = 0; ///< windows whose decoded bit matched
    double markMean = 0;  ///< mean probe RTT over mark windows
    double spaceMean = 0; ///< mean probe RTT over space windows

    double
    accuracy() const
    {
        return windows ? static_cast<double>(correct) / windows : 0;
    }
};

AppBody makeCovertTxApp(unsigned nnodes, CovertAppConfig cfg = {});
AppBody makeCovertRxApp(unsigned nnodes, CovertAppConfig cfg = {},
                        CovertResult *result = nullptr);

/** The shared pseudo-random bit both conspirators derive per window. */
inline bool
covertBit(std::uint64_t seed, std::uint64_t window)
{
    std::uint64_t z = (seed ^ window) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return ((z ^ (z >> 31)) & 1) != 0;
}

/// @name Scenario/config-tree registration
/// @{
void bindConfig(sim::Binder &b, HogAppConfig &c);
void bindConfig(sim::Binder &b, AbuserAppConfig &c);
void bindConfig(sim::Binder &b, SquatterAppConfig &c);
void bindConfig(sim::Binder &b, CovertAppConfig &c);
/// @}

} // namespace fugu::apps

#endif // FUGU_APPS_ADVERSARY_HH
