/**
 * @file
 * The open-loop serving tier: a sharded key-value store on CRL
 * regions and an RPC request/response application over UDM active
 * messages, both driven by sim::ArrivalProcess load generators.
 *
 * Unlike the closed-loop SPLASH-style workloads, every node here is a
 * front end for an open-loop client population: requests are injected
 * on the arrival process's schedule whether or not earlier requests
 * have completed, so offered load — not synchronization structure —
 * determines how hard the fast/buffered delivery crossover is pushed.
 * Each request is timestamped at generation and at reply, and its
 * latency is attributed to the delivery case that served the request
 * at the server (captured from UdmPort::buffered() in the request
 * handler), yielding the paper's central split: fast-case vs
 * buffered-case service under load.
 *
 * The "kv" application shards a key space across nnodes *
 * shards_per_node CRL regions; each key's requests are routed to the
 * shard's home node, where a dedicated server thread executes the
 * get/put inside a CRL read/write section (handlers never touch CRL —
 * blocking sections are illegal in upcall contexts, so the request
 * handler only enqueues work). The "rpc" application is a pure
 * messaging echo tier: the request handler charges a service cost and
 * replies directly from the upcall.
 */

#ifndef FUGU_SERVE_SERVE_HH
#define FUGU_SERVE_SERVE_HH

#include <memory>
#include <vector>

#include "glaze/process.hh"
#include "sim/arrival.hh"
#include "sim/stats.hh"

namespace fugu::sim
{
class Binder;
}

namespace fugu::serve
{

/** UDM handler ids used by the serving tier (below CRL's 64 base). */
inline constexpr Word kServeReq = 16;
inline constexpr Word kServeReply = 17;

/** Knobs of the serving tier, bound under serve.*. */
struct ServeConfig
{
    /** Application flavour: kv | rpc. */
    std::string app = "kv";

    /** Measured requests per node (after warmup). */
    unsigned requests = 2000;

    /** Unmeasured warmup requests per node. */
    unsigned warmup = 200;

    /** kv: fraction of requests that are puts (rest are gets). */
    double putFrac = 0.10;

    /** kv: CRL shard regions per node. */
    unsigned shardsPerNode = 4;

    /** kv: words per shard region. */
    unsigned regionWords = 64;

    /** Modelled service cost per request, cycles. */
    std::uint64_t serverCost = 300;

    /** SLO threshold on request latency, cycles. */
    std::uint64_t sloCycles = 25000;

    /** Per-trial seed; set by the harness, not bound. */
    std::uint64_t seed = 1;
};

/** Register the serve.* knobs (app and seed are set by the harness). */
void bindConfig(sim::Binder &b, ServeConfig &c);

/**
 * Per-node serving outcome; plain values so slots can be merged
 * across nodes and trials. All counters cover only the measured
 * window (request seq >= warmup).
 */
struct ServeResult
{
    std::uint64_t offeredArrivals = 0; ///< measured requests generated
    std::uint64_t completed = 0;       ///< replies received
    std::uint64_t sloMet = 0;          ///< completed within sloCycles
    std::uint64_t servedBuffered = 0;  ///< requests served buffered
    std::uint64_t puts = 0;            ///< kv: measured put requests
    std::uint64_t localHits = 0;       ///< kv: client was the owner

    Cycle firstArrival = kMaxCycle; ///< first measured arrival
    Cycle lastReply = 0;            ///< last measured completion

    /** Request latency, split by the serving delivery case. */
    HistogramData latFast;
    HistogramData latBuffered;

    /** Fold another node's (or trial's) outcome into this one. */
    void merge(const ServeResult &o);

    /** Measured wall-clock span, cycles (0 before any completion). */
    Cycle
    span() const
    {
        return lastReply > firstArrival ? lastReply - firstArrival : 0;
    }

    bool operator==(const ServeResult &o) const = default;
};

/** Merge all per-node slots into one machine-wide outcome. */
ServeResult mergeSlots(const std::vector<ServeResult> &slots);

/**
 * Build the serving application. Each node writes its outcome into
 * (*slots)[node]; read the slots only after the machine run completes
 * (the caller owns the vector, which must have nnodes entries).
 */
glaze::AppBody makeServingApp(unsigned nnodes, ServeConfig cfg,
                              sim::ArrivalConfig arrival,
                              std::shared_ptr<std::vector<ServeResult>>
                                  slots);

} // namespace fugu::serve

#endif // FUGU_SERVE_SERVE_HH
