/**
 * @file
 * Experiment harness shared by the bench/ binaries: builds machines,
 * runs jobs standalone or multiprogrammed against a null application
 * with a skewed gang schedule, runs trials, and aggregates the
 * statistics the paper's tables and figures report.
 */

#ifndef FUGU_HARNESS_EXPERIMENT_HH
#define FUGU_HARNESS_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/adversary.hh"
#include "apps/workloads.hh"
#include "glaze/machine.hh"
#include "serve/serve.hh"
#include "trace/export.hh"
#include "sim/arrival.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace fugu::harness
{

/** Builds the application body for a machine of @p nnodes nodes. */
using AppFactory =
    std::function<glaze::AppBody(unsigned nnodes, std::uint64_t seed)>;

/** Aggregate statistics of one run (the measured job only). */
struct RunStats
{
    Cycle runtime = 0;          ///< job start to completion
    std::uint64_t sent = 0;     ///< messages injected by the job
    double direct = 0;          ///< handled via the fast path
    double buffered = 0;        ///< handled via the buffered path
    double bufferedPct = 0;     ///< 100*buffered/(direct+buffered)
    double tBetween = 0;        ///< cycles*nodes/messages (Table 6)
    double tHand = 0;           ///< mean handler occupancy (Table 6)
    unsigned maxVbufPages = 0;  ///< peak buffer pages on any node
    double overflowEvents = 0;  ///< overflow-control activations
    double atomicityTimeouts = 0;
    double bufferInserts = 0;   ///< machine-wide buffered insertions
    double violations = 0;      ///< invariant-checker total (summed,
                                ///< not averaged, across trials)
    double faultEvents = 0;     ///< injected fault events (summed)
    std::uint64_t events = 0;   ///< simulator events processed
    bool completed = false;

    /**
     * Machine-wide message-delivery latency (inject to extract),
     * split by path. Merged — not averaged — across nodes and
     * trials, so percentiles cover every sample of every trial.
     */
    HistogramData fastLatency;
    HistogramData bufLatency;

    /**
     * Bitwise equality of everything the simulation semantically
     * produced (replay verification). `events` is deliberately
     * excluded: it counts engine work — e.g. the fault subsystem's
     * bookkeeping ticks — which may differ between configs whose
     * simulated timelines are identical. Replay tests that also pin
     * the engine compare `events` explicitly.
     */
    bool
    operator==(const RunStats &o) const
    {
        return runtime == o.runtime && sent == o.sent &&
               direct == o.direct && buffered == o.buffered &&
               bufferedPct == o.bufferedPct &&
               tBetween == o.tBetween && tHand == o.tHand &&
               maxVbufPages == o.maxVbufPages &&
               overflowEvents == o.overflowEvents &&
               atomicityTimeouts == o.atomicityTimeouts &&
               bufferInserts == o.bufferInserts &&
               violations == o.violations &&
               faultEvents == o.faultEvents &&
               completed == o.completed &&
               fastLatency == o.fastLatency &&
               bufLatency == o.bufLatency;
    }
};

/**
 * One run of @p app, optionally gang-scheduled against "null". When
 * @p trace_path is non-empty, message-lifecycle tracing is enabled
 * and the trace is written there (binary) plus "<path>.json"
 * (Chrome trace-event format, Perfetto-loadable).
 */
RunStats runJob(glaze::MachineConfig mcfg, const AppFactory &app,
                bool with_null, bool gang, glaze::GangConfig gcfg,
                Cycle max_cycles = 100000000000ull,
                const std::string &trace_path = "");

/**
 * Average of @p trials runs differing only in seed. Trials run in
 * parallel via parallelFor (each builds its own machine and event
 * queue), but results are accumulated in seed order, so the returned
 * stats are bit-identical to a serial run. A non-empty @p trace_path
 * traces the first trial (deterministically, whatever FUGU_THREADS).
 */
RunStats runTrials(const glaze::MachineConfig &mcfg,
                   const AppFactory &app, bool with_null, bool gang,
                   const glaze::GangConfig &gcfg, unsigned trials,
                   Cycle max_cycles = 100000000000ull,
                   const std::string &trace_path = "");

/**
 * One tenant of a runTenants run. Latency percentiles come from the
 * merged trace's per-GID matched inject->extract pairs, so one
 * tenant's numbers are never polluted by its neighbours' traffic the
 * way machine-wide histograms are.
 */
struct TenantStats
{
    /**
     * The tenant's job collected as runJob collects it, whether or
     * not the job finished (runtime stays 0 if it did not). Its
     * violations, fault events, node counters and latency histograms
     * are machine-wide.
     */
    RunStats run;
    trace::Summary::GidStats trace;            ///< per-path latency
    glaze::InvariantChecker::GidIsolation iso; ///< checker watermarks
};

/** Outcome of one adversarial pairing (runTenants). */
struct TenantRunStats
{
    bool completed = false; ///< jobs[0] finished
    double violations = 0;  ///< invariant-checker total
    double holBypasses = 0; ///< DAMQ head-of-line bypasses taken
    std::vector<TenantStats> tenants; ///< in job order
};

/**
 * Gang-schedule several tenants on one machine and run until jobs[0]
 * completes; the others may still be mid-flight. Tracing is forced
 * on: per-tenant latency is attributed through the merged trace's
 * per-GID breakdown. A non-empty @p trace_path also writes that
 * trace, as runJob does.
 */
TenantRunStats
runTenants(glaze::MachineConfig mcfg,
           std::vector<std::pair<std::string, glaze::AppBody>> jobs,
           const glaze::GangConfig &gcfg,
           Cycle max_cycles = 100000000000ull,
           const std::string &trace_path = "");

/**
 * Worker threads used by parallelFor: the FUGU_THREADS environment
 * variable if set, else the hardware concurrency. FUGU_THREADS=1
 * forces fully serial execution.
 */
unsigned workerCount();

/**
 * Invoke @p fn(i) for every i in [0, n) on up to workerCount()
 * threads, the calling thread among them; returns once every call
 * has. Calls for distinct indices may run concurrently, so @p fn must
 * only touch per-index state (e.g. slot i of a pre-sized result
 * vector). Nested calls run serially on the calling thread, keeping
 * the total thread count bounded; FUGU_THREADS=1 forces fully serial
 * execution.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * The named workload set used by the Table 6 / Figure 7-8
 * experiments, plus the Section 5.2 synthetic workload, the
 * adversaries and the serving tier ("kv", "rpc"). Default sizes are
 * scaled down so every bench finishes in seconds; set
 * workloads.paper_scale for the paper's parameters (Table 6). Every
 * app config is a public member bound on the scenario tree, under
 * apps.<name>.* or, for the serving tier, serve.* and arrival.*, so
 * workload parameters are set from scenario files, --set and sweep
 * axes like every other knob.
 */
struct Workloads
{
    Workloads(); ///< applies the scaled-down default sizes

    bool paperScale = false;

    apps::BarnesAppConfig barnes;
    apps::WaterAppConfig water;
    apps::LuAppConfig lu;
    apps::BarrierAppConfig barrier;
    apps::EnumAppConfig enumerate;
    apps::SynthAppConfig synth;

    /**
     * Adversarial-neighbor tenants (runAgainst, stress.cfg).
     * Nameable through factory() — "hog", "abuser", "squatter",
     * "covert_tx", "covert_rx" — but deliberately absent from
     * names(): the Table 6 sweeps iterate that list and adversaries
     * are not paper workloads.
     */
    apps::HogAppConfig hog;
    apps::AbuserAppConfig abuser;
    apps::SquatterAppConfig squatter;
    apps::CovertAppConfig covert;

    /**
     * The serving tier and its clients. The workload name (kv, rpc)
     * sets ServeConfig::app; seeds come from each run's machine seed.
     */
    serve::ServeConfig serve;
    sim::ArrivalConfig arrival;

    /** Register workloads.paper_scale, apps.*, serve.* and arrival.*. */
    void bind(sim::Binder &b);

    /**
     * With paperScale set, switch every data-set size the user did
     * not explicitly set to the paper's value (Table 6). Called by
     * benchMain after the tree is applied, before any dump, so the
     * dumped config replays identically.
     */
    void resolvePaperScale(const sim::Config &cfg);

    /** Names in the paper's order. */
    static const std::vector<std::string> &names();

    /** The named workload's factory; empty for an unknown name. */
    AppFactory find(const std::string &name) const;

    /** find(), but an unknown name is fatal. */
    AppFactory factory(const std::string &name) const;

    /** Whether @p name is a serving workload (kv, rpc). */
    static bool
    serves(const std::string &name)
    {
        return name == "kv" || name == "rpc";
    }

    /**
     * Serving workload @p name, its nodes writing their outcomes into
     * @p slots (one entry per node), or into a vector of their own
     * when @p slots is null, as find() builds them.
     */
    AppFactory
    serving(const std::string &name,
            std::shared_ptr<std::vector<serve::ServeResult>> slots) const;
};

/** A serving cell's outcome (runServing). */
struct ServeStats
{
    RunStats run;                ///< runTrials' averages
    serve::ServeResult requests; ///< the averaged trials', merged
};

/**
 * runTrials of serving workload @p name of @p wl, plus the per-request
 * outcome of every trial that runTrials averages, merged in seed
 * order. Seeds, the first-trial trace and the averages are
 * runTrials' own.
 */
ServeStats runServing(const glaze::MachineConfig &mcfg,
                      const Workloads &wl, const std::string &name,
                      bool with_null, bool gang,
                      const glaze::GangConfig &gcfg, unsigned trials,
                      Cycle max_cycles = 100000000000ull,
                      const std::string &trace_path = "");

/** Whether @p name is an adversary runAgainst pits a victim against. */
bool isAdversary(const std::string &name);

/** A victim's run against one adversary (runAgainst). */
struct AdversaryStats
{
    TenantRunStats run;        ///< every tenant, in job order
    std::size_t victim = 0;    ///< the victim's index in run.tenants
    apps::CovertResult covert; ///< the prober's decode ("covert" only)
};

/**
 * runTenants of workload @p victim of @p wl against @p adversary,
 * both seeded with mcfg.seed. "null" is the adversary-free baseline:
 * the null app in the adversary's slot. "hog", "abuser" and
 * "squatter" run second, after the victim. "covert" runs covert_rx,
 * then the victim, then covert_tx: the run ends when the prober has
 * decoded every window, and the victim may still be mid-flight.
 */
AdversaryStats runAgainst(const glaze::MachineConfig &mcfg,
                          const Workloads &wl, const std::string &victim,
                          const std::string &adversary,
                          const glaze::GangConfig &gcfg,
                          Cycle max_cycles = 100000000000ull,
                          const std::string &trace_path = "");

/** Simple fixed-width table printer for paper-style output. */
class TablePrinter
{
  public:
    TablePrinter(std::vector<std::string> headers,
                 std::vector<int> widths);

    void printHeader() const;
    void printRow(const std::vector<std::string> &cells) const;

    static std::string num(double v, int precision = 0);

  private:
    std::vector<std::string> headers_;
    std::vector<int> widths_;
};

} // namespace fugu::harness

#endif // FUGU_HARNESS_EXPERIMENT_HH
