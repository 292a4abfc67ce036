#include "harness/experiment.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "sim/log.hh"
#include "trace/export.hh"

namespace fugu::harness
{

using namespace fugu::apps;
using namespace fugu::glaze;

namespace
{

/** Set on parallelFor's threads (the caller's too) while they work. */
thread_local bool onWorker = false;

/** Fault events a finished machine's injector fired (0 if none). */
double
faultEvents(const Machine &m)
{
    const sim::FaultInjector *f = m.fault();
    if (!f)
        return 0;
    const auto &fs = f->stats;
    return fs.jitteredPackets.value() + fs.inputBursts.value() +
           fs.outputBursts.value() + fs.frameDenies.value() +
           fs.divertStorms.value() + fs.timeoutStorms.value() +
           fs.handlerFaults.value();
}

/**
 * An AppFactory building @p make's app from a copy of @p cfg stamped
 * with each call's seed. The copy is per call: runTrials hands one
 * factory to every worker thread, so the closure must stay read-only.
 */
template <typename Cfg, typename Make>
AppFactory
seeded(const Cfg &cfg, Make make)
{
    return [cfg, make](unsigned n, std::uint64_t seed) {
        Cfg c = cfg;
        c.seed = seed;
        return make(n, c);
    };
}

/**
 * runJob's RunStats for @p job. The verdict fields are always set;
 * the counters only with @p counters, as runJob skips them for an
 * incomplete run. The per-process fields are the job's own; the node
 * counters and latency histograms are machine-wide.
 */
RunStats
collect(const Machine &m, const Job &job, bool counters)
{
    RunStats out;
    out.completed = job.done();
    out.violations = m.checker()->totalViolations();
    out.events = m.eventsProcessed();
    out.faultEvents = faultEvents(m);
    if (!counters)
        return out;
    if (out.completed)
        out.runtime = job.endCycle - job.startCycle;
    double hand_sum = 0;
    std::uint64_t hand_n = 0;
    for (auto *proc : job.procs) {
        out.sent += static_cast<std::uint64_t>(proc->stats.sent.value());
        out.direct += proc->stats.directDelivered.value();
        out.buffered += proc->stats.bufferedDelivered.value();
        out.maxVbufPages =
            std::max(out.maxVbufPages,
                     static_cast<unsigned>(
                         proc->vbuf().stats.peakPages.value()));
        hand_sum += proc->stats.handlerCycles.sum();
        hand_n += proc->stats.handlerCycles.count();
    }
    const double handled = out.direct + out.buffered;
    out.bufferedPct = handled > 0 ? 100.0 * out.buffered / handled : 0;
    out.tBetween = out.sent ? static_cast<double>(out.runtime) *
                                  m.nodeCount() / out.sent
                            : 0;
    out.tHand = hand_n ? hand_sum / hand_n : 0;
    for (const auto &node : m.nodes) {
        out.overflowEvents += node.kernel.stats.overflowEvents.value();
        out.atomicityTimeouts += node.ni.stats.atomicityTimeouts.value();
        out.bufferInserts += node.kernel.stats.bufferInserts.value();
        out.fastLatency.merge(node.ni.stats.fastLatency.data());
        out.bufLatency.merge(node.kernel.stats.bufLatency.data());
    }
    return out;
}

} // namespace

void
writeTrace(const Machine &m, const std::string &path)
{
    if (path.empty())
        return;
    std::string err;
    if (!trace::writeTraceFiles(path, m.tracer()->buffer(), &err))
        warn("trace write failed: ", err);
}

RunStats
runJob(MachineConfig mcfg, const AppFactory &app, bool with_null,
       bool gang, GangConfig gcfg, Cycle max_cycles,
       const std::string &trace_path)
{
    if (!trace_path.empty())
        mcfg.trace.enabled = true;
    Machine m(mcfg);
    Job *job =
        m.addJob("app", app(mcfg.nodes, mcfg.seed));
    if (with_null)
        m.addJob("null", makeNullApp());
    if (gang) {
        m.startGang(gcfg);
    } else {
        fugu_assert(!with_null, "null app needs the gang scheduler");
        m.installJob(job);
    }

    const bool completed = m.runUntilDone(job, max_cycles);
    writeTrace(m, trace_path);
    // The verdict is collected even for incomplete runs: a hung
    // stress run with violations should report them, not hide them.
    return collect(m, *job, completed);
}

TenantRunStats
runTenants(MachineConfig mcfg,
           std::vector<std::pair<std::string, AppBody>> jobs,
           const GangConfig &gcfg, Cycle max_cycles,
           const std::string &trace_path)
{
    fugu_assert(!jobs.empty());
    // Per-tenant latency attribution needs the trace's per-GID
    // extract records; unbounded retention so no inject is lost to
    // ring wrap-around mid-run.
    mcfg.trace.enabled = true;
    mcfg.trace.maxEvents = 0;
    Machine m(mcfg);
    std::vector<Job *> handles;
    handles.reserve(jobs.size());
    for (auto &[name, body] : jobs)
        handles.push_back(m.addJob(name, std::move(body)));
    m.startGang(gcfg);

    TenantRunStats out;
    out.completed = m.runUntilDone(handles[0], max_cycles);
    out.violations = m.checker()->totalViolations();
    out.holBypasses = m.net.stats.headOfLineBypasses.value();

    writeTrace(m, trace_path);
    const trace::Summary sum =
        trace::summarize(m.tracer()->buffer().snapshot());

    for (Job *job : handles) {
        TenantStats t;
        t.run = collect(m, *job, /*counters=*/true);
        for (const auto &g : sum.byGid)
            if (g.gid == job->gid())
                t.trace = g;
        t.iso = m.checker()->isolation(job->gid());
        out.tenants.push_back(std::move(t));
    }
    return out;
}

bool
isAdversary(const std::string &name)
{
    return name == "null" || name == "hog" || name == "abuser" ||
           name == "squatter" || name == "covert";
}

AdversaryStats
runAgainst(const MachineConfig &mcfg, const Workloads &wl,
           const std::string &victim, const std::string &adversary,
           const GangConfig &gcfg, Cycle max_cycles,
           const std::string &trace_path)
{
    fugu_assert(isAdversary(adversary), "unknown adversary '",
                adversary, "'");
    const auto app = [&](const std::string &name) {
        return wl.factory(name)(mcfg.nodes, mcfg.seed);
    };
    AdversaryStats out;
    std::vector<std::pair<std::string, AppBody>> jobs;
    if (adversary == "covert") {
        // runTenants stops when jobs[0] finishes, and the prober only
        // writes its decode when it does, so the prober leads.
        CovertAppConfig cc = wl.covert;
        cc.seed = mcfg.seed;
        jobs = {{"covert_rx", makeCovertRxApp(mcfg.nodes, cc, &out.covert)},
                {"victim", app(victim)},
                {"covert_tx", app("covert_tx")}};
        out.victim = 1;
    } else {
        // The null baseline keeps the same two-job gang, so the
        // victim's machine share is comparable.
        jobs = {{"victim", app(victim)},
                {adversary,
                 adversary == "null" ? makeNullApp() : app(adversary)}};
    }
    out.run = runTenants(mcfg, std::move(jobs), gcfg, max_cycles,
                         trace_path);
    return out;
}

unsigned
workerCount()
{
    if (const char *env = std::getenv("FUGU_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    const unsigned nthreads =
        static_cast<unsigned>(std::min<std::size_t>(workerCount(), n));
    // A parallelFor issued from one of our own threads runs inline,
    // so nesting never multiplies the thread count.
    if (onWorker || nthreads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Spawn, run, join: the calling thread takes indices too, and the
    // jthreads join even if fn throws on the calling thread.
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        onWorker = true;
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            fn(i);
        onWorker = false;
    };
    std::vector<std::jthread> threads;
    threads.reserve(nthreads - 1);
    for (unsigned t = 1; t < nthreads; ++t)
        threads.emplace_back(work);
    work();
}

namespace
{

/**
 * @p trials runs of run(t, cfg, tp) differing only in cfg.seed, on
 * parallelFor, returned in seed order. Only the first trial is
 * traced: one machine, one recorder, so the file's bytes do not
 * depend on trial interleaving.
 */
std::vector<RunStats>
runSeeded(const MachineConfig &mcfg, unsigned trials,
          const std::string &trace_path,
          const std::function<RunStats(unsigned t, const MachineConfig &cfg,
                                       const std::string &tp)> &run)
{
    fugu_assert(trials >= 1);
    std::vector<RunStats> out(trials);
    parallelFor(trials, [&](std::size_t i) {
        const auto t = static_cast<unsigned>(i);
        MachineConfig cfg = mcfg;
        cfg.seed = mcfg.seed + 1000003ull * t;
        out[i] = run(t, cfg, t == 0 ? trace_path : std::string());
    });
    return out;
}

/**
 * Average @p results up to the first incomplete one, accumulating in
 * seed order so the averages are bit-identical to a serial run
 * (including the partial sums a failed run leaves).
 */
RunStats
average(const std::vector<RunStats> &results)
{
    const auto trials = static_cast<unsigned>(results.size());
    RunStats acc;
    acc.completed = true;
    for (const RunStats &r : results) {
        acc.violations += r.violations;
        acc.faultEvents += r.faultEvents;
        if (!r.completed) {
            acc.completed = false;
            return acc;
        }
        acc.runtime += r.runtime;
        acc.events += r.events;
        acc.sent += r.sent;
        acc.direct += r.direct;
        acc.buffered += r.buffered;
        acc.bufferedPct += r.bufferedPct;
        acc.tBetween += r.tBetween;
        acc.tHand += r.tHand;
        acc.maxVbufPages = std::max(acc.maxVbufPages, r.maxVbufPages);
        acc.overflowEvents += r.overflowEvents;
        acc.atomicityTimeouts += r.atomicityTimeouts;
        acc.bufferInserts += r.bufferInserts;
        // Histograms merge, not average: percentiles then cover every
        // sample of every trial instead of only the last one.
        acc.fastLatency.merge(r.fastLatency);
        acc.bufLatency.merge(r.bufLatency);
    }
    acc.runtime /= trials;
    acc.events /= trials;
    acc.sent /= trials;
    acc.direct /= trials;
    acc.buffered /= trials;
    acc.bufferedPct /= trials;
    acc.tBetween /= trials;
    acc.tHand /= trials;
    acc.overflowEvents /= trials;
    acc.atomicityTimeouts /= trials;
    acc.bufferInserts /= trials;
    return acc;
}

} // namespace

RunStats
runTrials(const MachineConfig &mcfg, const AppFactory &app,
          bool with_null, bool gang, const GangConfig &gcfg,
          unsigned trials, Cycle max_cycles,
          const std::string &trace_path)
{
    return average(runSeeded(
        mcfg, trials, trace_path,
        [&](unsigned, const MachineConfig &cfg, const std::string &tp) {
            return runJob(cfg, app, with_null, gang, gcfg, max_cycles,
                          tp);
        }));
}

ServeStats
runServing(const MachineConfig &mcfg, const Workloads &wl,
           const std::string &name, bool with_null, bool gang,
           const GangConfig &gcfg, unsigned trials, Cycle max_cycles,
           const std::string &trace_path)
{
    // One slot vector per trial: trials run concurrently, and each
    // machine's nodes write only their own.
    std::vector<std::shared_ptr<std::vector<serve::ServeResult>>> slots(
        trials);
    const std::vector<RunStats> results = runSeeded(
        mcfg, trials, trace_path,
        [&](unsigned t, const MachineConfig &cfg, const std::string &tp) {
            slots[t] = std::make_shared<std::vector<serve::ServeResult>>(
                cfg.nodes);
            return runJob(cfg, wl.serving(name, slots[t]), with_null,
                          gang, gcfg, max_cycles, tp);
        });

    ServeStats out;
    out.run = average(results);
    for (unsigned t = 0; t < trials && results[t].completed; ++t)
        out.requests.merge(serve::mergeSlots(*slots[t]));
    return out;
}

Workloads::Workloads()
{
    // Scaled-down defaults: every bench finishes in seconds.
    barnes.bodies = 256;
    water.molecules = 128;
    lu.n = 128;
    lu.blockSize = 16;
    barrier.barriers = 1500;
    enumerate.side = 5;
    enumerate.maxStatesPerNode = 0;
}

void
Workloads::bind(sim::Binder &b)
{
    {
        auto s = b.push("workloads");
        b.item("paper_scale", paperScale,
               "use the paper's data-set sizes (Table 6) for every "
               "size the scenario does not set explicitly");
    }
    {
        auto s = b.push("apps");
        auto app = [&b](const char *name, auto &cfg) {
            auto s2 = b.push(name);
            apps::bindConfig(b, cfg);
        };
        app("barnes", barnes);
        app("water", water);
        app("lu", lu);
        app("barrier", barrier);
        app("enum", enumerate);
        app("synth", synth);
        app("hog", hog);
        app("abuser", abuser);
        app("squatter", squatter);
        app("covert", covert);
    }
    {
        auto s = b.push("serve");
        serve::bindConfig(b, serve);
    }
    auto s = b.push("arrival");
    sim::bindConfig(b, arrival);
}

void
Workloads::resolvePaperScale(const sim::Config &cfg)
{
    if (!paperScale)
        return;
    auto scale = [&cfg](const char *key, auto &field, auto paper) {
        if (!cfg.explicitlySet(key))
            field = paper;
    };
    scale("apps.barnes.bodies", barnes.bodies, 2048u);
    scale("apps.water.molecules", water.molecules, 512u);
    scale("apps.lu.n", lu.n, 250u);
    scale("apps.lu.block_size", lu.blockSize, 25u);
    scale("apps.barrier.barriers", barrier.barriers, 10000u);
    scale("apps.enum.side", enumerate.side, 6u);
    // The full 6-a-side puzzle is enormous; the paper's run is
    // bounded too (610k messages). Cap per-node expansion so the
    // workload stays fine-grain but finite.
    scale("apps.enum.max_states_per_node",
          enumerate.maxStatesPerNode, std::uint64_t{80000});
}

const std::vector<std::string> &
Workloads::names()
{
    static const std::vector<std::string> kNames{
        "barnes", "water", "lu", "barrier", "enum"};
    return kNames;
}

AppFactory
Workloads::find(const std::string &name) const
{
    if (name == "barnes")
        return seeded(barnes, makeBarnesApp);
    if (name == "water")
        return seeded(water, makeWaterApp);
    if (name == "lu")
        return seeded(lu, [](unsigned n, const LuAppConfig &c) {
            return makeLuApp(n, c);
        });
    if (name == "barrier")
        return seeded(barrier, makeBarrierApp);
    if (name == "enum")
        return seeded(enumerate, [](unsigned n, const EnumAppConfig &c) {
            return makeEnumApp(n, c);
        });
    if (name == "synth")
        return seeded(synth, makeSynthApp);
    if (name == "hog")
        return seeded(hog, makeHogApp);
    if (name == "abuser")
        return seeded(abuser, makeAbuserApp);
    if (name == "squatter")
        return seeded(squatter, makeSquatterApp);
    if (name == "covert_tx")
        return seeded(covert, makeCovertTxApp);
    if (name == "covert_rx")
        return seeded(covert, [](unsigned n, const CovertAppConfig &c) {
            return makeCovertRxApp(n, c);
        });
    if (serves(name))
        return serving(name, nullptr);
    return {};
}

AppFactory
Workloads::factory(const std::string &name) const
{
    AppFactory app = find(name);
    if (!app)
        fugu_fatal("unknown workload '", name, "'");
    return app;
}

AppFactory
Workloads::serving(
    const std::string &name,
    std::shared_ptr<std::vector<serve::ServeResult>> slots) const
{
    serve::ServeConfig sc = serve;
    sc.app = name;
    return [sc, ac = arrival, slots](unsigned n, std::uint64_t seed) {
        serve::ServeConfig s = sc;
        s.seed = seed;
        sim::ArrivalConfig a = ac;
        a.seed = seed;
        return serve::makeServingApp(
            n, s, a,
            slots ? slots
                  : std::make_shared<std::vector<serve::ServeResult>>(n));
    };
}

TablePrinter::TablePrinter(std::vector<std::string> headers,
                           std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths))
{
    fugu_assert(headers_.size() == widths_.size());
}

void
TablePrinter::printHeader() const
{
    printRow(headers_);
    std::string rule;
    for (int w : widths_)
        rule += std::string(static_cast<std::size_t>(w), '-') + "  ";
    std::cout << rule << "\n";
}

void
TablePrinter::printRow(const std::vector<std::string> &cells) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string c = cells[i];
        const int w = i < widths_.size() ? widths_[i] : 12;
        if (static_cast<int>(c.size()) < w)
            c += std::string(w - c.size(), ' ');
        os << c << "  ";
    }
    std::cout << os.str() << "\n";
}

std::string
TablePrinter::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace fugu::harness
