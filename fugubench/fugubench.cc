/**
 * @file
 * fugubench: runs one reference workload through the simulator's public
 * API and prints what it measured as JSON lines on stdout.
 *
 * Every layer is measured from outside: the benchmark times its own calls
 * into the layer (Machine construction and job set-up, runUntilDone,
 * the stats readout, teardown, trace export) and reads the layers'
 * public StatGroup counters after the run. No simulator code changes.
 *
 * Workloads (fixed simulated work per iteration, seeded by --seed):
 *
 *  - paper_mix     : the Table 6 apps (barnes, water, lu, barrier,
 *                    enum), each gang-scheduled against null on 8
 *                    nodes at a fixed skew, checker on; the five cells
 *                    run on the harness worker pool (parallelFor).
 *  - synth_mesh512 : the Section 5.2 synthetic request workload on a
 *                    512-node mesh, one serial machine, checker off.
 *  - serving_kv    : open-loop sharded KV on CRL, 8 nodes,
 *                    multiprogrammed vs null, poisson below the knee.
 *
 * Modes:
 *
 *  - e2e     : untraced iterations until --seconds is spent; one
 *              "iter" line per iteration, one "counts" line, and an
 *              "end" line with the process's peak resident set.
 *  - layers  : the layer probes, then alternating traced/untraced
 *              iteration pairs; traced iterations record spans around
 *              each call into a layer and export a fugutrace file. The
 *              spans (kept in memory) and the trace are written to
 *              --out when the run ends.
 *  - runjob  : one iteration per cell compared field by field against
 *              harness::runJob (self-test: the benchmark's own collection
 *              must match the harness's).
 *
 * Each iteration reports a fingerprint per cell: a hash of everything
 * the simulation produced (RunStats with both latency histograms, the
 * ServeResult, and the modelled per-layer counts). Engine-work counts
 * (events fired) are reported but not fingerprinted, so an engine
 * optimisation that fuses events does not read as a wrong answer.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "net/network.hh"
#include "serve/serve.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "trace/export.hh"

using namespace fugu;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Shortest round-trippable text for a double. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** One flat JSON object, built key by key, printed as one line. */
class JsonLine
{
  public:
    explicit JsonLine(const char *type) { str("type", type); }

    JsonLine &
    str(std::string_view k, std::string_view v)
    {
        return raw(k, "\"" + std::string(v) + "\"");
    }

    JsonLine &num(std::string_view k, double v) { return raw(k, ::num(v)); }

    JsonLine &
    raw(std::string_view k, const std::string &v)
    {
        os_ << (first_ ? "{" : ", ") << "\"" << k << "\": " << v;
        first_ = false;
        return *this;
    }

    void
    print()
    {
        std::printf("%s}\n", os_.str().c_str());
        std::fflush(stdout);
    }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

/// @name Spans
/// @{

/**
 * Host-time spans recorded around the benchmark's calls into each layer.
 * Kept in memory and written once, when the run ends. Cells of
 * paper_mix record from pool workers, hence the mutex.
 */
class SpanLog
{
  public:
    int
    begin(const std::string &name, const std::string &layer,
          const std::string &cell, int parent)
    {
        std::lock_guard<std::mutex> g(mu_);
        spans_.push_back(
            {name, layer, cell, parent, secondsSince(origin_), -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        std::lock_guard<std::mutex> g(mu_);
        spans_[id].end = secondsSince(origin_);
    }

    /** Chrome trace-event JSON ("X" events), Perfetto-loadable. */
    void
    writeJson(std::ostream &os) const
    {
        std::lock_guard<std::mutex> g(mu_);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
               << "\", \"cat\": \"" << s.layer
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
               << ", \"ts\": " << ::num(s.start * 1e6)
               << ", \"dur\": " << ::num((s.end - s.start) * 1e6)
               << ", \"args\": {\"id\": " << i << ", \"parent\": "
               << s.parent << ", \"cell\": \"" << s.cell << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name, layer, cell;
        int parent;
        double start, end;
    };

    mutable std::mutex mu_;
    const Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Times one phase; records it as a span when a log is attached. */
class Phase
{
  public:
    Phase(SpanLog *log, const std::string &name, const std::string &layer,
          const std::string &cell, int parent)
        : log_(log), id_(log ? log->begin(name, layer, cell, parent) : -1)
    {}

    int id() const { return id_; }

    double
    stop()
    {
        const double s = secondsSince(t0_);
        if (log_)
            log_->end(id_);
        return s;
    }

  private:
    SpanLog *log_;
    int id_;
    Clock::time_point t0_ = Clock::now();
};

/// @}
/// @name Outputs
/// @{

/** FNV-1a over named values: the simulated-output fingerprint. */
class Fingerprint
{
  public:
    void
    add(std::string_view name, double v)
    {
        bytes(name.data(), name.size());
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }

    void
    add(const std::string &name, const HistogramData &d)
    {
        add(name + ".count", static_cast<double>(d.count));
        add(name + ".sum", d.sum);
        add(name + ".min", d.min);
        add(name + ".max", d.max);
        for (unsigned b = 0; b < HistogramData::kBuckets; ++b)
            if (d.buckets[b])
                add(name + ".b" + std::to_string(b),
                    static_cast<double>(d.buckets[b]));
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= c[i];
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Modelled per-layer counts, by metric name (ordered). */
using Counts = std::map<std::string, double>;

/** What one cell (one machine run) produced and cost. */
struct CellOut
{
    std::string name;
    harness::RunStats rs;
    serve::ServeResult sr;
    Counts counts;
    std::uint64_t events = 0; ///< engine work, not fingerprinted
    std::string fp;
    double buildS = 0, runS = 0, collectS = 0, teardownS = 0;
    double exportS = 0, summarizeS = 0;
    std::uint64_t traceEvents = 0;
    /** Traced cells: the merged trace, until exportTrace writes it. */
    std::unique_ptr<trace::TraceBuffer> trace;
};

/// @}
/// @name Workloads
/// @{

/** One machine run: a measured job, optionally vs null. */
struct Cell
{
    std::string name;
    glaze::MachineConfig mcfg;
    harness::AppFactory app;
    bool gang = false; ///< gang-scheduled against the null app
    glaze::GangConfig gcfg;
    /** serving_kv only: where the serving app writes its outcome. */
    std::shared_ptr<std::vector<serve::ServeResult>> slots;
};

constexpr Cycle kMaxCycles = 100000000000ull; // harness.max_cycles

/**
 * Iterations (e2e) or traced/untraced pairs (layers) a run makes even
 * when --seconds is spent: two pairs give one of each order.
 */
constexpr unsigned kMinIters = 2;

const std::vector<std::string> kWorkloads{"paper_mix", "synth_mesh512",
                                          "serving_kv"};

/**
 * The cells of one iteration of @p workload. Built fresh per
 * iteration: serving cells own a result-slot vector per run.
 */
std::vector<Cell>
makeCells(const std::string &workload, std::uint64_t seed, bool traced)
{
    std::vector<Cell> cells;
    glaze::MachineConfig base;
    base.seed = seed;
    base.trace.enabled = traced;

    if (workload == "paper_mix") {
        // The Fig 7/8 operating point at one fixed skew. Sizes are
        // set so no one cell dominates, and cells are issued longest
        // first: five cells on four workers then finish together
        // whichever worker picks up the last one.
        harness::Workloads wl;
        wl.barrier.barriers = 1000;
        wl.barnes.bodies = 512;
        wl.water.molecules = 256;
        for (const char *app : {"barrier", "lu", "barnes", "water", "enum"}) {
            Cell c;
            c.name = app;
            c.mcfg = base;
            c.mcfg.nodes = 8;
            c.app = wl.factory(app);
            c.gang = true;
            c.gcfg.quantum = 100000;
            c.gcfg.skew = 0.2;
            cells.push_back(std::move(c));
        }
    } else if (workload == "synth_mesh512") {
        // bench_machine_scale's shape: engine and fabric, not checker.
        // 2 x 40 requests per node open ~70k channels, past the 65,536
        // home slots of the channel table: about 4x the host time of
        // 2 x 35, yet short enough (~1 s) for many samples per run.
        harness::Workloads wl;
        wl.synth.groups = 2;
        wl.synth.n = 40;
        Cell c;
        c.name = "synth";
        c.mcfg = base;
        c.mcfg.nodes = 512;
        c.mcfg.parShards = 1;
        c.mcfg.check.enabled = false;
        c.app = wl.factory("synth");
        cells.push_back(std::move(c));
    } else if (workload == "serving_kv") {
        // scenarios/serving.cfg's shape, poisson below the knee.
        serve::ServeConfig sc;
        sc.app = "kv";
        sc.requests = 2000;
        sc.warmup = 200;
        sc.putFrac = 0.10;
        sim::ArrivalConfig ac;
        ac.mix = "poisson";
        ac.ratePerKcycle = 0.5;
        Cell c;
        c.name = "kv";
        c.mcfg = base;
        c.mcfg.nodes = 8;
        c.gang = true;
        c.gcfg.quantum = 20000;
        c.gcfg.skew = 0.25;
        c.slots = std::make_shared<std::vector<serve::ServeResult>>(
            c.mcfg.nodes);
        c.app = [sc, ac, slots = c.slots](unsigned n, std::uint64_t s) {
            serve::ServeConfig s2 = sc;
            s2.seed = s;
            sim::ArrivalConfig a2 = ac;
            a2.seed = s;
            return serve::makeServingApp(n, s2, a2, slots);
        };
        cells.push_back(std::move(c));
    } else {
        std::fprintf(stderr, "fugubench: unknown workload '%s'\n",
                     workload.c_str());
        std::exit(2);
    }
    return cells;
}

/// @}
/// @name Collection (read-only, after the run)
/// @{

/** harness::runJob's RunStats, gathered the same way. */
harness::RunStats
collectRunStats(glaze::Machine &m, glaze::Job *job, bool completed)
{
    harness::RunStats out;
    out.completed = completed;
    out.violations = m.checker()->totalViolations();
    out.events = m.eventsProcessed();
    for (const auto &f : m.allFaults()) {
        const auto &fs = f->stats;
        out.faultEvents += fs.jitteredPackets.value() +
                           fs.inputBursts.value() +
                           fs.outputBursts.value() +
                           fs.frameDenies.value() +
                           fs.divertStorms.value() +
                           fs.timeoutStorms.value() +
                           fs.handlerFaults.value();
    }
    if (!completed)
        return out;
    out.runtime = m.now() - job->startCycle;
    double hand_sum = 0;
    std::uint64_t hand_n = 0;
    for (auto *proc : job->procs) {
        out.sent += static_cast<std::uint64_t>(proc->stats.sent.value());
        out.direct += proc->stats.directDelivered.value();
        out.buffered += proc->stats.bufferedDelivered.value();
        out.maxVbufPages = std::max(
            out.maxVbufPages,
            static_cast<unsigned>(proc->vbuf().stats.peakPages.value()));
        hand_sum += proc->stats.handlerCycles.sum();
        hand_n += proc->stats.handlerCycles.count();
    }
    const double handled = out.direct + out.buffered;
    out.bufferedPct = handled > 0 ? 100.0 * out.buffered / handled : 0;
    out.tBetween = out.sent ? static_cast<double>(out.runtime) *
                                  m.cfg.nodes / out.sent
                            : 0;
    out.tHand = hand_n ? hand_sum / hand_n : 0;
    for (auto &node : m.nodes) {
        out.overflowEvents += node.kernel.stats.overflowEvents.value();
        out.atomicityTimeouts += node.ni.stats.atomicityTimeouts.value();
        out.bufferInserts += node.kernel.stats.bufferInserts.value();
        out.fastLatency.merge(node.ni.stats.fastLatency.data());
        out.bufLatency.merge(node.kernel.stats.bufLatency.data());
    }
    return out;
}

/**
 * CRL keeps its counters in a child StatGroup of each process
 * ("crl_n<node>_g<gid>"); the instance itself is private to the app,
 * so read them through the group's text dump.
 */
void
addCrlCounts(Counts &c, glaze::Job *job)
{
    static const std::map<std::string, std::string> kNames{
        {"start_ops", "crl.start_ops"}, {"hits", "crl.hits"},
        {"misses", "crl.misses"},       {"invs", "crl.invalidations"},
        {"writebacks", "crl.writebacks"}};
    for (const auto &[stat, metric] : kNames)
        c[metric] += 0;
    for (auto *proc : job->procs) {
        std::ostringstream os;
        os.precision(17);
        proc->stats.group.print(os);
        std::istringstream is(os.str());
        std::string key;
        double value;
        std::string rest;
        while (is >> key >> value && std::getline(is, rest)) {
            if (key.find(".crl_n") == std::string::npos)
                continue;
            const auto it = kNames.find(key.substr(key.rfind('.') + 1));
            if (it != kNames.end())
                c[it->second] += value;
        }
    }
}

/** The modelled per-layer counts of one finished machine. */
Counts
collectCounts(glaze::Machine &m, glaze::Job *job,
              const harness::RunStats &rs, const serve::ServeResult *sr)
{
    Counts c;
    c["sim.cycles"] = static_cast<double>(m.now());
    HistogramData fastLat;
    for (auto &node : m.nodes) {
        const auto &cpu = node.cpu.stats;
        c["exec.user_cycles"] += cpu.userCycles.value();
        c["exec.kernel_cycles"] += cpu.kernelCycles.value();
        c["exec.contexts_spawned"] += cpu.contextsSpawned.value();
        c["exec.preemptions"] += cpu.preemptions.value();
        c["exec.irqs"] += cpu.irqsTaken.value();
        const auto &ni = node.ni.stats;
        c["core.launches"] += ni.launches.value();
        c["core.received"] += ni.received.value();
        c["core.mismatch_irqs"] += ni.mismatchIrqs.value();
        c["core.message_irqs"] += ni.messageIrqs.value();
        c["core.atomicity_timeouts"] += ni.atomicityTimeouts.value();
        fastLat.merge(ni.fastLatency.data());
        const auto &k = node.kernel.stats;
        c["glaze.buffer_inserts"] += k.bufferInserts.value();
        c["glaze.upcalls"] += k.upcalls.value();
        c["glaze.mode_entries"] += k.modeEntries.value();
        c["glaze.page_faults"] += k.pageFaults.value();
        c["glaze.overflow_events"] += k.overflowEvents.value();
        c["glaze.vm_allocations"] += node.frames.stats.allocations.value();
    }
    c["core.fast_latency_p50_cycles"] = fastLat.percentile(50);
    c["core.fast_latency_p99_cycles"] = fastLat.percentile(99);
    c["net.messages"] = m.net.stats.messages.value();
    c["net.words"] = m.net.stats.words.value();
    c["net.hol_blocks"] = m.net.stats.headOfLineBlocks.value();
    c["glaze.direct"] = rs.direct;
    c["glaze.buffered"] = rs.buffered;
    c["glaze.buf_latency_p99_cycles"] = rs.bufLatency.percentile(99);
    c["glaze.vbuf_peak_pages"] = rs.maxVbufPages;
    c["check.deliveries_checked"] =
        m.checker()->stats.checkedDeliveries.value();
    c["check.violations"] = m.checker()->totalViolations();
    addCrlCounts(c, job);
    if (sr) {
        c["serve.completed"] = static_cast<double>(sr->completed);
        c["serve.slo_met"] = static_cast<double>(sr->sloMet);
        c["serve.buffered_reqs"] = static_cast<double>(sr->latBuffered.count);
        c["serve.span_cycles"] = static_cast<double>(sr->span());
        HistogramData all = sr->latFast;
        all.merge(sr->latBuffered);
        c["serve.p99_cycles"] = all.percentile(99);
    }
    return c;
}

std::string
fingerprint(const CellOut &o, bool serving)
{
    Fingerprint f;
    const harness::RunStats &r = o.rs;
    f.add("runtime", static_cast<double>(r.runtime));
    f.add("sent", static_cast<double>(r.sent));
    f.add("direct", r.direct);
    f.add("buffered", r.buffered);
    f.add("bufferedPct", r.bufferedPct);
    f.add("tBetween", r.tBetween);
    f.add("tHand", r.tHand);
    f.add("maxVbufPages", r.maxVbufPages);
    f.add("overflowEvents", r.overflowEvents);
    f.add("atomicityTimeouts", r.atomicityTimeouts);
    f.add("bufferInserts", r.bufferInserts);
    f.add("violations", r.violations);
    f.add("faultEvents", r.faultEvents);
    f.add("completed", r.completed);
    f.add("fastLatency", r.fastLatency);
    f.add("bufLatency", r.bufLatency);
    if (serving) {
        const serve::ServeResult &s = o.sr;
        f.add("offeredArrivals", static_cast<double>(s.offeredArrivals));
        f.add("completed_requests", static_cast<double>(s.completed));
        f.add("sloMet", static_cast<double>(s.sloMet));
        f.add("servedBuffered", static_cast<double>(s.servedBuffered));
        f.add("puts", static_cast<double>(s.puts));
        f.add("localHits", static_cast<double>(s.localHits));
        f.add("firstArrival", static_cast<double>(s.firstArrival));
        f.add("lastReply", static_cast<double>(s.lastReply));
        f.add("latFast", s.latFast);
        f.add("latBuffered", s.latBuffered);
    }
    for (const auto &[name, v] : o.counts)
        f.add(name, v);
    return f.hex();
}

/// @}
/// @name Running
/// @{

/**
 * Build, run, collect and tear down one cell, timing each call and
 * recording spans under @p parent when @p log is set. A traced cell
 * keeps a copy of its merged trace for exportTrace.
 */
CellOut
runCell(Cell &cell, SpanLog *log, int parent)
{
    CellOut o;
    o.name = cell.name;
    Phase whole(log, "cell", "harness", cell.name, parent);

    Phase build(log, "build", "glaze", cell.name, whole.id());
    auto m = std::make_unique<glaze::Machine>(cell.mcfg);
    glaze::Job *job =
        m->addJob("app", cell.app(cell.mcfg.nodes, cell.mcfg.seed));
    if (cell.gang) {
        m->addJob("null", apps::makeNullApp());
        m->startGang(cell.gcfg);
    } else {
        m->installJob(job);
    }
    o.buildS = build.stop();

    Phase run(log, "run", "sim", cell.name, whole.id());
    const bool completed = m->runUntilDone(job, kMaxCycles);
    o.runS = run.stop();

    Phase collect(log, "collect", "stats", cell.name, whole.id());
    o.rs = collectRunStats(*m, job, completed);
    o.events = m->eventsProcessed();
    if (cell.slots)
        o.sr = serve::mergeSlots(*cell.slots);
    o.counts = collectCounts(*m, job, o.rs, cell.slots ? &o.sr : nullptr);
    o.fp = fingerprint(o, cell.slots != nullptr);
    if (cell.mcfg.trace.enabled)
        o.trace = std::make_unique<trace::TraceBuffer>(m->mergedTrace());
    o.collectS = collect.stop();

    Phase teardown(log, "teardown", "glaze", cell.name, whole.id());
    m.reset();
    o.teardownS = teardown.stop();
    whole.stop();
    return o;
}

/**
 * Write a traced cell's fugutrace (binary + Chrome JSON) to
 * @p path and run tracetool's summarize pass over it, timing both.
 */
void
exportTrace(CellOut &o, SpanLog *log, int parent, const std::string &path)
{
    o.traceEvents = o.trace->total();
    Phase exp(log, "export", "trace", o.name, parent);
    std::string err;
    if (!trace::writeTraceFiles(path, *o.trace, &err))
        std::fprintf(stderr, "fugubench: trace write failed: %s\n",
                     err.c_str());
    o.exportS = exp.stop();

    Phase sum(log, "summarize", "trace", o.name, parent);
    (void)trace::summarize(o.trace->snapshot());
    o.summarizeS = sum.stop();
    o.trace.reset();
}

struct IterOut
{
    bool traced = false;
    double wallS = 0;
    std::vector<CellOut> cells;
};

/**
 * One iteration: every cell of the workload, on the worker pool.
 * wall_s runs from set-up to the last teardown; a traced iteration's
 * export comes after it and is reported on its own.
 */
IterOut
runIteration(const std::string &workload, std::uint64_t seed, bool traced,
             SpanLog *log, const std::string &out_dir)
{
    IterOut it;
    it.traced = traced;
    const auto t0 = Clock::now();
    std::vector<Cell> cells = makeCells(workload, seed, traced);
    Phase iter(log, "iteration", "bench", workload, -1);
    it.cells.resize(cells.size());
    harness::parallelFor(cells.size(), [&](std::size_t i) {
        it.cells[i] = runCell(cells[i], log, iter.id());
    });
    it.wallS = secondsSince(t0);
    for (CellOut &c : it.cells)
        if (c.trace)
            exportTrace(c, log, iter.id(), out_dir + "/" + c.name + ".fgtr");
    iter.stop();
    return it;
}

void
printIter(const IterOut &it)
{
    double build = 0, run = 0, collect = 0, teardown = 0, exp = 0,
           sum = 0, traceEvents = 0, violations = 0;
    std::string fps = "{", cellS = "[", completed = "{";
    for (std::size_t i = 0; i < it.cells.size(); ++i) {
        const CellOut &c = it.cells[i];
        build += c.buildS;
        run += c.runS;
        collect += c.collectS;
        teardown += c.teardownS;
        exp += c.exportS;
        sum += c.summarizeS;
        traceEvents += static_cast<double>(c.traceEvents);
        violations += c.rs.violations;
        const char *sep = i ? ", " : "";
        fps += sep + ("\"" + c.name + "\": \"" + c.fp + "\"");
        completed += sep + ("\"" + c.name + "\": ") +
                     (c.rs.completed && c.rs.violations == 0 ? "true"
                                                             : "false");
        cellS += sep +
                 num(c.buildS + c.runS + c.collectS + c.teardownS);
    }
    JsonLine("iter")
        .raw("traced", it.traced ? "true" : "false")
        .num("wall_s", it.wallS)
        .num("setup_s", build)
        .num("run_s", run)
        .num("collect_s", collect)
        .num("teardown_s", teardown)
        .num("export_s", exp)
        .num("summarize_s", sum)
        .num("trace_events", traceEvents)
        .num("violations", violations)
        .raw("cell_s", cellS + "]")
        .raw("ok", completed + "}")
        .raw("fp", fps + "}")
        .print();
}

/** Counts summed over the iteration's cells, plus engine work. */
void
printCounts(const IterOut &it)
{
    Counts total;
    double events = 0;
    for (const CellOut &c : it.cells) {
        for (const auto &[k, v] : c.counts)
            total[k] += v;
        events += static_cast<double>(c.events);
    }
    JsonLine line("counts");
    line.num("sim.events", events);
    for (const auto &[k, v] : total)
        line.num(k, v);
    line.print();
}

/// @}
/// @name Layer probes
/// @{

/** bench_engine's schedule/fire chain: 56-byte capture, 64 in flight. */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *remaining;
    std::uint64_t pad[5];

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        Chain next = *this;
        next.pad[0] ^= *remaining;
        eq->scheduleFn(next, eq->now() + 1, "chain");
    }
};

/** Host ns per scheduleFn + fire, median of @p reps runs. */
double
probeScheduleFireNs(unsigned reps, std::uint64_t n)
{
    std::vector<double> ns;
    for (unsigned r = 0; r < reps; ++r) {
        EventQueue eq;
        std::uint64_t remaining = n;
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < 64; ++i)
            eq.scheduleFn(Chain{&eq, &remaining, {i, 0, 0, 0, 0}},
                          eq.now() + 1, "chain");
        eq.run();
        ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(n));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/**
 * Host ns per Network::send through delivery, over every (src,dst)
 * pair of an @p nodes -node mesh (the workload machine's geometry), in
 * source-major rounds until 2^18 sends. Each pair opens a channel: 64
 * at 8 nodes, 262,144 at 512 (one round). Stops early after the first
 * source row that passes @p cap_s; @p pairs reports the sends timed.
 */
double
probeSendNs(unsigned nodes, double cap_s, std::uint64_t &pairs)
{
    constexpr std::uint64_t kSends = std::uint64_t{1} << 18;
    struct CountSink : net::NetSink
    {
        bool tryDeliver(net::Packet &&) override { return true; }
    };

    glaze::MachineConfig mc;
    mc.nodes = nodes;
    mc = glaze::Machine::fix(mc);
    EventQueue eq;
    StatGroup stats("probe");
    net::Network net(eq, mc.net, "net", &stats);
    std::vector<CountSink> sinks(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        net.attach(n, &sinks[n]);
    net::Packet proto;
    proto.handler = 7;
    for (unsigned i = 0; i < net::kMaxPayloadWords; ++i)
        proto.payload.push_back(i);

    pairs = 0;
    const auto t0 = Clock::now();
    for (NodeId s = 0; pairs < kSends; s = (s + 1) % nodes) {
        for (NodeId d = 0; d < nodes; ++d) {
            while (!net.canAccept(s, d, net::kMaxMessageWords))
                eq.runOne();
            net::Packet p = proto;
            p.src = s;
            p.dst = d;
            net.send(std::move(p));
            ++pairs;
        }
        eq.run();
        if (secondsSince(t0) > cap_s)
            break;
    }
    return secondsSince(t0) * 1e9 / static_cast<double>(pairs);
}

/// @}

struct Args
{
    std::string workload;
    std::string mode = "e2e";
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string out = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "fugubench: %s needs a value\n",
                         k.c_str());
            std::exit(2);
        }
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--mode")
            a.mode = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--out")
            a.out = v;
        else {
            std::fprintf(stderr, "fugubench: unknown flag %s\n",
                         k.c_str());
            std::exit(2);
        }
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
        kWorkloads.end()) {
        std::fprintf(stderr, "fugubench: --workload must be one of "
                             "paper_mix, synth_mesh512, serving_kv\n");
        std::exit(2);
    }
    return a;
}

/**
 * This process's peak resident set, KiB: VmHWM of its own address
 * space. (getrusage's ru_maxrss is no substitute: Linux carries the
 * pre-exec high-water mark across exec, so a child of a large parent
 * reports the parent's peak.)
 */
double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    std::fprintf(stderr, "fugubench: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

int
runE2e(const Args &a)
{
    const auto t0 = Clock::now();
    double last = 0;
    for (unsigned n = 0;
         n < kMinIters || secondsSince(t0) + last <= a.seconds; ++n) {
        const IterOut it = runIteration(a.workload, a.seed, false,
                                        nullptr, a.out);
        printIter(it);
        if (n == 0)
            printCounts(it);
        last = it.wallS;
    }
    JsonLine("end").num("peak_rss_kb", peakRssKb()).print();
    return 0;
}

int
runLayers(const Args &a)
{
    const auto t0 = Clock::now();
    const std::vector<Cell> cells = makeCells(a.workload, a.seed, false);
    const unsigned nodes = cells[0].mcfg.nodes;
    JsonLine("probe")
        .num("sim.probe_schedule_fire_ns", probeScheduleFireNs(5, 1000000))
        .print();
    std::uint64_t pairs = 0;
    const double sendNs = probeSendNs(nodes, a.seconds * 0.2, pairs);
    JsonLine("probe")
        .num("net.probe_send_ns", sendNs)
        .num("net.probe_pairs", static_cast<double>(pairs))
        .num("net.probe_nodes", nodes)
        .print();

    // Alternating traced/untraced pairs (order flips every pair), so
    // slow drift on the host hits both alike.
    SpanLog spans;
    double last = 0;
    for (unsigned p = 0;
         p < kMinIters || secondsSince(t0) + last <= a.seconds; ++p) {
        const auto pt = Clock::now();
        for (int side = 0; side < 2; ++side) {
            const bool traced = (side == 0) == (p % 2 == 0);
            const IterOut it =
                runIteration(a.workload, a.seed, traced,
                             traced ? &spans : nullptr, a.out);
            printIter(it);
            if (p == 0 && !traced)
                printCounts(it);
        }
        last = secondsSince(pt);
    }
    std::ofstream os(a.out + "/spans.json");
    spans.writeJson(os);
    return os ? 0 : 1;
}

/** The benchmark's own collection must agree with harness::runJob. */
int
runJobCheck(const Args &a)
{
    const IterOut it = runIteration(a.workload, a.seed, false, nullptr,
                                    a.out);
    std::vector<Cell> cells = makeCells(a.workload, a.seed, false);
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const harness::RunStats ref =
            harness::runJob(c.mcfg, c.app, c.gang, c.gang, c.gcfg,
                            kMaxCycles);
        const bool same = ref == it.cells[i].rs &&
                          ref.events == it.cells[i].events;
        ok = ok && same;
        JsonLine("runjob")
            .str("cell", c.name)
            .raw("match", same ? "true" : "false")
            .print();
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    JsonLine("meta")
        .str("workload", a.workload)
        .str("mode", a.mode)
        .num("seed", static_cast<double>(a.seed))
        .num("nproc", std::thread::hardware_concurrency())
        .num("threads", harness::workerCount())
        .str("compiler", FUGUBENCH_COMPILER)
        .str("build_type", FUGUBENCH_BUILD_TYPE)
        .print();
    if (a.mode == "e2e")
        return runE2e(a);
    if (a.mode == "layers")
        return runLayers(a);
    if (a.mode == "runjob")
        return runJobCheck(a);
    std::fprintf(stderr, "fugubench: unknown --mode %s\n", a.mode.c_str());
    return 2;
}
