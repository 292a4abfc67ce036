/**
 * @file
 * Tests for the fugutrace subsystem: recorder gating, binary
 * round-trip, Chrome-JSON well-formedness, byte-identical traces
 * across FUGU_THREADS settings, buffered-entry cause attribution for
 * every DivertReason, and the summarize() accounting the tracetool
 * relies on (per-cause divert counts sum to the kernel's
 * buffer-insert aggregate), and the drop count a traced runJob
 * exports once its ring wraps.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "glaze/machine.hh"
#include "harness/experiment.hh"
#include "sim/log.hh"
#include "trace/export.hh"

using namespace fugu;
using namespace fugu::glaze;
using namespace fugu::trace;
using exec::CoTask;

namespace
{

struct RxState
{
    int received = 0;
};

CoTask<void>
recvMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0, [st, &cv](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await port.dispose();
            ++st->received;
            cv.notifyAll();
        });
    while (st->received < expect)
        co_await cv.wait();
}

CoTask<void>
sendMain(Process &p, NodeId dst, int count, Cycle gap)
{
    for (int i = 0; i < count; ++i) {
        if (gap)
            co_await p.compute(gap);
        co_await p.port().send(dst, 0);
    }
}

CoTask<void>
nullMain(Process &p)
{
    for (;;)
        co_await p.compute(10000);
}

/** Receiver that sits in an atomic section until the timer revokes. */
CoTask<void>
stubbornAtomicMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.port().setHandler(
        0, [st, &cv](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await port.dispose();
            ++st->received;
            cv.notifyAll();
        });
    co_await p.port().beginAtomic();
    co_await p.compute(50000);
    co_await p.port().endAtomic();
    while (st->received < expect)
        co_await cv.wait();
}

/** Receiver whose handler faults on a demand-zero page. */
CoTask<void>
faultingHandlerMain(Process &p, RxState *st, int expect)
{
    rt::CondVar cv(p.threads());
    p.as().reserve(100, 4);
    p.port().setHandler(
        0,
        [st, &cv, &p](core::UdmPort &port, NodeId) -> CoTask<void> {
            co_await p.touchPage(100 + (st->received % 4));
            co_await port.dispose();
            ++st->received;
            cv.notifyAll();
        });
    while (st->received < expect)
        co_await cv.wait();
}

std::uint64_t
machineBufferInserts(Machine &m)
{
    double total = 0;
    for (auto &n : m.nodes)
        total += n.kernel.stats.bufferInserts.value();
    return static_cast<std::uint64_t>(total);
}

Summary
summarizeMachine(Machine &m)
{
    return summarize(m.tracer()->buffer().snapshot());
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

struct TraceTest : ::testing::Test
{
    TraceTest() { detail::setThrowOnError(true); }
    ~TraceTest() override { detail::setThrowOnError(false); }
};

TEST_F(TraceTest, DisabledByDefaultAndCheapToGate)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    Machine m(cfg);
    EXPECT_EQ(m.tracer(), nullptr);
    // The gate macro itself must tolerate a null recorder.
    trace::Recorder *rec = nullptr;
    FUGU_TRACE(rec, 0, Type::Inject, 1);
}

TEST_F(TraceTest, RingBufferWrapsKeepingNewest)
{
    EventQueue eq;
    Options opts;
    opts.enabled = true;
    opts.maxEvents = 8;
    Recorder rec(eq, opts);
    for (std::uint64_t i = 0; i < 20; ++i)
        rec.record(0, Type::Inject, i);
    const TraceBuffer &buf = rec.buffer();
    EXPECT_EQ(buf.total(), 20u);
    EXPECT_EQ(buf.size(), 8u);
    EXPECT_EQ(buf.dropped(), 12u);
    // Oldest retained is #12, newest #19.
    EXPECT_EQ(buf[0].msg, 12u);
    EXPECT_EQ(buf[7].msg, 19u);
}

/** One traced fast-path run, reused by the format tests. */
Summary
runTracedPair(Machine &m, int count)
{
    RxState st;
    Job *job = m.addJob("pair", [&st, count](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, count, 50)
                             : recvMain(p, &st, count);
    });
    m.installJob(job);
    fugu_assert(m.runUntilDone(job), "traced pair stuck");
    fugu_assert(st.received == count, "missing deliveries");
    return summarizeMachine(m);
}

TEST_F(TraceTest, FastPathLifecycleIsRecorded)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.trace.enabled = true;
    Machine m(cfg);
    constexpr int kCount = 20;
    const Summary s = runTracedPair(m, kCount);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::Inject)], kCount);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::NetAccept)], kCount);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::DirectExtract)],
              kCount);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::Dispatch)], kCount);
    EXPECT_EQ(s.totalDiverts(), 0u);
    EXPECT_EQ(s.fastLatency.count, kCount);
    EXPECT_GT(s.fastLatency.p50, 0u);
    EXPECT_GE(s.fastLatency.max, s.fastLatency.p99);
    EXPECT_EQ(s.bufferedLatency.count, 0u);
    // Exactly one active channel: node 0 -> node 1, null messages.
    ASSERT_GE(s.channels.size(), 1u);
    EXPECT_EQ(s.channels[0].src, 0);
    EXPECT_EQ(s.channels[0].dst, 1);
    EXPECT_GE(s.channels[0].peakWords, 1u);
}

TEST_F(TraceTest, BinaryRoundTripIsExact)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.trace.enabled = true;
    Machine m(cfg);
    runTracedPair(m, 10);
    const std::vector<TraceEvent> orig = m.tracer()->buffer().snapshot();
    ASSERT_FALSE(orig.empty());

    std::stringstream ss;
    writeBinary(ss, m.tracer()->buffer());
    std::vector<TraceEvent> back;
    std::string err;
    ASSERT_TRUE(readBinary(ss, back, &err)) << err;
    ASSERT_EQ(back.size(), orig.size());
    for (std::size_t i = 0; i < orig.size(); ++i)
        EXPECT_EQ(back[i], orig[i]) << "record " << i;
}

TEST_F(TraceTest, EmptyTraceRoundTripsAndSummarizes)
{
    // Regression: a zero-event recording is legitimate (a run may
    // record nothing), and used to make the tracetool exit nonzero
    // and print no percentile lines. The file itself must round-trip
    // and every degenerate summary section must render (as `n/a`)
    // without dividing by zero.
    TraceBuffer empty(16);
    std::stringstream ss;
    writeBinary(ss, empty);
    std::vector<TraceEvent> back{TraceEvent{}}; // must be cleared
    std::string err;
    ASSERT_TRUE(readBinary(ss, back, &err)) << err;
    EXPECT_TRUE(back.empty());

    const Summary s = summarize(back);
    std::ostringstream os;
    printSummary(os, s);
    EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST_F(TraceTest, BinaryReaderRejectsGarbage)
{
    std::stringstream ss("not a trace file");
    std::vector<TraceEvent> out;
    std::string err;
    EXPECT_FALSE(readBinary(ss, out, &err));
    EXPECT_FALSE(err.empty());

    // A version-2 header (the retired run-tag format), well formed
    // down to an empty tag block and zero records.
    std::stringstream v2(
        std::string("FGTR\x02\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0", 20));
    EXPECT_FALSE(readBinary(v2, out, &err));
    EXPECT_EQ(err, "unsupported trace version");
}

/**
 * Minimal structural JSON check: balanced braces/brackets outside
 * string literals and the Chrome trace-event keys present. Perfetto
 * needs `traceEvents` plus name/ph/ts/pid/tid per event.
 */
void
expectWellFormedChromeJson(const std::string &json)
{
    long depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : json) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': case '[': ++depth; break;
        case '}': case ']': --depth; break;
        default: break;
        }
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    for (const char *key : {"\"name\"", "\"ph\"", "\"ts\"", "\"pid\"",
                            "\"tid\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST_F(TraceTest, JsonExportIsWellFormed)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.trace.enabled = true;
    Machine m(cfg);
    runTracedPair(m, 5);
    std::stringstream ss;
    writeJson(ss, m.tracer()->buffer());
    expectWellFormedChromeJson(ss.str());
}

TEST_F(TraceTest, WriteTraceFilesProducesBothFormats)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.trace.enabled = true;
    Machine m(cfg);
    runTracedPair(m, 5);
    const std::string path = testing::TempDir() + "fugu_roundtrip.trace";
    std::string err;
    ASSERT_TRUE(writeTraceFiles(path, m.tracer()->buffer(), &err))
        << err;
    std::vector<TraceEvent> back;
    ASSERT_TRUE(readBinaryFile(path, back, &err)) << err;
    EXPECT_EQ(back.size(), m.tracer()->buffer().size());
    expectWellFormedChromeJson(readFileBytes(path + ".json"));
    std::remove(path.c_str());
    std::remove((path + ".json").c_str());
}

/** The integer after @p key in an exported trace's otherData. */
std::uint64_t
otherDataCount(const std::string &json, const std::string &key)
{
    const std::string k = "\"" + key + "\":";
    const std::size_t at = json.find(k);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no " << k << " in the trace JSON";
        return 0;
    }
    return std::stoull(json.substr(at + k.size()));
}

TEST_F(TraceTest, RunJobTraceReportsRingDrops)
{
    const std::string whole = testing::TempDir() + "fugu_whole.trace";
    const std::string ring = testing::TempDir() + "fugu_ring64.trace";
    harness::Workloads wl;
    const auto traced = [&](std::size_t max_events,
                            const std::string &path) {
        MachineConfig cfg;
        cfg.nodes = 2;
        cfg.trace.maxEvents = max_events;
        const harness::RunStats rs = harness::runJob(
            cfg, wl.factory("barrier"), /*with_null=*/false,
            /*gang=*/false, {}, 100000000000ull, path);
        EXPECT_TRUE(rs.completed);
        return readFileBytes(path + ".json");
    };
    const std::string unbounded = traced(0, whole);
    const std::string bounded = traced(64, ring);

    const std::uint64_t total = otherDataCount(unbounded, "events");
    EXPECT_EQ(otherDataCount(unbounded, "dropped"), 0u);
    ASSERT_GT(total, 64u);
    EXPECT_EQ(otherDataCount(bounded, "events"), 64u);
    EXPECT_EQ(otherDataCount(bounded, "dropped"), total - 64);

    // The ring keeps the newest 64 records of the same run.
    std::vector<TraceEvent> all, kept;
    std::string err;
    ASSERT_TRUE(readBinaryFile(whole, all, &err)) << err;
    ASSERT_TRUE(readBinaryFile(ring, kept, &err)) << err;
    EXPECT_EQ(kept, std::vector<TraceEvent>(all.end() - 64, all.end()));
    for (const std::string &p : {whole, ring}) {
        std::remove(p.c_str());
        std::remove((p + ".json").c_str());
    }
}

/** Gang-scheduled skewed run: the Figure 7 shape in miniature. */
void
runSkewedTrial(const std::string &trace_path)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 7;
    harness::Workloads wl;
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.4;
    const harness::RunStats rs =
        harness::runTrials(cfg, wl.factory("barrier"),
                           /*with_null=*/true, /*gang=*/true, g,
                           /*trials=*/2, 100000000000ull, trace_path);
    ASSERT_TRUE(rs.completed);
}

TEST_F(TraceTest, TraceBytesIndependentOfWorkerThreads)
{
    const char *saved = std::getenv("FUGU_THREADS");
    const std::string saved_val = saved ? saved : "";

    const std::string p1 = testing::TempDir() + "fugu_threads1.trace";
    const std::string p8 = testing::TempDir() + "fugu_threads8.trace";
    ::setenv("FUGU_THREADS", "1", 1);
    runSkewedTrial(p1);
    ::setenv("FUGU_THREADS", "8", 1);
    runSkewedTrial(p8);

    if (saved)
        ::setenv("FUGU_THREADS", saved_val.c_str(), 1);
    else
        ::unsetenv("FUGU_THREADS");

    const std::string b1 = readFileBytes(p1);
    const std::string b8 = readFileBytes(p8);
    ASSERT_FALSE(b1.empty());
    EXPECT_EQ(b1, b8) << "binary trace depends on FUGU_THREADS";
    EXPECT_EQ(readFileBytes(p1 + ".json"), readFileBytes(p8 + ".json"))
        << "JSON trace depends on FUGU_THREADS";
    for (const std::string &p : {p1, p8}) {
        std::remove(p.c_str());
        std::remove((p + ".json").c_str());
    }
}

TEST_F(TraceTest, AttributesGidMismatchAndQuantumCarry)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 7;
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 300;
    Job *job = m.addJob("app", [&st](Process &p) {
        return p.node() == 0
                   ? sendMain(p, 1, kCount, 200)
                   : recvMain(p, &st, p.node() == 1 ? kCount : 0);
    });
    m.addJob("null", [](Process &p) { return nullMain(p); });
    GangConfig g;
    g.quantum = 20000;
    g.skew = 0.3;
    m.startGang(g);
    ASSERT_TRUE(m.runUntilDone(job));

    const Summary s = summarizeMachine(m);
    // Skewed quantum boundaries make messages arrive for descheduled
    // processes: those diverts are attributed to the GID mismatch.
    const auto gid = static_cast<unsigned>(DivertReason::GidMismatch);
    EXPECT_GE(s.divertByReason[gid], 1u);
    // A quantum that begins with messages still buffered re-enters
    // buffered mode with the carry-in cause.
    const auto carry = static_cast<unsigned>(DivertReason::QuantumCarry);
    EXPECT_GE(s.modeEnterByReason[carry], 1u);
    EXPECT_GE(s.byType[static_cast<unsigned>(Type::QuantumSwitch)], 2u);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::ModeEnter)],
              s.byType[static_cast<unsigned>(Type::ModeExit)]);
    // Fast path stays the common case.
    EXPECT_GT(s.fastLatency.count, s.bufferedLatency.count);
}

TEST_F(TraceTest, AttributesAtomicityTimeoutDiverts)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.ni.atomicityTimeout = 2000;
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 5;
    Job *job = m.addJob("timeout", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 100)
                             : stubbornAtomicMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));

    const Summary s = summarizeMachine(m);
    const auto at = static_cast<unsigned>(DivertReason::AtomTimeout);
    EXPECT_GE(s.byType[static_cast<unsigned>(Type::AtomTimeout)], 1u);
    EXPECT_GE(s.modeEnterByReason[at], 1u);
    EXPECT_GE(s.divertByReason[at], 1u);
    EXPECT_GE(s.bufferedLatency.count, 1u);
    EXPECT_GE(s.byType[static_cast<unsigned>(Type::VbufPage)], 1u);
}

TEST_F(TraceTest, AttributesPageFaultDiverts)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 6;
    Job *job = m.addJob("fault", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 100)
                             : faultingHandlerMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));

    const Summary s = summarizeMachine(m);
    const auto pf = static_cast<unsigned>(DivertReason::PageFault);
    EXPECT_GE(s.byType[static_cast<unsigned>(Type::PageFault)], 1u);
    EXPECT_GE(s.modeEnterByReason[pf], 1u);
    EXPECT_GE(s.divertByReason[pf], 1u);
}

TEST_F(TraceTest, AttributesConfigDiverts)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.alwaysBuffered = true;
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 8;
    Job *job = m.addJob("cfgdiv", [&st](Process &p) {
        return p.node() == 0 ? sendMain(p, 1, kCount, 100)
                             : recvMain(p, &st, kCount);
    });
    m.installJob(job);
    ASSERT_TRUE(m.runUntilDone(job));

    const Summary s = summarizeMachine(m);
    const auto c = static_cast<unsigned>(DivertReason::Config);
    EXPECT_EQ(s.divertByReason[c], kCount);
    EXPECT_GE(s.modeEnterByReason[c], 1u);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::DirectExtract)], 0u);
    EXPECT_EQ(s.bufferedLatency.count, kCount);
}

/**
 * The acceptance check behind `tracetool summarize`: every divert in
 * the trace corresponds to one kernel buffer insertion, so the
 * per-cause counts sum to the run's aggregate buffered-message stat.
 */
TEST_F(TraceTest, DivertCountsSumToBufferInserts)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState st;
    constexpr int kCount = 250;
    Job *job = m.addJob("app", [&st](Process &p) {
        return p.node() == 0
                   ? sendMain(p, 1, kCount, 150)
                   : recvMain(p, &st, p.node() == 1 ? kCount : 0);
    });
    m.addJob("null", [](Process &p) { return nullMain(p); });
    GangConfig g;
    g.quantum = 15000;
    g.skew = 0.4;
    m.startGang(g);
    ASSERT_TRUE(m.runUntilDone(job));

    const Summary s = summarizeMachine(m);
    EXPECT_GE(s.totalDiverts(), 1u);
    EXPECT_EQ(s.totalDiverts(), machineBufferInserts(m));
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::Divert)],
              s.totalDiverts());
    // Buffered extractions drain exactly what was diverted.
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::BufExtract)],
              s.totalDiverts());

    // Every extraction carries its GID in the packed aux, so the
    // per-GID breakdown must cover the same population: fast+buffered
    // summed over byGid equals the extract totals, and the measured
    // job's GID shows both delivery cases.
    std::uint64_t fast = 0, buffered = 0;
    for (const auto &g : s.byGid) {
        fast += g.fast;
        buffered += g.buffered;
    }
    EXPECT_EQ(fast,
              s.byType[static_cast<unsigned>(Type::DirectExtract)]);
    EXPECT_EQ(buffered,
              s.byType[static_cast<unsigned>(Type::BufExtract)]);
}

/**
 * Adversary-trace golden: two tenants that only ever run buffered
 * (machine-wide divert, gang-scheduled so GID-mismatch diverts mix
 * in) must come out of `tracetool summarize` with their extraction
 * counts attributed to the right GID and none dropped — the per-GID
 * rows cover exactly the BufExtract population, per tenant, with a
 * latency sample for every extraction. The summary must also survive
 * the binary round trip byte-for-byte, so the tracetool sees what the
 * in-memory recorder saw.
 */
TEST_F(TraceTest, AdversaryTraceKeepsBufferedOnlyGidsDistinct)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.seed = 11;
    cfg.alwaysBuffered = true; // every tenant is buffered-only
    cfg.trace.enabled = true;
    Machine m(cfg);
    RxState stA, stB;
    constexpr int kA = 13, kB = 7; // unequal, so swaps are visible
    // Senders idle for two gang rotations first, so every receiver
    // has been scheduled once and registered its handler before the
    // first buffered message can drain at handler priority.
    auto slowSend = [](Process &p, NodeId dst, int count,
                       Cycle gap) -> CoTask<void> {
        co_await p.compute(40000);
        co_await sendMain(p, dst, count, gap);
    };
    Job *a = m.addJob("tenantA", [&stA, slowSend](Process &p) {
        return p.node() == 0
                   ? slowSend(p, 1, kA, 120)
                   : recvMain(p, &stA, p.node() == 1 ? kA : 0);
    });
    Job *b = m.addJob("tenantB", [&stB, slowSend](Process &p) {
        return p.node() == 2
                   ? slowSend(p, 3, kB, 180)
                   : recvMain(p, &stB, p.node() == 3 ? kB : 0);
    });
    GangConfig g;
    g.quantum = 15000;
    g.skew = 0.3;
    m.startGang(g);
    try {
        ASSERT_TRUE(m.runUntilDone(a));
        ASSERT_TRUE(m.runUntilDone(b));
    } catch (const SimError &e) {
        FAIL() << e.message;
    }

    const Summary s = summarizeMachine(m);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::DirectExtract)], 0u);
    EXPECT_EQ(s.byType[static_cast<unsigned>(Type::BufExtract)],
              static_cast<std::uint64_t>(kA + kB));
    ASSERT_EQ(s.byGid.size(), 2u); // sorted by gid
    const Summary::GidStats &ga = s.byGid[0];
    const Summary::GidStats &gb = s.byGid[1];
    EXPECT_EQ(ga.gid, a->gid());
    EXPECT_EQ(gb.gid, b->gid());
    EXPECT_EQ(ga.fast, 0u);
    EXPECT_EQ(gb.fast, 0u);
    EXPECT_EQ(ga.buffered, static_cast<std::uint64_t>(kA));
    EXPECT_EQ(gb.buffered, static_cast<std::uint64_t>(kB));
    // Every extraction paired with its inject: no latency dropped.
    EXPECT_EQ(ga.latency.count, static_cast<std::uint64_t>(kA));
    EXPECT_EQ(gb.latency.count, static_cast<std::uint64_t>(kB));
    EXPECT_DOUBLE_EQ(ga.bufferedPct(), 100.0);
    EXPECT_DOUBLE_EQ(gb.bufferedPct(), 100.0);

    // Golden: the tracetool's view (binary file round trip) renders
    // the identical summary, per-GID rows included.
    const std::string path =
        testing::TempDir() + "fugu_adversary.trace";
    std::string err;
    ASSERT_TRUE(writeTraceFiles(path, m.tracer()->buffer(), &err))
        << err;
    std::vector<TraceEvent> back;
    ASSERT_TRUE(readBinaryFile(path, back, &err)) << err;
    std::ostringstream live, disk;
    printSummary(live, s);
    printSummary(disk, summarize(back));
    EXPECT_EQ(live.str(), disk.str());
    EXPECT_NE(live.str().find("% buffered)"), std::string::npos);
    std::remove(path.c_str());
    std::remove((path + ".json").c_str());
}

TEST(ExtractAuxTest, PackRoundTripsAndSaturates)
{
    const std::uint32_t aux = packExtractAux(Gid{7}, Cycle{123456});
    EXPECT_EQ(extractAuxGid(aux), 7u);
    EXPECT_EQ(extractAuxLatency(aux), 123456u);
    // GID clamps to one byte, latency saturates at 24 bits.
    EXPECT_EQ(extractAuxGid(packExtractAux(Gid{0x1ff}, 0)), 0xffu);
    EXPECT_EQ(extractAuxLatency(packExtractAux(0, Cycle{1} << 30)),
              0xffffffu);
}

TEST(ExtractAuxTest, SummarizeBreaksExtractionsDownByGid)
{
    // Synthetic lifecycle: two fast extractions for gid 3 (one with a
    // matching inject, one orphaned) and one buffered for gid 5.
    std::vector<TraceEvent> ev;
    ev.push_back({100, userMsgId(1), 0, 0,
                  static_cast<std::uint8_t>(Type::Inject), 0});
    ev.push_back({150, userMsgId(1), packExtractAux(3, 50), 1,
                  static_cast<std::uint8_t>(Type::DirectExtract), 0});
    ev.push_back({160, userMsgId(9), packExtractAux(3, 7), 1,
                  static_cast<std::uint8_t>(Type::DirectExtract), 0});
    ev.push_back({200, userMsgId(2), 0, 0,
                  static_cast<std::uint8_t>(Type::Inject), 0});
    ev.push_back({1200, userMsgId(2), packExtractAux(5, 1000), 2,
                  static_cast<std::uint8_t>(Type::BufExtract), 0});

    const Summary s = summarize(ev);
    ASSERT_EQ(s.byGid.size(), 2u);
    EXPECT_EQ(s.byGid[0].gid, 3u);
    EXPECT_EQ(s.byGid[0].fast, 2u);
    EXPECT_EQ(s.byGid[0].buffered, 0u);
    // Latency percentiles only from matched inject->extract pairs.
    EXPECT_EQ(s.byGid[0].latency.count, 1u);
    EXPECT_EQ(s.byGid[0].latency.p50, 50u);
    EXPECT_EQ(s.byGid[1].gid, 5u);
    EXPECT_EQ(s.byGid[1].fast, 0u);
    EXPECT_EQ(s.byGid[1].buffered, 1u);
    EXPECT_EQ(s.byGid[1].latency.p50, 1000u);
    EXPECT_DOUBLE_EQ(s.byGid[1].bufferedPct(), 100.0);

    // The printable summary mentions both GIDs.
    std::ostringstream os;
    printSummary(os, s);
    EXPECT_NE(os.str().find("gid 3"), std::string::npos);
    EXPECT_NE(os.str().find("gid 5"), std::string::npos);
}

} // namespace
