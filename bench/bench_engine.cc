/**
 * @file
 * Pure event-kernel throughput microbench: no simulated machine, just
 * the EventQueue hot paths every experiment is built from. Measures
 * host events/sec for:
 *
 *  - schedule/fire  : chained one-shot scheduleFn lambdas with a
 *    realistic (~56-byte) capture, 64 in flight;
 *  - event/fire     : intrusive Event subclasses self-rescheduling
 *    from process(), the Cpu::spend shape;
 *  - schedule/cancel: scheduleFn followed by cancelFn via handles;
 *  - reschedule     : periodic-event reschedule churn, which also
 *    exercises stale-entry compaction (the seed kernel's heap grew by
 *    one dead entry per reschedule, forever).
 *
 * Scale with engine.events (default 2,000,000 events per section;
 * `--set engine.events=200000` for a quick run). Writes
 * BENCH_engine.json with --json.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/benchmain.hh"
#include "net/network.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

using namespace fugu;
using namespace fugu::harness;

namespace
{

double
seconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Fired callable that keeps the chain going. The padding mimics the
 * simulator's real captures (the network's delivery lambda carries a
 * whole Packet, ~72 bytes), so the bench measures the capture-carrying
 * path, not an empty-lambda special case.
 */
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
        next.pad[0] ^= *remaining; // keep the payload live
        eq->scheduleFn(next, eq->now() + 1, "chain");
    }
};

struct Periodic : Event
{
    Periodic() : Event("periodic") {}

    void
    process() override
    {
        if (*remaining == 0)
            return;
        --*remaining;
        eq->schedule(this, eq->now() + 1);
    }

    EventQueue *eq = nullptr;
    std::uint64_t *remaining = nullptr;
};

struct Section
{
    const char *name;
    std::uint64_t events;
    double secs;
    double eps; // events per second
};

Section
benchScheduleFire(std::uint64_t n)
{
    EventQueue eq;
    std::uint64_t remaining = n;
    const auto t0 = std::chrono::steady_clock::now();
    constexpr unsigned kInFlight = 64;
    for (unsigned i = 0; i < kInFlight; ++i)
        eq.scheduleFn(Chain{&eq, &remaining, {i, 0, 0, 0, 0}},
                      eq.now() + 1, "chain");
    eq.run();
    const double s = seconds(t0);
    return {"schedule_fire", n, s, n / s};
}

/**
 * End-to-end packet path: inject max-size messages on an 8-node mesh,
 * all pairs, and carry each through latency modelling, the arrival
 * ring and sink delivery. Exercises the inline payload, the flat
 * channel map and the pooled arrival events together — the messaging
 * fabric's per-message cost with no simulated software on top.
 * events = messages delivered.
 */
Section
benchPacketPath(std::uint64_t n)
{
    struct CountSink : net::NetSink
    {
        std::uint64_t delivered = 0;
        bool
        tryDeliver(net::Packet &&) override
        {
            ++delivered;
            return true;
        }
    };

    constexpr unsigned kNodes = 8;
    EventQueue eq;
    StatGroup stats("bench");
    net::Network net(eq, net::NetworkConfig{}, "net", &stats);
    CountSink sinks[kNodes];
    for (NodeId node = 0; node < kNodes; ++node)
        net.attach(node, &sinks[node]);

    net::Packet proto;
    proto.handler = 7;
    for (unsigned i = 0; i < net::kMaxPayloadWords; ++i)
        proto.payload.push_back(i);

    std::uint64_t sent = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (sent < n) {
        for (NodeId s = 0; s < kNodes; ++s)
            for (NodeId d = 0; d < kNodes; ++d) {
                while (!net.canAccept(s, d, net::kMaxMessageWords))
                    eq.runOne();
                net::Packet p = proto;
                p.src = s;
                p.dst = d;
                net.send(std::move(p));
                ++sent;
            }
        eq.run();
    }
    const double s = seconds(t0);
    return {"packet_path", sent, s, sent / s};
}

Section
benchEventFire(std::uint64_t n)
{
    EventQueue eq;
    std::uint64_t remaining = n;
    std::vector<Periodic> evs(64);
    const auto t0 = std::chrono::steady_clock::now();
    for (auto &ev : evs) {
        ev.eq = &eq;
        ev.remaining = &remaining;
        eq.schedule(&ev, eq.now() + 1);
    }
    eq.run();
    const double s = seconds(t0);
    return {"event_fire", n, s, n / s};
}

Section
benchScheduleCancel(std::uint64_t n)
{
    EventQueue eq;
    constexpr std::uint64_t kBatch = 1024;
    const std::uint64_t rounds = n / kBatch;
    std::vector<decltype(eq.scheduleFn([] {}, 0))> handles(kBatch);
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::uint64_t i = 0; i < kBatch; ++i)
            handles[i] = eq.scheduleFn([&sink] { ++sink; },
                                       eq.now() + 1000 + i, "churn");
        for (std::uint64_t i = 0; i < kBatch; ++i)
            eq.cancelFn(handles[i]);
    }
    eq.run();
    const double s = seconds(t0);
    const std::uint64_t pairs = rounds * kBatch;
    return {"schedule_cancel", pairs, s, pairs / s};
}

Section
benchReschedule(std::uint64_t n)
{
    EventQueue eq;
    std::uint64_t remaining = 0; // no self-rescheduling here
    std::vector<Periodic> evs(16);
    for (auto &ev : evs) {
        ev.eq = &eq;
        ev.remaining = &remaining;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        eq.reschedule(&evs[i % evs.size()], i + 1);
    eq.run();
    const double s = seconds(t0);
    return {"reschedule", n, s, n / s};
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t n = 2000000;

    BenchSpec spec;
    spec.name = "engine";
    spec.defaults = [](BenchContext &ctx) {
        // Only used for the --trace exemplar run below.
        ctx.machine.nodes = 2;
    };
    spec.params = [&](sim::Binder &b) {
        auto s = b.push("engine");
        b.item("events", n, "events per measured section");
    };
    spec.body = [&](BenchContext &ctx) {
        ctx.report.meta("events_per_section", n);
        ctx.report.meta("in_flight", std::uint64_t{64});
        ctx.report.meta("units", "host events/sec");

        std::printf("Event-kernel throughput (%llu events/section)\n",
                    static_cast<unsigned long long>(n));
        std::printf("%-22s  %12s  %8s  %14s\n", "section", "events",
                    "secs", "events/sec");
        std::printf("%-22s  %12s  %8s  %14s\n",
                    "----------------------", "------------",
                    "--------", "--------------");

        const Section sections[] = {
            benchScheduleFire(n),
            benchEventFire(n),
            benchScheduleCancel(n),
            benchReschedule(n),
            benchPacketPath(n / 4),
        };
        for (const Section &s : sections) {
            std::printf("%-22s  %12llu  %8.3f  %14.0f\n", s.name,
                        static_cast<unsigned long long>(s.events),
                        s.secs, s.eps);
            ctx.report.row({{"section", s.name},
                            {"events", s.events},
                            {"secs", s.secs},
                            {"events_per_sec", s.eps}});
        }

        if (!ctx.tracePath.empty()) {
            // This bench has no machine of its own; trace a small
            // two-node barrier run so --trace works uniformly.
            runJob(ctx.machine, ctx.workloads.factory("barrier"),
                   /*with_null=*/false, /*gang=*/false, ctx.gang,
                   ctx.maxCycles, ctx.tracePath);
        }
        return 0;
    };
    return benchMain(spec, argc, argv);
}
