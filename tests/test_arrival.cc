/**
 * @file
 * ArrivalProcess tests: the open-loop load generator is a pure
 * function of (config, stream) — bit-identical streams however the
 * host schedules work, including when many threads build generators
 * at once — and its three interarrival mixes and the Zipf key
 * popularity have the statistics they claim.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "sim/arrival.hh"

using namespace fugu;
using sim::ArrivalConfig;
using sim::ArrivalProcess;

namespace
{

struct Stream
{
    std::vector<Cycle> gaps;
    std::vector<std::uint64_t> keys;

    bool operator==(const Stream &o) const = default;
};

Stream
draw(const ArrivalConfig &cfg, unsigned stream, std::size_t n)
{
    ArrivalProcess p(cfg, stream);
    Stream s;
    for (std::size_t i = 0; i < n; ++i) {
        s.gaps.push_back(p.nextGap());
        s.keys.push_back(p.nextKey());
    }
    return s;
}

double
meanGap(const Stream &s)
{
    double sum = 0;
    for (Cycle g : s.gaps)
        sum += static_cast<double>(g);
    return sum / s.gaps.size();
}

TEST(ArrivalTest, SameSeedSameStreamIsBitIdentical)
{
    for (const char *mix : {"poisson", "bursty", "diurnal"}) {
        ArrivalConfig cfg;
        cfg.mix = mix;
        cfg.seed = 42;
        const Stream a = draw(cfg, /*stream=*/3, 5000);
        const Stream b = draw(cfg, /*stream=*/3, 5000);
        EXPECT_EQ(a, b) << mix;
    }
}

TEST(ArrivalTest, StreamUnaffectedByHostThreadKnob)
{
    // The generator reads nothing but (config, stream): FUGU_THREADS
    // — or any other host state — must not change a single draw.
    ArrivalConfig cfg;
    cfg.seed = 9;
    const char *old = std::getenv("FUGU_THREADS");
    const std::string saved = old ? old : "";
    setenv("FUGU_THREADS", "1", 1);
    const Stream a = draw(cfg, 0, 2000);
    setenv("FUGU_THREADS", "8", 1);
    const Stream b = draw(cfg, 0, 2000);
    if (old)
        setenv("FUGU_THREADS", saved.c_str(), 1);
    else
        unsetenv("FUGU_THREADS");
    EXPECT_EQ(a, b);
}

TEST(ArrivalTest, DistinctStreamsAndSeedsDecorrelate)
{
    ArrivalConfig cfg;
    cfg.seed = 7;
    const Stream s0 = draw(cfg, 0, 1000);
    const Stream s1 = draw(cfg, 1, 1000);
    EXPECT_NE(s0, s1);
    ArrivalConfig cfg2 = cfg;
    cfg2.seed = 8;
    const Stream t0 = draw(cfg2, 0, 1000);
    EXPECT_NE(s0, t0);
}

TEST(ArrivalTest, GapsAreAlwaysAtLeastOneCycle)
{
    for (const char *mix : {"poisson", "bursty", "diurnal"}) {
        ArrivalConfig cfg;
        cfg.mix = mix;
        cfg.ratePerKcycle = 50; // mean gap 20 cycles: exercise small draws
        const Stream s = draw(cfg, 0, 5000);
        for (Cycle g : s.gaps)
            ASSERT_GE(g, 1u) << mix;
    }
}

TEST(ArrivalTest, EveryMixPreservesTheMeanRate)
{
    // Poisson trivially; bursty is an MMPP whose on/off rates are
    // chosen so duty*lamOn + (1-duty)*lamOff == lambda; diurnal
    // thinning averages the sinusoid out over whole periods.
    for (const char *mix : {"poisson", "bursty", "diurnal"}) {
        ArrivalConfig cfg;
        cfg.mix = mix;
        cfg.ratePerKcycle = 2.0; // mean gap 500 cycles
        cfg.burstLenKcycles = 5.0; // many on/off epochs in the sample
        const Stream s = draw(cfg, 0, 200000);
        EXPECT_NEAR(meanGap(s), 500.0, 500.0 * 0.05) << mix;
    }
}

TEST(ArrivalTest, DiurnalSweepsFullPeriodsWithVisibleRamp)
{
    // The soak-scenario sanity check (scenarios/serving_soak.cfg):
    // a diurnal run sized like the soak must cover at least two full
    // periods of the rate sinusoid, and the ramp must actually show —
    // the rising half-period (sin > 0) collects more arrivals than
    // the falling half. A sample shorter than a period would make the
    // mean-rate guarantee (EveryMixPreservesTheMeanRate) vacuous.
    ArrivalConfig cfg;
    cfg.mix = "diurnal";
    cfg.ratePerKcycle = 2.0; // mean gap 500 cycles
    cfg.diurnalPeriodKcycles = 250.0;
    cfg.diurnalAmp = 0.8;
    const Stream s = draw(cfg, 0, 4000); // ~2000 kcycles ~ 8 periods
    const double period = cfg.diurnalPeriodKcycles * 1000.0;

    double t = 0;
    std::uint64_t rising = 0, falling = 0;
    for (Cycle g : s.gaps) {
        t += static_cast<double>(g);
        const double phase = std::fmod(t, period);
        (phase < period / 2 ? rising : falling) += 1;
    }
    EXPECT_GE(t, 2.0 * period)
        << "soak-length draw no longer spans two diurnal periods";
    EXPECT_GT(static_cast<double>(rising),
              1.2 * static_cast<double>(falling))
        << "diurnal ramp not visible across the period";
}

TEST(ArrivalTest, BurstyIsBurstierThanPoisson)
{
    // Same mean rate, but the MMPP mixes a fast on-state with a slow
    // off-state, so the gap variance must be well above Poisson's.
    ArrivalConfig pcfg;
    ArrivalConfig bcfg;
    bcfg.mix = "bursty";
    bcfg.burstLenKcycles = 5.0;
    const Stream p = draw(pcfg, 0, 100000);
    const Stream b = draw(bcfg, 0, 100000);
    auto var = [](const Stream &s) {
        double m = 0;
        for (Cycle g : s.gaps)
            m += static_cast<double>(g);
        m /= s.gaps.size();
        double v = 0;
        for (Cycle g : s.gaps)
            v += (g - m) * (g - m);
        return v / s.gaps.size();
    };
    EXPECT_GT(var(b), 2.0 * var(p));
}

TEST(ArrivalTest, ZipfSkewsTowardTheHead)
{
    ArrivalConfig cfg;
    cfg.keys = 1024;
    cfg.zipfTheta = 0.99;
    const Stream s = draw(cfg, 0, 100000);
    std::map<std::uint64_t, std::uint64_t> freq;
    for (std::uint64_t k : s.keys) {
        ASSERT_LT(k, cfg.keys);
        ++freq[k];
    }
    // Key 0 is the hottest: with theta=0.99 it should take a few
    // percent of all draws, far above the uniform 1/1024.
    const double top = static_cast<double>(freq[0]) / s.keys.size();
    EXPECT_GT(top, 20.0 / 1024.0);
    // ... and far fewer than half the keyspace covers most draws.
    std::uint64_t headHits = 0;
    for (std::uint64_t k = 0; k < 103; ++k) { // hottest ~10%
        auto it = freq.find(k);
        if (it != freq.end())
            headHits += it->second;
    }
    EXPECT_GT(static_cast<double>(headHits) / s.keys.size(), 0.5);
}

TEST(ArrivalTest, ZeroThetaIsUniform)
{
    ArrivalConfig cfg;
    cfg.keys = 64;
    cfg.zipfTheta = 0.0;
    const Stream s = draw(cfg, 0, 64000);
    std::map<std::uint64_t, std::uint64_t> freq;
    for (std::uint64_t k : s.keys) {
        ASSERT_LT(k, cfg.keys);
        ++freq[k];
    }
    // Every key drawn, none wildly over-represented (expected 1000).
    EXPECT_EQ(freq.size(), 64u);
    for (const auto &[k, n] : freq)
        EXPECT_NEAR(static_cast<double>(n), 1000.0, 250.0) << k;
}

TEST(ArrivalTest, GeneratorsBuiltOnEightThreadsMatchSerialDraws)
{
    // zeta(keys, theta) is summed once per process and shared; eight
    // threads building one config's generators at once all race for
    // the first sum. Keys and theta are this test's own, so no earlier
    // test has filled the memo for them.
    ArrivalConfig cfg;
    cfg.keys = 40009;
    cfg.zipfTheta = 0.77;
    cfg.seed = 5;
    constexpr unsigned kThreads = 8;
    std::vector<Stream> threaded(kThreads);
    {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < kThreads; ++t)
            pool.emplace_back(
                [&cfg, &threaded, t] { threaded[t] = draw(cfg, t, 2000); });
        for (std::thread &th : pool)
            th.join();
    }
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(threaded[t], draw(cfg, t, 2000)) << "stream " << t;
}

TEST(ArrivalTest, SingleKeyKeyspaceAlwaysDrawsZero)
{
    ArrivalConfig cfg;
    cfg.keys = 1;
    cfg.zipfTheta = 0.99;
    const Stream s = draw(cfg, 0, 100);
    for (std::uint64_t k : s.keys)
        EXPECT_EQ(k, 0u);
}

} // namespace
