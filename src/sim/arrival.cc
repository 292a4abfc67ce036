#include "sim/arrival.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "sim/config.hh"
#include "sim/log.hh"

namespace fugu::sim
{

void
bindConfig(Binder &b, ArrivalConfig &c)
{
    b.enumItem("mix", c.mix, {"poisson", "bursty", "diurnal"},
               "interarrival mix; bursty is Markov-modulated on/off, "
               "diurnal a sinusoidal ramp");
    b.item("rate_per_kcycle", c.ratePerKcycle,
           "mean offered load per generator", "arrivals/kcycle");
    b.item("burst_duty", c.burstDuty,
           "bursty: long-run fraction of time in the on state");
    b.item("burst_boost", c.burstBoost,
           "bursty: on-state rate as a multiple of the off-state "
           "rate");
    b.item("burst_len_kcycles", c.burstLenKcycles,
           "bursty: mean on-state dwell time", "kcycles");
    b.item("diurnal_period_kcycles", c.diurnalPeriodKcycles,
           "diurnal: sinusoid period", "kcycles");
    b.item("diurnal_amp", c.diurnalAmp,
           "diurnal: amplitude (peak = rate*(1+amp))");
    b.item("keys", c.keys, "key-popularity universe size");
    b.item("zipf_theta", c.zipfTheta,
           "Zipf skew in [0,1); 0 = uniform (YCSB default 0.99)");
}

namespace
{

/** Generalized harmonic number sum_{i=1..n} 1/i^theta. */
double
zeta(std::uint64_t n, double theta)
{
    double z = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
        z += 1.0 / std::pow(static_cast<double>(i), theta);
    return z;
}

/**
 * zeta(n, theta), summed once per process: every node of every
 * serving run builds a generator over the same few (keys, theta)
 * pairs, and zeta(65536, 0.99) is 65,536 pow calls. The first caller
 * sums under the lock, so concurrent parallelFor cells wait for it
 * instead of summing again; the value is the one zeta() returns.
 */
double
memoZeta(std::uint64_t n, double theta)
{
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, double>, double> memo;
    const std::lock_guard<std::mutex> lock(mu);
    const auto [it, fresh] = memo.try_emplace({n, theta}, 0.0);
    if (fresh)
        it->second = zeta(n, theta);
    return it->second;
}

} // namespace

ArrivalProcess::ArrivalProcess(const ArrivalConfig &cfg,
                               std::uint64_t stream)
    : cfg_(cfg),
      rng_(cfg.seed ^ (0xa0761d6478bd642fULL * (stream + 1))),
      keyRng_(cfg.seed ^ (0xe7037ed1a0b428dbULL * (stream + 1)))
{
    if (!(cfg_.ratePerKcycle > 0))
        fugu_fatal("arrival.rate_per_kcycle must be positive");
    if (cfg_.keys < 1)
        fugu_fatal("arrival.keys must be >= 1");
    if (!(cfg_.zipfTheta >= 0.0 && cfg_.zipfTheta < 1.0))
        fugu_fatal("arrival.zipf_theta must be in [0,1)");
    lambda_ = cfg_.ratePerKcycle / 1000.0;

    if (cfg_.mix == "poisson") {
        mix_ = Mix::Poisson;
    } else if (cfg_.mix == "bursty") {
        mix_ = Mix::Bursty;
        const double d = cfg_.burstDuty;
        if (!(d > 0 && d < 1))
            fugu_fatal("arrival.burst_duty must be in (0,1)");
        if (!(cfg_.burstBoost >= 1))
            fugu_fatal("arrival.burst_boost must be >= 1");
        if (!(cfg_.burstLenKcycles > 0))
            fugu_fatal("arrival.burst_len_kcycles must be positive");
        // Pick on/off rates so the long-run mean equals lambda_:
        // d*lamOn + (1-d)*lamOff == lambda, lamOn == boost*lamOff.
        lamOff_ = lambda_ / (d * cfg_.burstBoost + (1.0 - d));
        lamOn_ = cfg_.burstBoost * lamOff_;
        dwellOn_ = cfg_.burstLenKcycles * 1000.0;
        dwellOff_ = dwellOn_ * (1.0 - d) / d;
        on_ = false;
        stateLeft_ = expDraw(1.0 / dwellOff_);
    } else if (cfg_.mix == "diurnal") {
        mix_ = Mix::Diurnal;
        if (!(cfg_.diurnalAmp >= 0 && cfg_.diurnalAmp < 1))
            fugu_fatal("arrival.diurnal_amp must be in [0,1)");
        if (!(cfg_.diurnalPeriodKcycles > 0))
            fugu_fatal("arrival.diurnal_period_kcycles must be positive");
        lamMax_ = lambda_ * (1.0 + cfg_.diurnalAmp);
        periodCycles_ = cfg_.diurnalPeriodKcycles * 1000.0;
    } else {
        fugu_fatal("unknown arrival.mix '", cfg_.mix,
                   "' (expected poisson, bursty or diurnal)");
    }

    if (cfg_.zipfTheta > 0 && cfg_.keys > 1) {
        zetaN_ = memoZeta(cfg_.keys, cfg_.zipfTheta);
        zeta2_ = zeta(2, cfg_.zipfTheta);
        zipfAlpha_ = 1.0 / (1.0 - cfg_.zipfTheta);
        zipfEta_ =
            (1.0 -
             std::pow(2.0 / static_cast<double>(cfg_.keys),
                      1.0 - cfg_.zipfTheta)) /
            (1.0 - zeta2_ / zetaN_);
    }
}

double
ArrivalProcess::expDraw(double lam)
{
    // real() is in [0,1); 1-u is in (0,1], so the log is finite.
    return -std::log(1.0 - rng_.real()) / lam;
}

Cycle
ArrivalProcess::nextGap()
{
    double gap = 0;
    switch (mix_) {
      case Mix::Poisson:
        gap = expDraw(lambda_);
        break;
      case Mix::Bursty: {
        // Exponential draws are memoryless, so an arrival falling
        // past the current state's end is discarded: advance to the
        // boundary, flip the state, and redraw at the new rate.
        double d = expDraw(on_ ? lamOn_ : lamOff_);
        while (d > stateLeft_) {
            gap += stateLeft_;
            on_ = !on_;
            stateLeft_ = expDraw(1.0 / (on_ ? dwellOn_ : dwellOff_));
            d = expDraw(on_ ? lamOn_ : lamOff_);
        }
        stateLeft_ -= d;
        gap += d;
        break;
      }
      case Mix::Diurnal: {
        // Thinning (Lewis–Shedler): propose at the peak rate, accept
        // with probability lambda(t)/lamMax. The virtual clock t_
        // tracks the proposal process from the generator's start.
        for (;;) {
            const double step = expDraw(lamMax_);
            gap += step;
            t_ += step;
            const double lam =
                lambda_ *
                (1.0 + cfg_.diurnalAmp *
                           std::sin(2.0 * M_PI * t_ / periodCycles_));
            if (rng_.real() * lamMax_ < lam)
                break;
        }
        break;
      }
    }
    return static_cast<Cycle>(gap) + 1;
}

std::uint64_t
ArrivalProcess::nextKey()
{
    if (cfg_.zipfTheta <= 0 || cfg_.keys == 1)
        return keyRng_.uniform(0, cfg_.keys - 1);
    // Gray et al.'s inverse-CDF approximation (the YCSB generator):
    // exact for ranks 0 and 1, closed-form for the tail.
    const double u = keyRng_.real();
    const double uz = u * zetaN_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, cfg_.zipfTheta))
        return 1;
    const std::uint64_t k = static_cast<std::uint64_t>(
        static_cast<double>(cfg_.keys) *
        std::pow(zipfEta_ * u - zipfEta_ + 1.0, zipfAlpha_));
    return k >= cfg_.keys ? cfg_.keys - 1 : k;
}

} // namespace fugu::sim
