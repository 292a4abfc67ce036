/**
 * @file
 * Lightweight statistics framework.
 *
 * Modules declare named statistics inside a StatGroup; groups nest, and
 * the whole tree can be dumped in a stable, grep-friendly text format.
 * Only the types the experiments need are provided: Scalar counters and
 * Distributions (count/mean/min/max).
 */

#ifndef FUGU_SIM_STATS_HH
#define FUGU_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace fugu
{

class StatGroup;

/** Base class for a single named statistic. */
class Stat
{
  public:
    Stat(StatGroup *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    virtual void print(std::ostream &os, const std::string &prefix)
        const = 0;
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A simple additive counter / value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { value_ = 0; }

  private:
    double value_ = 0;
};

/** Tracks count, sum, min, max, mean of samples. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0; }
    double minValue() const { return count_ ? min_ : 0; }
    double maxValue() const { return count_ ? max_ : 0; }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { count_ = 0; sum_ = 0; min_ = 0; max_ = 0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * The plain-value core of a log-bucketed histogram: copyable, default
 * comparable, and mergeable, so latency distributions can cross
 * machine/trial boundaries (RunStats carries them, runTrials merges
 * them) without the Stat registration machinery. Samples are
 * non-negative; each power-of-two octave is split into 4 sub-buckets,
 * so the quantile error is bounded by ~25% of the value — plenty for
 * latency distributions spanning decades. Exact count/sum/min/max are
 * kept alongside.
 */
struct HistogramData
{
    /** 64 octaves x 4 sub-buckets covers the whole u64 cycle range. */
    static constexpr unsigned kSub = 4;
    static constexpr unsigned kBuckets = 64 * kSub;

    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::uint64_t buckets[kBuckets] = {};

    void sample(double v);

    /**
     * Fold another histogram into this one: bucket-wise addition plus
     * exact count/sum/min/max combination. Merging histograms of two
     * sample populations yields exactly the histogram of their
     * concatenation, so per-trial (or per-node) distributions
     * aggregate without losing percentile fidelity.
     */
    void merge(const HistogramData &o);

    /** Value at percentile @p p in [0,100] (upper bucket edge). */
    double percentile(double p) const;

    double mean() const { return count ? sum / count : 0; }
    double minValue() const { return count ? min : 0; }
    double maxValue() const { return count ? max : 0; }

    bool operator==(const HistogramData &o) const = default;

    static unsigned bucketOf(double v);
    static double bucketUpperEdge(unsigned b);
};

/** A HistogramData registered as a named statistic in a StatGroup. */
class Histogram : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v) { d_.sample(v); }

    /** Fold another histogram's samples into this one. */
    void merge(const HistogramData &o) { d_.merge(o); }
    void merge(const Histogram &o) { d_.merge(o.d_); }

    /** The copyable sample distribution. */
    const HistogramData &data() const { return d_; }

    std::uint64_t count() const { return d_.count; }
    double sum() const { return d_.sum; }
    double mean() const { return d_.mean(); }
    double minValue() const { return d_.minValue(); }
    double maxValue() const { return d_.maxValue(); }

    /** Value at percentile @p p in [0,100] (upper bucket edge). */
    double percentile(double p) const { return d_.percentile(p); }

    void print(std::ostream &os, const std::string &prefix) const override;
    void reset() override { d_ = HistogramData{}; }

  private:
    HistogramData d_;
};

/**
 * A named collection of statistics and child groups. Groups do not own
 * their stats (stats are members of the owning module); they hold
 * non-owning registration pointers, so a group must outlive its stats'
 * registrations or be torn down together with them.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    /** Dump this group and all children. */
    void print(std::ostream &os, const std::string &prefix = "") const;

    /** Reset all stats in this group and children. */
    void resetAll();

  private:
    friend class Stat;

    void registerStat(Stat *s) { stats_.push_back(s); }
    void unregisterChild(StatGroup *g);

    std::string name_;
    StatGroup *parent_ = nullptr;
    std::vector<Stat *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace fugu

#endif // FUGU_SIM_STATS_HH
