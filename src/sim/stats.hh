/**
 * @file
 * Lightweight statistics framework.
 *
 * Components declare statistics as members and register them with a
 * StatGroup, which provides hierarchical naming and dumping.
 * The design follows gem5's stats package in spirit: stats are cheap to
 * update on the hot path and formatted only at dump time.
 */

#ifndef GPUWALK_SIM_STATS_HH
#define GPUWALK_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace gpuwalk::sim {

/** Base class for all statistics: a named, documented value. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~Stat() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Writes "name value # desc" line(s) to @p os. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Writes this stat's value as a JSON fragment (no name). */
    virtual void dumpJsonValue(std::ostream &os) const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A monotonically increasing event counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max over sampled values. */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * A histogram over explicit bucket upper bounds.
 *
 * Buckets are defined by a sorted vector of inclusive upper bounds; a
 * final overflow bucket catches everything above the last bound. This
 * matches the paper's Figure 3 presentation (1-16, 17-32, ..., 81-256).
 * The histogram also keeps the exact sum of its samples, so it carries
 * its own mean.
 */
class Histogram : public Stat
{
  public:
    Histogram(std::string name, std::string desc,
              std::vector<std::uint64_t> upper_bounds)
        : Stat(std::move(name), std::move(desc)),
          bounds_(std::move(upper_bounds)),
          counts_(bounds_.size() + 1, 0)
    {
        GPUWALK_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
                       "histogram bounds must be sorted");
    }

    void
    sample(std::uint64_t v, std::uint64_t weight = 1)
    {
        auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
        counts_[static_cast<std::size_t>(it - bounds_.begin())] += weight;
        total_ += weight;
        sum_ += v * weight;
    }

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t total() const { return total_; }

    /** Mean sample value (0 if no samples). */
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /** Fraction of samples in bucket @p i (0 if no samples). */
    double
    fraction(std::size_t i) const
    {
        return total_ ? static_cast<double>(counts_.at(i)) / total_ : 0.0;
    }

    /** Human-readable "lo-hi" label of bucket @p i. */
    std::string bucketLabel(std::size_t i) const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJsonValue(std::ostream &os) const override;

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * A named collection of statistics.
 *
 * Groups hold non-owning pointers: the convention is that a component
 * declares its stats as data members and registers them in its
 * constructor, so the stats outlive the registration.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Registers @p stat; the group does not take ownership. */
    void add(Stat &stat) { stats_.push_back(&stat); }

    /** Registers a child group (non-owning). */
    void addChild(StatGroup &child) { children_.push_back(&child); }

    const std::string &name() const { return name_; }

    /** Dumps all stats, prefixing names with the group path. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Dumps the group as a JSON object: stats become "name": value
     * members and child groups become nested objects. Machine-readable
     * companion to dump() for experiment post-processing.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::string name_;
    std::vector<Stat *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace gpuwalk::sim

#endif // GPUWALK_SIM_STATS_HH
