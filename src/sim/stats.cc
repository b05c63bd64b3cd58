#include "sim/stats.hh"

#include <iomanip>

namespace gpuwalk::sim {

void
Counter::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << " " << value_ << " # " << desc() << "\n";
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << name() << "::mean " << mean() << " # " << desc()
       << "\n";
    os << prefix << name() << "::count " << count_ << " # samples\n";
    if (count_ > 0) {
        os << prefix << name() << "::min " << min_ << " # minimum\n";
        os << prefix << name() << "::max " << max_ << " # maximum\n";
    }
}

std::string
Histogram::bucketLabel(std::size_t i) const
{
    std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1] + 1;
    if (i == bounds_.size())
        return std::to_string(lo) + "+";
    return std::to_string(lo) + "-" + std::to_string(bounds_[i]);
}

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    // Bucket shares print at 4 significant digits; the mean and every
    // later stat keep the caller's precision.
    const std::streamsize precision = os.precision();
    os << prefix << name() << "::total " << total_ << " # " << desc()
       << "\n";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        os << prefix << name() << "::" << bucketLabel(i) << " "
           << counts_[i] << " # " << std::setprecision(4)
           << fraction(i) * 100.0 << "%\n";
    }
    os.precision(precision);
    os << prefix << name() << "::mean " << mean() << " # mean sample\n";
}

void
Counter::dumpJsonValue(std::ostream &os) const
{
    os << value_;
}

void
Average::dumpJsonValue(std::ostream &os) const
{
    os << "{\"mean\": " << mean() << ", \"count\": " << count_;
    if (count_ > 0)
        os << ", \"min\": " << min_ << ", \"max\": " << max_;
    os << "}";
}

void
Histogram::dumpJsonValue(std::ostream &os) const
{
    os << "{\"total\": " << total_ << ", \"mean\": " << mean()
       << ", \"buckets\": {";
    bool first = true;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << bucketLabel(i) << "\": " << counts_[i];
    }
    os << "}}";
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const Stat *s : stats_) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << s->name() << "\": ";
        s->dumpJsonValue(os);
    }
    for (const StatGroup *g : children_) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << g->name() << "\": ";
        g->dumpJson(os);
    }
    os << "}";
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string path = prefix.empty() ? name_ + "."
                                            : prefix + name_ + ".";
    for (const Stat *s : stats_)
        s->dump(os, path);
    for (const StatGroup *g : children_)
        g->dump(os, path);
}

} // namespace gpuwalk::sim
