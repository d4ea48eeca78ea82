#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <locale>
#include <sstream>

#include "invariant.hh"
#include "json.hh"
#include "logging.hh"
#include "profiler.hh"

namespace pciesim::stats
{

const char *
unitName(Unit u)
{
    switch (u) {
      case Unit::None: return "";
      case Unit::Count: return "count";
      case Unit::Tick: return "tick";
      case Unit::Nanosecond: return "ns";
      case Unit::Second: return "s";
      case Unit::Byte: return "byte";
      case Unit::Bit: return "bit";
      case Unit::BytePerSecond: return "byte/s";
      case Unit::BitPerSecond: return "bit/s";
      case Unit::Ratio: return "ratio";
      case Unit::Percent: return "percent";
    }
    return "";
}

void
Vector::init(std::size_t n)
{
    elems_.assign(n, Counter{});
    subnames_.assign(n, std::string{});
}

void
Vector::subname(std::size_t i, const std::string &name)
{
    subnames_.at(i) = name;
}

const std::string &
Vector::subnameOf(std::size_t i) const
{
    return subnames_.at(i);
}

std::uint64_t
Vector::total() const
{
    std::uint64_t sum = 0;
    for (const Counter &c : elems_)
        sum += c.value();
    return sum;
}

void
Vector::reset()
{
    for (Counter &c : elems_)
        c.reset();
}

void
Distribution::init(double min, double max, std::size_t buckets)
{
    panicIf(buckets == 0, "distribution needs at least one bucket");
    panicIf(max <= min, "distribution max must exceed min");
    bucketMin_ = min;
    bucketMax_ = max;
    buckets_.assign(buckets, 0);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (samples_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += count;
    sum_ += v * static_cast<double>(count);

    if (!buckets_.empty()) {
        double span = bucketMax_ - bucketMin_;
        double pos = (v - bucketMin_) / span *
                     static_cast<double>(buckets_.size());
        auto idx = static_cast<std::ptrdiff_t>(pos);
        idx = std::clamp<std::ptrdiff_t>(
            idx, 0, static_cast<std::ptrdiff_t>(buckets_.size()) - 1);
        buckets_[static_cast<std::size_t>(idx)] += count;
    }
}

double
Distribution::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

namespace
{

unsigned
log2Floor(std::uint64_t v)
{
#if defined(__GNUC__)
    return 63u - static_cast<unsigned>(__builtin_clzll(v));
#else
    unsigned e = 0;
    while (v >>= 1)
        ++e;
    return e;
#endif
}

} // namespace

std::size_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < (1ull << subBucketBits_))
        return static_cast<std::size_t>(v);
    unsigned exp = log2Floor(v);
    std::uint64_t sub = (v >> (exp - subBucketBits_)) &
                        ((1ull << subBucketBits_) - 1);
    return ((exp - subBucketBits_ + 1u) << subBucketBits_) +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::bucketMidpoint(std::size_t idx)
{
    if (idx < (1u << subBucketBits_))
        return idx;
    unsigned block = static_cast<unsigned>(idx >> subBucketBits_);
    std::uint64_t sub = idx & ((1u << subBucketBits_) - 1);
    unsigned exp = block + subBucketBits_ - 1;
    std::uint64_t width = 1ull << (exp - subBucketBits_);
    std::uint64_t low = (1ull << exp) + sub * width;
    return low + (width >> 1);
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (samples_ == 0 || v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    samples_ += count;
    sum_ += v * count;
    buckets_[bucketIndex(v)] += count;
}

double
Histogram::mean() const
{
    return samples_ ? static_cast<double>(sum_) /
                          static_cast<double>(samples_)
                    : 0.0;
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (samples_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_ - 1));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum > target) {
            std::uint64_t mid = bucketMidpoint(i);
            return std::clamp(mid, min_, max_);
        }
    }
    return max_;
}

void
Histogram::reset()
{
    buckets_.fill(0);
    samples_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

void
Registry::checkNew(const std::string &name) const
{
    panicIf(entries_.count(name) != 0, "duplicate stat '", name, "'");
}

void
Registry::add(const std::string &name, Counter *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.counter = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

void
Registry::add(const std::string &name, Scalar *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.scalar = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

void
Registry::add(const std::string &name, Distribution *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.dist = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

void
Registry::add(const std::string &name, Histogram *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.hist = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

void
Registry::add(const std::string &name, Vector *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.vec = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

void
Registry::add(const std::string &name, Formula *stat,
              const std::string &desc, Unit unit)
{
    checkNew(name);
    Entry e;
    e.formula = stat;
    e.desc = desc;
    e.unit = unit;
    entries_[name] = e;
}

bool
Registry::remove(const std::string &name)
{
    return entries_.erase(name) != 0;
}

void
Registry::noteMiss(const std::string &name, const char *kind) const
{
    PCIESIM_AUDIT(false, "stat lookup miss: no ", kind, " named '",
                  name, "'");
    if (warnedMisses_.insert(name).second) {
        warn("stat lookup miss: no ", kind, " named '", name,
             "' (returning 0)");
    }
}

std::uint64_t
Registry::counterValue(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.counter == nullptr) {
        noteMiss(name, "counter");
        return 0;
    }
    return it->second.counter->value();
}

double
Registry::scalarValue(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.scalar == nullptr) {
        noteMiss(name, "scalar");
        return 0.0;
    }
    return it->second.scalar->value();
}

double
Registry::formulaValue(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.formula == nullptr) {
        noteMiss(name, "formula");
        return 0.0;
    }
    return it->second.formula->value();
}

std::optional<std::uint64_t>
Registry::tryCounter(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.counter == nullptr)
        return std::nullopt;
    return it->second.counter->value();
}

std::optional<double>
Registry::tryScalar(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.scalar == nullptr)
        return std::nullopt;
    return it->second.scalar->value();
}

const Histogram *
Registry::histogram(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        return nullptr;
    return it->second.hist;
}

const Vector *
Registry::vector(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        return nullptr;
    return it->second.vec;
}

bool
Registry::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

namespace
{

/** "portN" fallback for unnamed vector elements. */
std::string
elementLabel(const Vector &v, std::size_t i)
{
    const std::string &sub = v.subnameOf(i);
    if (!sub.empty())
        return sub;
    return std::to_string(i);
}

void
writeUnitSuffix(std::ostream &os, Unit unit)
{
    if (unit != Unit::None)
        os << " (" << unitName(unit) << ")";
}

void
writeDescSuffix(std::ostream &os, const std::string &desc)
{
    if (!desc.empty())
        os << "  # " << desc;
    os << "\n";
}

/** A quoted JSON string for the simulator's names and descriptions. */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"' << json::escape(s) << '"';
}

/** Finite, locale-independent JSON number (NaN/inf become 0). */
void
writeJsonDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream tmp;
    tmp.imbue(std::locale::classic());
    tmp << std::setprecision(12) << v;
    os << tmp.str();
}

} // namespace

void
Registry::dump(std::ostream &os) const
{
    for (const auto &[name, e] : entries_) {
        if (e.vec) {
            for (std::size_t i = 0; i < e.vec->size(); ++i) {
                os << std::left << std::setw(56)
                   << (name + "." + elementLabel(*e.vec, i)) << " "
                   << (*e.vec)[i].value();
                writeUnitSuffix(os, e.unit);
                writeDescSuffix(os, e.desc);
            }
            os << std::left << std::setw(56) << (name + ".total")
               << " " << e.vec->total();
            writeUnitSuffix(os, e.unit);
            writeDescSuffix(os, e.desc);
            continue;
        }
        os << std::left << std::setw(56) << name << " ";
        if (e.counter) {
            os << e.counter->value();
        } else if (e.scalar) {
            os << e.scalar->value();
        } else if (e.formula) {
            os << e.formula->value();
        } else if (e.dist) {
            os << "samples=" << e.dist->samples()
               << " mean=" << e.dist->mean()
               << " min=" << e.dist->min()
               << " max=" << e.dist->max();
        } else if (e.hist) {
            os << "samples=" << e.hist->samples()
               << " mean=" << e.hist->mean()
               << " p50=" << e.hist->quantile(0.50)
               << " p95=" << e.hist->quantile(0.95)
               << " p99=" << e.hist->quantile(0.99)
               << " min=" << e.hist->min()
               << " max=" << e.hist->max();
        }
        writeUnitSuffix(os, e.unit);
        writeDescSuffix(os, e.desc);
    }
}

void
Registry::dumpJson(std::ostream &os, std::uint64_t cur_tick,
                   unsigned epoch) const
{
    os << "{\n"
       << "  \"schema\": \"pciesim-stats\",\n"
       << "  \"version\": 1,\n"
       << "  \"curTick\": " << cur_tick << ",\n"
       << "  \"epoch\": " << epoch << ",\n"
       << "  \"stats\": [";
    bool first = true;
    for (const auto &[name, e] : entries_) {
        os << (first ? "\n" : ",\n") << "    {\"name\": ";
        first = false;
        writeJsonString(os, name);
        os << ", \"type\": \"";
        if (e.counter)
            os << "counter";
        else if (e.scalar)
            os << "scalar";
        else if (e.formula)
            os << "formula";
        else if (e.vec)
            os << "vector";
        else if (e.dist)
            os << "distribution";
        else if (e.hist)
            os << "histogram";
        os << "\", \"unit\": \"" << unitName(e.unit)
           << "\", \"desc\": ";
        writeJsonString(os, e.desc);
        if (e.counter) {
            os << ", \"value\": " << e.counter->value();
        } else if (e.scalar) {
            os << ", \"value\": ";
            writeJsonDouble(os, e.scalar->value());
        } else if (e.formula) {
            os << ", \"value\": ";
            writeJsonDouble(os, e.formula->value());
        } else if (e.vec) {
            os << ", \"subnames\": [";
            for (std::size_t i = 0; i < e.vec->size(); ++i) {
                os << (i ? ", " : "");
                writeJsonString(os, elementLabel(*e.vec, i));
            }
            os << "], \"values\": [";
            for (std::size_t i = 0; i < e.vec->size(); ++i)
                os << (i ? ", " : "") << (*e.vec)[i].value();
            os << "], \"total\": " << e.vec->total();
        } else if (e.dist) {
            os << ", \"samples\": " << e.dist->samples()
               << ", \"mean\": ";
            writeJsonDouble(os, e.dist->mean());
            os << ", \"min\": ";
            writeJsonDouble(os, e.dist->min());
            os << ", \"max\": ";
            writeJsonDouble(os, e.dist->max());
        } else if (e.hist) {
            os << ", \"samples\": " << e.hist->samples()
               << ", \"mean\": ";
            writeJsonDouble(os, e.hist->mean());
            os << ", \"min\": " << e.hist->min()
               << ", \"max\": " << e.hist->max()
               << ", \"p50\": " << e.hist->quantile(0.50)
               << ", \"p95\": " << e.hist->quantile(0.95)
               << ", \"p99\": " << e.hist->quantile(0.99);
        }
        os << "}";
    }
    os << "\n  ]";
    if (prof::enabled()) {
        os << ",\n  \"profiler\": ";
        prof::writeJson(os, 16);
    }
    os << "\n}\n";
}

void
Registry::resetAll()
{
    for (auto &[name, e] : entries_) {
        (void)name;
        if (e.counter)
            e.counter->reset();
        else if (e.scalar)
            e.scalar->reset();
        else if (e.dist)
            e.dist->reset();
        else if (e.hist)
            e.hist->reset();
        else if (e.vec)
            e.vec->reset();
        // Formulas are derived; they reset with their inputs.
    }
}

} // namespace pciesim::stats
