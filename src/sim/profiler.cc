#include "profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <unordered_map>

#include "event.hh"
#include "logging.hh"
#include "rng.hh"

namespace pciesim::prof
{

bool enabledFlag = false;

namespace
{

/** Per-name accumulator, keyed by interned name pointer. */
struct Rec
{
    std::uint64_t count = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampledNs = 0;
    std::uint64_t firstNs = 0;
    /** The invocation index timed next. */
    std::uint64_t nextTimed = 0;
    /** Draws the gaps between timed invocations; seeded from the
     *  name at its first call. */
    Rng gaps{0};
};

/** FNV-1a of @p name's characters: a gap seed that depends on the
 *  name alone, never on where it is interned or which domain or
 *  thread runs it. */
std::uint64_t
nameSeed(const char *name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char *c = name ? name : ""; *c != '\0'; ++c)
        h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
    return h;
}

/** The host clock in ns: steady_clock unless a test swapped it. */
std::uint64_t
steadyNs()
{
    // pciesim-analyze: ignore[wall-clock]: the profiler's host-time
    // subsample; it never feeds simulated time, and stats dumps
    // zero it under setReportTimes(false).
    const auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

// pciesim-analyze: single-threaded: set by tests before any
// profiled run, read-only while events run.
ClockFn clockFn = steadyNs;

struct State
{
    std::unordered_map<const char *, Rec> recs;
    std::uint64_t samplePeriod = 64;
    std::uint64_t total = 0;
    bool reportTimes = true;
};

// Immortal, like the trace sink registry: events may still be
// profiled from atexit-ordered teardown paths.
State &
state()
{
    // pciesim-analyze: single-threaded: configured before the
    // parallel engine starts; workers use their own domain State.
    static State *s = new State;
    return *s;
}

// One accumulator per link domain in parallel runs; the engine
// binds a domain's State to its worker thread for the duration of
// that domain's window, keeping profileProcess() lock-free.
std::vector<State *> &
domainStates()
{
    // pciesim-analyze: single-threaded: grown by
    // configureDomains() before workers start, read-only after.
    static auto *v = new std::vector<State *>;
    return *v;
}

thread_local State *tlsState = nullptr;

/** Run @p fn over the base state and every domain state. */
template <typename Fn>
void
forEachState(Fn fn)
{
    fn(state());
    for (State *s : domainStates())
        fn(*s);
}

/** Merge the pointer-keyed recs by name content, hottest first. */
std::vector<HotSpot>
mergedSpots()
{
    std::map<std::string, HotSpot> byName;
    forEachState([&](const State &st) {
        // pciesim-analyze: ignore[unordered-emit]: merged into the
        // ordered std::map above before anything is emitted.
        for (const auto &[name, r] : st.recs) {
            HotSpot &h = byName[name ? name : ""];
            h.name = name ? name : "";
            h.count += r.count;
            h.sampled += r.sampled;
            h.sampledNs += state().reportTimes ? r.sampledNs : 0;
            ++h.firstCalls;
            h.firstNs += state().reportTimes ? r.firstNs : 0;
        }
    });
    std::vector<HotSpot> out;
    out.reserve(byName.size());
    for (auto &[name, h] : byName) {
        (void)name;
        out.push_back(std::move(h));
    }
    std::sort(out.begin(), out.end(),
              [](const HotSpot &a, const HotSpot &b) {
                  if (a.estMs() != b.estMs())
                      return a.estMs() > b.estMs();
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.name < b.name;
              });
    return out;
}

} // namespace

double
HotSpot::estMs() const
{
    double ns = static_cast<double>(firstNs);
    if (sampled != 0) {
        ns += static_cast<double>(sampledNs) *
              static_cast<double>(count - firstCalls) /
              static_cast<double>(sampled);
    }
    return ns / 1e6;
}

double
HotSpot::avgNs() const
{
    if (count == 0)
        return 0.0;
    return estMs() * 1e6 / static_cast<double>(count);
}

void
setEnabled(bool on)
{
    if (on && !compiledIn) {
        warn("profiler: this build was compiled with "
             "PCIESIM_PROFILING=0; profiling stays disabled");
        return;
    }
    enabledFlag = on;
}

void
setSamplePeriod(std::uint64_t period)
{
    fatalIf(period == 0, "profiler sample period must be >= 1");
    forEachState([&](State &st) { st.samplePeriod = period; });
}

void
setClock(ClockFn fn)
{
    clockFn = fn ? fn : steadyNs;
}

void
setReportTimes(bool on)
{
    forEachState([&](State &st) { st.reportTimes = on; });
}

bool
reportTimes()
{
    return state().reportTimes;
}

void
reset()
{
    forEachState([](State &st) {
        st.recs.clear();
        st.total = 0;
    });
}

std::uint64_t
totalEvents()
{
    std::uint64_t n = 0;
    forEachState([&](const State &st) { n += st.total; });
    return n;
}

std::uint64_t
attributedEvents()
{
    std::uint64_t n = 0;
    forEachState([&](const State &st) {
        // pciesim-analyze: ignore[unordered-emit]: commutative sum;
        // the result is independent of iteration order.
        for (const auto &[name, r] : st.recs) {
            if (name != nullptr && *name != '\0')
                n += r.count;
        }
    });
    return n;
}

void
configureDomains(unsigned n)
{
    auto &doms = domainStates();
    while (doms.size() < n) {
        State *s = new State;
        s->samplePeriod = state().samplePeriod;
        s->reportTimes = state().reportTimes;
        doms.push_back(s);
    }
}

void
enterDomain(unsigned d)
{
    tlsState = domainStates()[d];
}

void
leaveDomain()
{
    tlsState = nullptr;
}

std::vector<HotSpot>
hotSpots()
{
    return mergedSpots();
}

std::vector<HotSpot>
byOwner()
{
    std::map<std::string, HotSpot> owners;
    for (const HotSpot &h : mergedSpots()) {
        std::size_t dot = h.name.rfind('.');
        std::string owner =
            dot == std::string::npos ? h.name : h.name.substr(0, dot);
        HotSpot &o = owners[owner];
        o.name = owner;
        o.count += h.count;
        o.sampled += h.sampled;
        o.sampledNs += h.sampledNs;
        o.firstCalls += h.firstCalls;
        o.firstNs += h.firstNs;
    }
    std::vector<HotSpot> out;
    out.reserve(owners.size());
    for (auto &[name, h] : owners) {
        (void)name;
        out.push_back(std::move(h));
    }
    std::sort(out.begin(), out.end(),
              [](const HotSpot &a, const HotSpot &b) {
                  if (a.estMs() != b.estMs())
                      return a.estMs() > b.estMs();
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.name < b.name;
              });
    return out;
}

void
dumpTable(std::ostream &os, std::size_t top_n)
{
    std::vector<HotSpot> spots = mergedSpots();
    os << "---------- Profiler: top event types by host time "
          "----------\n";
    os << std::right << std::setw(4) << "rank" << std::setw(12)
       << "events" << std::setw(12) << "est_ms" << std::setw(10)
       << "avg_ns" << "  name\n";
    std::size_t shown = 0;
    for (const HotSpot &h : spots) {
        if (shown++ == top_n)
            break;
        os << std::right << std::setw(4) << shown << std::setw(12)
           << h.count << std::setw(12) << std::fixed
           << std::setprecision(3) << h.estMs() << std::setw(10)
           << std::setprecision(1) << h.avgNs() << "  " << h.name
           << "\n";
        os.unsetf(std::ios::fixed);
    }
    std::uint64_t total = totalEvents();
    double attributed =
        total ? 100.0 * static_cast<double>(attributedEvents()) /
                    static_cast<double>(total)
              : 0.0;
    os << " events profiled: " << total << " across " << spots.size()
       << " event types (" << std::fixed << std::setprecision(1)
       << attributed << "% attributed)\n";
    os.unsetf(std::ios::fixed);
}

void
writeJson(std::ostream &os, std::size_t top_n)
{
    std::vector<HotSpot> spots = mergedSpots();
    os << "[";
    std::size_t shown = 0;
    for (const HotSpot &h : spots) {
        if (shown == top_n)
            break;
        os << (shown++ ? ",\n    " : "\n    ");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.3f", h.estMs());
        os << "{\"name\": \"" << h.name << "\", \"count\": "
           << h.count << ", \"sampled\": " << h.sampled
           << ", \"estMs\": " << buf << "}";
    }
    os << (shown ? "\n  ]" : "]");
}

void
profileProcess(Event *event)
{
    State &st = tlsState ? *tlsState : state();
    const char *name = event->name();

    // Decide whether to time from the pre-increment count, but
    // defer the map update until after process(): a nested run()
    // (or any reentrant profiling) could rehash the table under a
    // held reference. The first call is always timed.
    auto it = st.recs.find(name);
    const bool timed = it == st.recs.end() ||
                       it->second.count == it->second.nextTimed;

    std::uint64_t ns = 0;
    if (timed) {
        const std::uint64_t t0 = clockFn();
        event->process();
        ns = clockFn() - t0;
    } else {
        event->process();
    }

    Rec &r = st.recs[name];
    if (timed) {
        // The first call is the name's coldest (cache misses, lazy
        // set-up), so it is kept apart at weight 1; only the later
        // timed calls are scaled up to the later count. Their
        // positions follow random gaps of mean samplePeriod, so a
        // cost that repeats with the period cannot alias onto them.
        if (r.count == 0) {
            r.firstNs = ns;
            r.gaps = Rng(nameSeed(name));
        } else {
            ++r.sampled;
            r.sampledNs += ns;
        }
        r.nextTimed =
            r.count + 1 + r.gaps.next() % (2 * st.samplePeriod - 1);
    }
    ++r.count;
    ++st.total;
}

} // namespace pciesim::prof
