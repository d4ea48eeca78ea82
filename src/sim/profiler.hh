/**
 * @file
 * Host-side event profiler: where does the *simulator* spend wall
 * time?
 *
 * PR 4's tracing answers "where do simulated packets go"; this layer
 * answers the complementary question for the host, in the spirit of
 * MGSim's built-in per-component profiling. EventQueue::step()
 * attributes every serviced event to its interned name (and, by the
 * "owner.event" naming convention, to its owning SimObject), counting
 * all of them and timing a subsample with steady_clock to bound
 * overhead. Per name, the first call is always timed and kept apart
 * at weight 1 (it is the coldest); the later calls are timed at
 * random gaps of mean N, drawn from a generator seeded by the
 * name's characters, so the subsample is deterministic and cannot
 * alias onto costs that repeat with the period. Total per-name host
 * time is then estimated as the first call's time plus the sampled
 * time scaled by (count - 1)/sampled.
 *
 * Like tracing, the whole layer compiles out of the hot path under
 * PCIESIM_PROFILING=0 (the notrace preset); with it compiled in but
 * disabled, the cost is a single predictable branch per event.
 *
 * Counts are exact and deterministic; only the nanosecond fields are
 * wall-clock noisy. Consumers that need byte-stable output (the
 * determinism ctests) zero the time fields via setReportTimes(false).
 */

#ifndef PCIESIM_SIM_PROFILER_HH
#define PCIESIM_SIM_PROFILER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

// Compile-time master switch mirroring PCIESIM_TRACING: 0 removes
// the EventQueue::step() hook (CMake option PCIESIM_PROFILING).
#ifndef PCIESIM_PROFILING
#define PCIESIM_PROFILING 1
#endif

namespace pciesim
{
class Event;
} // namespace pciesim

namespace pciesim::prof
{

/** Whether this build carries the profiler hook at all. */
inline constexpr bool compiledIn = PCIESIM_PROFILING != 0;

/**
 * The hot-path gate, read directly by EventQueue::step(). Never
 * true in builds without the hook; set through setEnabled().
 */
extern bool enabledFlag;

/** Aggregated host-time attribution for one event name. */
struct HotSpot
{
    std::string name;        ///< interned event name ("owner.event")
    std::uint64_t count;     ///< exact number of invocations
    /** Later invocations timed: first calls are not among them. */
    std::uint64_t sampled;
    std::uint64_t sampledNs; ///< wall ns across those timed calls
    /** First calls merged in here: one per name per accumulator
     *  (domain), each timed apart and counted at weight 1. */
    std::uint64_t firstCalls = 0;
    std::uint64_t firstNs = 0; ///< wall ns across the first calls

    /** Estimated total host ms: the first calls' time plus the
     *  sampled time scaled to all later calls. */
    double estMs() const;

    /** Estimated mean host ns per invocation. */
    double avgNs() const;
};

/**
 * Enable or disable profiling. Enabling in a build compiled with
 * PCIESIM_PROFILING=0 warns and stays disabled.
 */
void setEnabled(bool on);

inline bool enabled() { return enabledFlag; }

/**
 * Time one in @p period later invocations per event name on
 * average (default 64); 1 times every call.
 */
void setSamplePeriod(std::uint64_t period);

/** A host clock in ns. */
using ClockFn = std::uint64_t (*)();

/**
 * Read @p fn instead of steady_clock for every timed invocation;
 * null restores steady_clock. Lets tests give events exact,
 * deterministic costs. Set it only while no events run.
 */
void setClock(ClockFn fn);

/**
 * Whether reports include wall-time estimates. Off zeroes every
 * time field (counts stay exact) so output is byte-deterministic —
 * used by the bench harness under --no-timing.
 */
void setReportTimes(bool on);
bool reportTimes();

/** Forget all accumulated attribution. */
void reset();

/** Total events profiled since the last reset(). */
std::uint64_t totalEvents();

/** Events attributed to a non-empty event name. */
std::uint64_t attributedEvents();

/**
 * Per-name attribution merged across translation units (names are
 * compared by content, not pointer), sorted hottest first: by
 * estimated time, then count, then name — which degrades to a
 * deterministic count ordering when times are suppressed.
 */
std::vector<HotSpot> hotSpots();

/** hotSpots() re-aggregated by owner (the name up to the last '.'). */
std::vector<HotSpot> byOwner();

/** Human-readable top-N table (events and owners). */
void dumpTable(std::ostream &os, std::size_t top_n = 10);

/**
 * The top-N hot spots as one JSON array value (no trailing
 * newline), for embedding under a "profiler" key in stats.json and
 * bench records.
 */
void writeJson(std::ostream &os, std::size_t top_n);

/**
 * Service @p event under the profiler: count it, time it if it is
 * its name's first call or its name's sampler fires, then run
 * process(). Called from EventQueue::step() only while enabledFlag
 * is set.
 */
void profileProcess(Event *event);

/** @{
 * Shard-awareness for parallel runs (DESIGN.md §10): the engine
 * gives every domain its own accumulator and binds it to the
 * worker's thread while that domain's window runs, so the hot path
 * stays lock-free. All reporting entry points above aggregate the
 * base accumulator plus every domain, merged by name content —
 * counts are exact and thread-count independent. Note the per-name
 * *timing subsample* (first call included) is taken per domain, so
 * sampled/estMs may differ from an unpartitioned run (counts never
 * do).
 */

/** Ensure @p n per-domain accumulators exist (engine start). */
void configureDomains(unsigned n);

/** Bind domain @p d's accumulator to this thread. */
void enterDomain(unsigned d);

/** Unbind this thread's accumulator. */
void leaveDomain();
/** @} */

} // namespace pciesim::prof

#endif // PCIESIM_SIM_PROFILER_HH
