/**
 * @file
 * Shared harness for the figure/table benches: runs dd on the
 * paper's validation topology and collects the quantities Fig. 9
 * reports (throughput, replay fraction, timeout rate), plus the
 * simulator-performance quantities (wall clock, events/sec) the
 * perf trajectory tracks.
 *
 * Block sizes default to 1/32 of the paper's 64-512 MB sweep so
 * every bench finishes in seconds; pass --paper-scale for the full
 * sizes (the dynamics are steady-state within a few MB, so the
 * shapes are identical; only the fixed per-invocation overhead
 * amortizes differently, and that effect keeps its direction).
 * --smoke shrinks to one tiny block for CI, and --json switches
 * every bench to machine-readable one-object-per-line output
 * suitable for BENCH_*.json trajectory files.
 */

#ifndef PCIESIM_BENCH_BENCH_COMMON_HH
#define PCIESIM_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/trace.hh"
#include "topo/fabric_builder.hh"

namespace bench
{

using namespace pciesim;

/** Workload scale selected on the command line. */
enum class Scale
{
    Smoke,   ///< One tiny block; CI smoke tests.
    Default, ///< 1/32 of the paper sweep; seconds per bench.
    Paper,   ///< The paper's 64-512 MB sweep.
};

/** Parsed common command-line arguments. */
struct BenchArgs
{
    Scale scale = Scale::Default;
    /** Emit one JSON object per line instead of tables. */
    bool json = false;
    /** Zero every wall-clock-derived field (--no-timing) so two
     *  identical runs emit byte-identical output (determinism CI). */
    bool noTiming = false;
    /** Worker threads for parallel execution (--threads N); 0
     *  keeps the single-queue core (DESIGN.md Sec. 10). */
    unsigned threads = 0;
    /** @{ Observability (DESIGN.md Sec. 8). */
    /** Chrome trace-event output path (--trace-out=trace.json). */
    std::string traceOut;
    /** Trace flags to enable (--trace-flags=Link,Dma). */
    std::string traceFlags;
    /** Stats-sampler period in ns (--stats-sample-ns=1000). */
    std::uint64_t statsSampleNs = 0;
    /** Dump/reset stats-epoch period in ns (--stats-dump-ns=...). */
    std::uint64_t statsDumpNs = 0;
    /** stats.json destination (--stats-json=...); each dd run
     *  overwrites it, so the file holds the last run's registry. */
    std::string statsJsonOut;
    /** Host-side event profiler on/off (--profile). */
    bool profile = false;
    /** @} */
};

/**
 * The process-wide copy of the parsed arguments; runDd reads the
 * observability knobs from here so every bench gets --trace-* and
 * --stats-sample-ns without per-bench plumbing.
 */
inline BenchArgs &
globalArgs()
{
    static BenchArgs args;
    return args;
}

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--paper-scale") == 0)
            args.scale = Scale::Paper;
        else if (std::strcmp(arg, "--smoke") == 0)
            args.scale = Scale::Smoke;
        else if (std::strcmp(arg, "--json") == 0)
            args.json = true;
        else if (std::strcmp(arg, "--no-timing") == 0)
            args.noTiming = true;
        else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc)
            args.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (std::strncmp(arg, "--threads=", 10) == 0)
            args.threads = static_cast<unsigned>(
                std::strtoul(arg + 10, nullptr, 10));
        else if (std::strncmp(arg, "--trace-out=", 12) == 0)
            args.traceOut = arg + 12;
        else if (std::strncmp(arg, "--trace-flags=", 14) == 0)
            args.traceFlags = arg + 14;
        else if (std::strncmp(arg, "--stats-sample-ns=", 18) == 0)
            args.statsSampleNs = std::strtoull(arg + 18, nullptr, 10);
        else if (std::strncmp(arg, "--stats-dump-ns=", 16) == 0)
            args.statsDumpNs = std::strtoull(arg + 16, nullptr, 10);
        else if (std::strncmp(arg, "--stats-json=", 13) == 0)
            args.statsJsonOut = arg + 13;
        else if (std::strcmp(arg, "--profile") == 0)
            args.profile = true;
    }
    // The Chrome sink needs its closing bracket even when the bench
    // exits through a fatal() path.
    std::atexit([] { trace::closeSinks(); });
    if (args.profile)
        prof::setEnabled(true);
    // Counts stay exact; only wall-time estimates are noisy, so
    // --no-timing keeps profiled records byte-deterministic too.
    prof::setReportTimes(!args.noTiming);
    globalArgs() = args;
    return args;
}

/** Copy the parsed observability and threading knobs into a system
 *  config. */
inline void
applyObservability(const BenchArgs &args, SystemConfig &config)
{
    config.traceOut = args.traceOut;
    config.traceFlags = args.traceFlags;
    config.statsSampleInterval = nanoseconds(args.statsSampleNs);
    config.statsDumpInterval = nanoseconds(args.statsDumpNs);
    config.statsJsonOut = args.statsJsonOut;
    config.threads = args.threads;
}

/**
 * Parallel-engine telemetry snapshot of one run (DESIGN.md §14).
 * All zeros when the run stayed single-queue (no engine) or the
 * build has PCIESIM_PROFILING=0; every field except syncFraction
 * is a pure function of simulated history, and syncFraction reads
 * 0 under --no-timing — so records stay byte-deterministic.
 */
struct ParallelTelemetry
{
    double domains = 0.0;
    double windows = 0.0;
    double syncFraction = 0.0;
    double loadImbalance = 0.0;
    double mailboxOps = 0.0;
};

inline ParallelTelemetry
readParallelTelemetry(Simulation &sim)
{
    ParallelTelemetry t;
    ParallelEngine *eng = sim.engine();
    if (eng == nullptr)
        return t;
    t.domains = static_cast<double>(eng->numDomains());
    t.windows = static_cast<double>(eng->windowsSynced());
    t.syncFraction = eng->syncOverheadFraction();
    t.loadImbalance = eng->loadImbalance();
    for (unsigned d = 0; d < eng->numDomains(); ++d)
        t.mailboxOps += static_cast<double>(eng->mailboxSent(d));
    return t;
}

/** Result of one dd run. */
struct DdResult
{
    double gbps = 0.0;
    /** Replayed / transmitted TLPs, upstream direction, both
     *  links (the paper's "replay percentage"). */
    double replayFraction = 0.0;
    /** Replay-timer timeouts as a fraction of transmitted TLPs. */
    double timeoutFraction = 0.0;
    std::uint64_t timeouts = 0;
    /** TLPs transmitted on both links' device-side interfaces. */
    std::uint64_t txTlps = 0;
    /** @{ Simulator performance for the run. */
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    std::uint64_t eventsProcessed = 0;
    /** @} */
    /** @{ DMA request-to-response latency percentiles (ns). */
    double latP50Ns = 0.0;
    double latP95Ns = 0.0;
    double latP99Ns = 0.0;
    /** @} */
};

/** Block sizes in bytes for the sweep. */
inline std::vector<std::uint64_t>
blockSizes(Scale scale)
{
    std::vector<std::uint64_t> mb;
    switch (scale) {
      case Scale::Smoke:
        mb = {1};
        break;
      case Scale::Default:
        mb = {2, 4, 8, 16};
        break;
      case Scale::Paper:
        mb = {64, 128, 256, 512};
        break;
    }
    std::vector<std::uint64_t> out;
    for (auto m : mb)
        out.push_back(m << 20);
    return out;
}

inline std::string
blockLabel(std::uint64_t bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lluMB",
                  static_cast<unsigned long long>(bytes >> 20));
    return buf;
}

/**
 * Extra JSON fields for a bench record while the profiler is on:
 * exact event attribution counts plus the top hot spots, compact
 * (single-line) so the one-object-per-line convention holds. Empty
 * when profiling is off, which keeps unprofiled records (and the
 * determinism goldens) byte-identical to previous releases.
 */
inline std::string
profilerRecordFields(std::size_t top_n = 8)
{
    if (!prof::enabled())
        return "";
    std::ostringstream os;
    os << ", \"events_profiled\": " << prof::totalEvents()
       << ", \"events_attributed\": " << prof::attributedEvents()
       << ", \"profiler\": [";
    std::size_t shown = 0;
    for (const prof::HotSpot &h : prof::hotSpots()) {
        if (shown == top_n)
            break;
        char est[32];
        std::snprintf(est, sizeof(est), "%.3f", h.estMs());
        os << (shown++ ? ", " : "") << "{\"name\": \""
           << json::escape(h.name) << "\", \"count\": " << h.count
           << ", \"estMs\": " << est << "}";
    }
    os << "]";
    return os.str();
}

/**
 * Emits one JSON object per line:
 *
 *   {"bench": "fig9b", "config": "x8/16MB", "gbps": ..,
 *    "replayFraction": .., "timeoutFraction": .., "wall_ms": ..,
 *    "events_per_sec": ..}
 *
 * Collecting a bench's --json stdout into BENCH_<name>.json is the
 * perf-trajectory recording convention (see DESIGN.md).
 */
class JsonEmitter
{
  public:
    JsonEmitter(std::string bench, bool enabled)
        : bench_(std::move(bench)), enabled_(enabled)
    {}

    bool enabled() const { return enabled_; }

    /** Record a dd-style result. */
    void
    record(const std::string &config, const DdResult &r)
    {
        if (!enabled_)
            return;
        std::printf("{\"bench\": \"%s\", \"config\": \"%s\", "
                    "\"gbps\": %.6f, \"replayFraction\": %.6f, "
                    "\"timeoutFraction\": %.6f, \"wall_ms\": %.3f, "
                    "\"events_per_sec\": %.0f, "
                    "\"lat_p50_ns\": %.3f, \"lat_p95_ns\": %.3f, "
                    "\"lat_p99_ns\": %.3f%s}\n",
                    json::escape(bench_).c_str(),
                    json::escape(config).c_str(), r.gbps,
                    r.replayFraction, r.timeoutFraction, r.wall_ms,
                    r.events_per_sec, r.latP50Ns, r.latP95Ns,
                    r.latP99Ns, profilerRecordFields().c_str());
    }

    /** Record arbitrary numeric fields (non-dd benches). */
    void
    record(const std::string &config,
           std::initializer_list<std::pair<const char *, double>>
               fields)
    {
        if (!enabled_)
            return;
        std::printf("{\"bench\": \"%s\", \"config\": \"%s\"",
                    json::escape(bench_).c_str(),
                    json::escape(config).c_str());
        for (const auto &[key, value] : fields)
            std::printf(", \"%s\": %.6f", key, value);
        std::printf("%s}\n", profilerRecordFields().c_str());
    }

  private:
    std::string bench_;
    bool enabled_;
};

/** Wall-clock stopwatch for simulator-performance measurement.
 *  Reads as zero under --no-timing, which zeroes every derived
 *  rate field and makes bench output run-to-run byte-identical. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    elapsedMs() const
    {
        if (globalArgs().noTiming)
            return 0.0;
        auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double, std::milli>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Run dd once on the validation topology. */
inline DdResult
runDd(SystemConfig config, std::uint64_t block_bytes)
{
    applyObservability(globalArgs(), config);
    // Each run's record attributes that run only.
    prof::reset();
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = config;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = block_bytes;

    DdResult r;
    WallTimer timer;
    r.gbps = system.runDd(dd);
    r.wall_ms = timer.elapsedMs();
    r.eventsProcessed = sim.eventsProcessed();
    if (r.wall_ms > 0.0) {
        r.events_per_sec = static_cast<double>(r.eventsProcessed) /
                           (r.wall_ms / 1e3);
    }

    auto &reg = sim.statsRegistry();
    r.txTlps = reg.counterValue("system.downLink.down.txTlps") +
               reg.counterValue("system.upLink.down.txTlps");
    r.timeouts = reg.counterValue("system.downLink.down.timeouts") +
                 reg.counterValue("system.upLink.down.timeouts");
    // Stats v2: the fractions are dump-time formulas the topology
    // registers, evaluated with the exact arithmetic this harness
    // used to inline (so old bench tables reproduce bit-for-bit).
    r.replayFraction = reg.formulaValue("system.replayFraction");
    r.timeoutFraction = reg.formulaValue("system.timeoutFraction");
    const stats::Histogram *lat =
        reg.histogram("system.disk.dma.e2eLatency");
    if (lat != nullptr && lat->samples() > 0) {
        r.latP50Ns = ticksToNs(lat->quantile(0.50));
        r.latP95Ns = ticksToNs(lat->quantile(0.95));
        r.latP99Ns = ticksToNs(lat->quantile(0.99));
    }
    return r;
}

} // namespace bench

#endif // PCIESIM_BENCH_BENCH_COMMON_HH
