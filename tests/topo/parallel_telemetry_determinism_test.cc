/**
 * @file
 * Telemetry determinism gate (ISSUE 10, satellite 3): with the
 * per-domain flight recorder fully enabled — profiler on, times
 * suppressed — the 256-endpoint fanout256.json fabric must still
 * produce a byte-identical stats.json for 1 and 4 worker threads.
 *
 * This is the strongest form of the observability contract
 * (DESIGN.md §14): every registered telemetry quantity (events per
 * domain, window classification, mailbox matrix, fabric roll-up) is
 * a pure function of simulated history, and every wall-derived
 * Formula reads 0 when times are suppressed, so turning the
 * recorder on cannot perturb the 1-vs-N identity the parallel
 * engine promises. A dump that diverges here means a counter was
 * written from a thread-shape-dependent context.
 *
 * Rides tier2 with the other full-fabric gates (two 256-generator
 * runs).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

/** Restore the process-global profiler switches on scope exit —
 *  gtest shares the process across suites. */
struct ProfGuard
{
    ProfGuard(bool enable, bool times)
    {
        prof::setEnabled(enable);
        prof::setReportTimes(times);
    }
    ~ProfGuard()
    {
        prof::setEnabled(false);
        prof::setReportTimes(true);
    }
};

struct FanoutRun
{
    std::string json;
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
};

/** Run fanout256 with @p threads workers, telemetry recording on,
 *  and return the stats.json dump plus engine totals. */
FanoutRun
runFanout(unsigned threads)
{
    // The profiler is process-global and cumulative; each run must
    // start from a clean slate or the second dump carries the
    // first run's event counts.
    prof::reset();
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json");
    desc.config.threads = threads;
    desc.config.linkPropagation = 500_ns;
    desc.config.ackImmediate = true;
    desc.config.replayTimeoutScale = 100.0;
    Simulation sim;
    Fabric fabric(sim, desc);
    fabric.runDirectWrites(2, 4096);

    FanoutRun r;
    if (ParallelEngine *eng = sim.engine()) {
        r.windows = eng->windowsSynced();
        for (unsigned d = 0; d < eng->numDomains(); ++d)
            r.events += eng->domainEvents(d);
    }
    std::ostringstream os;
    sim.statsRegistry().dumpJson(os, sim.curTick());
    r.json = os.str();
    return r;
}

/** First differing line, for a readable failure message. */
void
expectIdentical(const std::string &a, const std::string &b)
{
    if (a == b)
        return;
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        ++line;
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga || !gb || la != lb) {
            ADD_FAILURE()
                << "telemetry dump diverged between 1 and 4 worker "
                << "threads at line " << line << ":\n  1t: "
                << (ga ? la : "<eof>") << "\n  4t: "
                << (gb ? lb : "<eof>");
            return;
        }
    }
}

TEST(ParallelTelemetryDeterminism, Fanout256OneVsFourThreads)
{
    // Profiler on (the flight recorder's wall subsample arms only
    // under --profile) but times suppressed, as every determinism
    // gate runs: wall-derived Formulas must read 0.
    ProfGuard guard(true, false);

    FanoutRun t1 = runFanout(1);
    FanoutRun t4 = runFanout(4);

    expectIdentical(t1.json, t4.json);

    // The recorder was actually on and recording, not agreeing on
    // an empty block: 273 domains stepped through real windows.
    EXPECT_GT(t1.windows, 0u);
    EXPECT_GT(t1.events, 0u);
    EXPECT_EQ(t1.windows, t4.windows);
    EXPECT_EQ(t1.events, t4.events);
    EXPECT_NE(t1.json.find("system.parallel.domainEvents"),
              std::string::npos);
    EXPECT_NE(t1.json.find("system.fabric.meanWireUtilization"),
              std::string::npos);
}

} // namespace
