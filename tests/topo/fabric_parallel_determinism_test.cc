/**
 * @file
 * Large-fabric determinism gate (ISSUE 9, satellite 3): the
 * 256-endpoint fanout256.json fabric — 17 switches, 273 link
 * domains — must produce a byte-identical statistics dump for
 * every worker-thread count once partitioned. This is the
 * builder's headline contract: per-link domains wired by the
 * declarative path obey the same parallel-determinism rules as
 * the hand-built topologies (DESIGN.md Sec. 10).
 *
 * Two notes on the shape of the assertion:
 *  - threads=1 vs threads=4, not threads=0 vs threads=4. Per
 *    SystemConfig::threads, 0 selects the legacy single-queue
 *    scheduler whose same-tick tie order (and modeled interrupt
 *    latency) legitimately differs from the partitioned engine;
 *    the engine's promise — asserted by every existing gate, and
 *    here — is identity across all counts >= 1.
 *  - The link propagation is raised to 500 ns (as in the tier-1
 *    parallel_determinism_test) so the synchronization quantum is
 *    coarse enough to step 273 domains through the run in seconds;
 *    the default 5 ns lookahead needs millions of windows and
 *    exists to be measured by bench_fabric, not asserted on.
 *
 * Runs a 256-generator DMA workload twice, so it rides tier2 with
 * the bench smokes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

/** Run fanout256 with @p threads workers; return gbps + dump. */
std::pair<double, std::string>
runFanout(unsigned threads)
{
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json");
    desc.config.threads = threads;
    desc.config.linkPropagation = 500_ns;
    desc.config.ackImmediate = true;
    desc.config.replayTimeoutScale = 100.0;
    Simulation sim;
    Fabric fabric(sim, desc);
    double gbps = fabric.runDirectWrites(2, 4096);
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    return {gbps, os.str()};
}

/** First differing line, for a readable failure message
 *  (EXPECT_EQ's own diff is quadratic on dumps this size). */
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
                << "stats diverged between 1 and 4 worker threads "
                << "at line " << line << ":\n  1t: "
                << (ga ? la : "<eof>") << "\n  4t: "
                << (gb ? lb : "<eof>");
            return;
        }
    }
}

TEST(FabricParallelDeterminism, Fanout256OneVsFourThreads)
{
    auto [gbps_1t, dump_1t] = runFanout(1);
    auto [gbps_4t, dump_4t] = runFanout(4);

    EXPECT_EQ(gbps_1t, gbps_4t);
    expectIdentical(dump_1t, dump_4t);
    // The dump must actually cover the fabric (not an empty
    // registry agreeing with another empty registry).
    EXPECT_NE(dump_1t.find("system.tgen255"), std::string::npos);
}

} // namespace
