/**
 * @file
 * Large-fabric determinism gate: the 256-endpoint fanout256.json
 * fabric — 17 switches, 273 link domains — must produce a
 * byte-identical statistics dump for every worker-thread count
 * once partitioned, and the same final tick and every statistic
 * outside the engine's "system.parallel.*" block as the single
 * queue. This is the builder's headline contract: per-link domains
 * wired by the declarative path obey the one execution semantics
 * of DESIGN.md Sec. 10, where the thread count changes only wall
 * time.
 *
 * The link propagation is raised to 500 ns (as in the tier-1
 * parallel_determinism_test) so the synchronization quantum is
 * coarse enough to step 273 domains through the run in seconds;
 * the default 5 ns lookahead needs millions of windows and exists
 * to be measured by bench_fabric, not asserted on.
 *
 * Runs a 256-generator DMA workload three times, so it rides tier2
 * with the bench smokes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

struct FanoutRun
{
    double gbps = 0.0;
    Tick endTick = 0;
    std::string dump;
};

/** Run fanout256 with @p threads workers. */
FanoutRun
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
    FanoutRun r;
    r.gbps = fabric.runDirectWrites(2, 4096);
    r.endTick = sim.curTick();
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    r.dump = os.str();
    return r;
}

/** @p dump without the engine's own "system.parallel.*" lines. */
std::string
withoutEngineStats(const std::string &dump)
{
    std::istringstream in(dump);
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.rfind("system.parallel.", 0) != 0)
            kept += line + "\n";
    }
    return kept;
}

/** First differing line, for a readable failure message
 *  (EXPECT_EQ's own diff is quadratic on dumps this size). */
void
expectIdentical(const std::string &a, const std::string &b,
                const char *label_a, const char *label_b)
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
                << "stats diverged between " << label_a << " and "
                << label_b << " at line " << line << ":\n  "
                << label_a << ": " << (ga ? la : "<eof>") << "\n  "
                << label_b << ": " << (gb ? lb : "<eof>");
            return;
        }
    }
}

TEST(FabricParallelDeterminism, Fanout256OneVsFourThreads)
{
    FanoutRun one = runFanout(1);
    FanoutRun four = runFanout(4);

    EXPECT_EQ(one.gbps, four.gbps);
    expectIdentical(one.dump, four.dump, "1t", "4t");
    // The dump must actually cover the fabric (not an empty
    // registry agreeing with another empty registry).
    EXPECT_NE(one.dump.find("system.tgen255"), std::string::npos);

    // The single queue runs the same history.
    FanoutRun zero = runFanout(0);
    EXPECT_EQ(zero.endTick, one.endTick);
    EXPECT_EQ(zero.gbps, one.gbps);
    expectIdentical(zero.dump, withoutEngineStats(one.dump), "0t",
                    "1t");
}

} // namespace
