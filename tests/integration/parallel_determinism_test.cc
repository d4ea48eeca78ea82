/**
 * @file
 * Parallel determinism test: the multi-device topology run with one
 * worker thread and with four must produce bit-identical statistics
 * and the same final tick. This is the engine's non-negotiable
 * contract (DESIGN.md Sec. 10): event order is a pure function of
 * simulated history, never of how the OS interleaved the workers.
 * The bench-level tier-2 gate checks the same property over full
 * JSON exports; this in-process version runs in the tier-1 suite
 * and points at the first divergent stats line when it breaks.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

struct RunResult
{
    double gbps = 0.0;
    Tick endTick = 0;
    std::string stats;
};

/** One seeded multi-device run at the given worker count. The
 *  config keeps every link fault-free so the fabric actually
 *  partitions (one domain per link hop). */
RunResult
threadedRun(unsigned threads)
{
    // multi_device.json widened to eight generators.
    const std::string text = R"({"nodes": [
        {"name": "switch", "kind": "switch", "ports": 8,
         "link": {"name": "upLink"}},
        {"name": "tgen", "kind": "traffic_gen", "count": 8,
         "parent": "switch",
         "link": {"name": "devLink", "width": 1}}]})";
    FabricDesc desc =
        parseFabricDesc(topo::parseJson(text, "<mdev8>"), "<mdev8>");
    desc.config.threads = threads;
    desc.config.upstreamLinkWidth = 16;
    desc.config.linkPropagation = 500_ns;
    desc.config.replayTimeoutScale = 100.0;
    desc.config.ackImmediate = true;
    desc.config.replayBufferSize = 32;
    desc.config.portBufferSize = 64;

    Simulation sim;
    Fabric system(sim, desc);
    RunResult r;
    r.gbps = system.runConcurrentWrites(8, 4, 4096);
    r.endTick = sim.curTick();
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    r.stats = os.str();
    return r;
}

/** First-divergent-line comparison (EXPECT_EQ's diff is quadratic
 *  on dumps this size). */
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

} // namespace

TEST(ParallelDeterminism, OneVsFourThreadsBitIdentical)
{
    RunResult one = threadedRun(1);
    RunResult four = threadedRun(4);

    // The run did something nontrivial on every device link.
    EXPECT_GT(one.gbps, 0.0);
    EXPECT_NE(one.stats.find("system.devLink7"), std::string::npos);

    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.gbps, four.gbps);
    expectIdentical(one.stats, four.stats);
}
