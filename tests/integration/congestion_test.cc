/**
 * @file
 * Integration tests of the emergent link-layer congestion behaviour
 * the paper's evaluation reports (Sec. VI-B): replays appear at x8
 * but not at narrow widths, shrink with source throttling (small
 * replay buffers) and vanish with larger port buffers.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

struct RunResult
{
    double gbps;
    double replayFraction;
    std::uint64_t timeouts;
};

RunResult
runDd(unsigned width, std::size_t replay_buf, std::size_t port_buf)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config.upstreamLinkWidth = width;
    desc.config.downstreamLinkWidth = width;
    desc.config.replayBufferSize = replay_buf;
    desc.config.portBufferSize = port_buf;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    RunResult r;
    r.gbps = system.runDd(dd);
    auto &reg = sim.statsRegistry();
    std::uint64_t tx =
        reg.counterValue("system.downLink.down.txTlps") +
        reg.counterValue("system.upLink.down.txTlps");
    std::uint64_t replays =
        reg.counterValue("system.downLink.down.replayedTlps") +
        reg.counterValue("system.upLink.down.replayedTlps");
    r.replayFraction =
        tx ? static_cast<double>(replays) / static_cast<double>(tx)
           : 0.0;
    r.timeouts = reg.counterValue("system.downLink.down.timeouts") +
                 reg.counterValue("system.upLink.down.timeouts");
    return r;
}

} // namespace

class WidthSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(WidthSweep, NarrowLinksSeeNoReplays)
{
    // Paper: "the replay percentage for x2 and x4 configuration is
    // almost zero"; it is exactly zero for x1 and x2 here.
    RunResult r = runDd(GetParam(), 4, 16);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_DOUBLE_EQ(r.replayFraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u));

TEST(CongestionTest, X8OverrunsBuffersAndDropsThroughput)
{
    RunResult x4 = runDd(4, 4, 16);
    RunResult x8 = runDd(8, 4, 16);
    // x8 sees substantial replays; throughput drops below x4
    // (paper Fig. 9b).
    EXPECT_GT(x8.replayFraction, 0.05);
    EXPECT_GT(x8.timeouts, 100u);
    EXPECT_LT(x8.gbps, x4.gbps);
}

TEST(CongestionTest, SmallReplayBufferThrottlesTheSource)
{
    // Paper Fig. 9c: replay buffer 1 produces no timeouts; 4
    // produces many; 1's throughput beats 4's.
    RunResult rp1 = runDd(8, 1, 16);
    RunResult rp4 = runDd(8, 4, 16);
    EXPECT_EQ(rp1.timeouts, 0u);
    EXPECT_GT(rp4.timeouts, 100u);
    EXPECT_GT(rp1.gbps, rp4.gbps);
}

TEST(CongestionTest, LargerPortBuffersRemoveTimeouts)
{
    // Paper Fig. 9d: growing the switch/root port buffers from 16
    // to 28 removes the timeouts and lifts throughput.
    RunResult pb16 = runDd(8, 4, 16);
    RunResult pb28 = runDd(8, 4, 28);
    EXPECT_GT(pb16.timeouts, pb28.timeouts);
    EXPECT_GT(pb28.gbps, pb16.gbps);
    EXPECT_LT(pb28.replayFraction, pb16.replayFraction);
}
