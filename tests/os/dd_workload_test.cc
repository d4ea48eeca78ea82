/**
 * @file
 * Unit tests for the dd workload model and the IDE driver's command
 * splitting, on the validation topology.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

const char *const storageJson = PCIESIM_TOPOLOGY_DIR "/storage.json";

} // namespace

TEST(IdeDriverTest, SplitsRequestsIntoPrdSizedCommands)
{
    // 1 MB = 16 commands of 128 sectors (the 64 KB PRD limit).
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));
    system.runDd([] {
        DdWorkloadParams dd;
        dd.blockBytes = 1 << 20;
        return dd;
    }());
    EXPECT_EQ(system.ideDriver().commandsIssued(), 16u);
    EXPECT_EQ(system.disk().commandsCompleted(), 16u);
}

TEST(IdeDriverTest, OddSizesStillRoundTrip)
{
    // A non-power-of-two sector count: 65 KB = 130 sectors =
    // one 128-sector command plus a 2-sector tail command.
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));
    DdWorkloadParams dd;
    dd.blockBytes = 130 * 512;
    system.runDd(dd);
    EXPECT_EQ(system.ideDriver().commandsIssued(), 2u);
    EXPECT_EQ(system.disk().bytesTransferred(), 130u * 512);
}

TEST(DdWorkloadTest, MultipleBlocksAccumulate)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));
    system.boot();

    DdWorkloadParams dd;
    dd.blockBytes = 256 * 1024;
    dd.count = 3;
    DdWorkload workload(system.kernel(), system.ideDriver(), dd);
    bool done = false;
    workload.run([&] { done = true; });
    sim.run();

    EXPECT_TRUE(done);
    EXPECT_TRUE(workload.finished());
    EXPECT_EQ(workload.bytesTransferred(), 3u * 256 * 1024);
    EXPECT_EQ(system.disk().bytesTransferred(), 3u * 256 * 1024);
    EXPECT_GT(workload.throughputGbps(), 0.1);
}

TEST(DdWorkloadTest, OverheadLowersReportedThroughput)
{
    auto run = [](Tick invocation_overhead) {
        Simulation sim;
        Fabric system(sim, loadFabricDesc(storageJson));
        DdWorkloadParams dd;
        dd.blockBytes = 256 * 1024;
        dd.invocationOverhead = invocation_overhead;
        return system.runDd(dd);
    };
    double cheap = run(0);
    double costly = run(2_ms);
    EXPECT_GT(cheap, costly);
}

TEST(DdWorkloadTest, LargerBlocksAmortizeFixedCosts)
{
    auto run = [](std::uint64_t bytes) {
        Simulation sim;
        Fabric system(sim, loadFabricDesc(storageJson));
        DdWorkloadParams dd;
        dd.blockBytes = bytes;
        return system.runDd(dd);
    };
    // The paper's Fig. 9 block-size trend, as a property.
    EXPECT_GT(run(4 << 20), run(1 << 20));
}

TEST(DdWorkloadTest, ElapsedMatchesThroughput)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));
    DdWorkloadParams dd;
    dd.blockBytes = 512 * 1024;
    double gbps = system.runDd(dd);
    (void)gbps;

    // throughput = bytes * 8 / elapsed must be self-consistent.
    DdWorkload workload(system.kernel(), system.ideDriver(), dd);
    bool done = false;
    workload.run([&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
    double recomputed = static_cast<double>(
                            workload.bytesTransferred()) * 8.0 /
                        ticksToSeconds(workload.elapsed()) / 1e9;
    EXPECT_NEAR(workload.throughputGbps(), recomputed, 1e-9);
}
