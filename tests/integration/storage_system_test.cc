/**
 * @file
 * End-to-end tests of the paper's validation topology: boot
 * (enumeration + driver probe), dd transfers, and the emergent
 * link-layer behaviour the evaluation section reports.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

const char *const storageJson = PCIESIM_TOPOLOGY_DIR "/storage.json";

} // namespace

TEST(StorageFabric, BootEnumeratesAndProbes)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));
    system.boot();

    const auto &result = system.kernel().enumerate();
    // 3 root-port VP2Ps + switch upstream + 2 switch downstream
    // VP2Ps + the disk = 7 functions.
    EXPECT_EQ(result.functions.size(), 7u);
    EXPECT_TRUE(system.ideDriver().probed());

    // The disk must live on bus 3 (paper's DFS ordering).
    const EnumeratedFunction *disk = result.find(0x8086, 0x7111);
    ASSERT_NE(disk, nullptr);
    EXPECT_EQ(disk->bdf.bus, 3);

    // Bridge windows must nest: RC VP2P window covers the switch
    // upstream VP2P window, which covers the disk BARs.
    AddrRange rc_io = system.rootComplex().downstreamVp2p(0).ioWindow();
    AddrRange sw_io = system.pcieSwitch().upstreamVp2p().ioWindow();
    AddrRange dn_io =
        system.pcieSwitch().downstreamVp2p(0).ioWindow();
    EXPECT_TRUE(rc_io.covers(sw_io));
    EXPECT_TRUE(sw_io.covers(dn_io));
    for (unsigned bar = 0; bar < disk->bars.size(); ++bar) {
        if (!disk->bars[bar].empty()) {
            EXPECT_TRUE(dn_io.covers(disk->bars[bar]))
                << "BAR " << bar;
        }
    }
}

TEST(StorageFabric, SmallDdTransferCompletes)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));

    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20; // 1 MB
    double gbps = system.runDd(dd);

    EXPECT_GT(gbps, 0.1);
    // A Gen2 x1 link cannot exceed 4 Gbps minus TLP overheads.
    EXPECT_LT(gbps, 3.2);
    EXPECT_EQ(system.disk().bytesTransferred(), 1u << 20);
    EXPECT_EQ(Packet::liveCount(), 0u) << "packet leak";
}

TEST(StorageFabric, DeviceLevelThroughputNearGen2X1Line)
{
    // Paper Sec. VI-B: at device level each 4 KB chunk moves at
    // ~3.07 Gbps over a Gen 2 x1 link (64 B payload per 168 ns).
    Simulation sim;
    Fabric system(sim, loadFabricDesc(storageJson));

    DdWorkloadParams dd;
    dd.blockBytes = 4 << 20;
    system.runDd(dd);

    double bytes =
        static_cast<double>(system.disk().bytesTransferred());
    double secs = ticksToSeconds(system.disk().activeTransferTicks());
    double device_gbps = bytes * 8.0 / secs / 1e9;
    // The active-transfer measure includes chunk gaps and barrier
    // tails, so expect it within a loose band of the 3.05 ideal.
    EXPECT_GT(device_gbps, 1.5);
    EXPECT_LT(device_gbps, 3.1);
}
