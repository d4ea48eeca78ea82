/**
 * @file
 * Integration tests for the NIC topology: the e1000e driver probe
 * sequence of paper Sec. IV (capability walk, MSI/MSI-X fallback to
 * legacy interrupts, EEPROM MAC read) and frame exchange between
 * two NICs across the PCI-Express fabric.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

const char *const loopbackJson =
    PCIESIM_TOPOLOGY_DIR "/nic_loopback.json";

} // namespace

TEST(NicFabric, E1000eProbeFallsBackToLegacyInterrupts)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    system.boot();

    E1000eDriver &drv = system.nicDriver();
    EXPECT_TRUE(drv.probed());
    // The paper's template disables PM/MSI/MSI-X; the driver must
    // have observed the hard-wired-zero enable bits and registered
    // a legacy handler.
    EXPECT_TRUE(drv.sawMsiDisabled());
    EXPECT_TRUE(drv.sawMsixDisabled());
    EXPECT_TRUE(drv.usingLegacyIrq());
    EXPECT_TRUE(drv.linkUp());
    // MAC assembled from the three EEPROM words.
    EXPECT_EQ(drv.macAddress(), 0x9a7856341200ull);
}

TEST(NicFabric, EnumerationPlacesNicOnBusOne)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    system.boot();
    const auto &result = system.kernel().enumerate();
    const EnumeratedFunction *nic = result.find(0x8086, 0x10d3);
    ASSERT_NE(nic, nullptr);
    EXPECT_EQ(nic->bdf.bus, 1);
    EXPECT_EQ(nic->bars[0].size(), 128u * 1024);
    // The root port VP2P window covers the NIC BAR.
    EXPECT_TRUE(system.rootComplex().downstreamVp2p(0).memWindow().covers(
        nic->bars[0]));
}

TEST(NicFabric, LoopbackFrameTransmission)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    system.boot();

    unsigned received = 0;
    system.nicDriver().setOnReceive([&](unsigned len) {
        EXPECT_EQ(len, 512u);
        ++received;
    });

    bool sent = false;
    system.nicDriver().sendFrame(512, [&] { sent = true; });
    sim.run();
    EXPECT_TRUE(sent);
    // Loopback: the frame reflects back into the same NIC's RX.
    EXPECT_EQ(received, 1u);
    EXPECT_EQ(system.nic().framesTransmitted(), 1u);
    EXPECT_EQ(system.nic().framesReceived(), 1u);
}

TEST(NicFabric, TwoNicsExchangeFrames)
{
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic.json"));
    system.boot();

    unsigned rx1 = 0;
    system.nicDriver(1).setOnReceive([&](unsigned) { ++rx1; });

    bool sent = false;
    for (unsigned i = 0; i < 4; ++i)
        system.nicDriver(0).sendFrame(1024, [&] { sent = true; });
    sim.run();
    EXPECT_TRUE(sent);
    EXPECT_EQ(system.nic(0).framesTransmitted(), 4u);
    EXPECT_EQ(system.nic(1).framesReceived(), 4u);
    EXPECT_EQ(rx1, 4u);
    EXPECT_EQ(Packet::liveCount(), 0u) << "packet leak";
}

TEST(NicFabric, MmioLatencyScalesWithRcLatency)
{
    // The Table II relationship, as a property: each root complex
    // latency step adds about twice the step to the MMIO read
    // latency (request and response both cross the RC).
    std::vector<Tick> lat;
    for (unsigned rc : {50u, 100u, 150u}) {
        Simulation sim;
        FabricDesc desc = loadFabricDesc(loopbackJson);
        desc.config.rcLatency = nanoseconds(rc);
        Fabric system(sim, desc);
        lat.push_back(system.measureMmioReadLatency(50));
    }
    EXPECT_GT(lat[1], lat[0]);
    EXPECT_GT(lat[2], lat[1]);
    Tick step1 = lat[1] - lat[0];
    Tick step2 = lat[2] - lat[1];
    // 50 ns RC step -> ~100 ns MMIO step, within a tolerance.
    EXPECT_NEAR(static_cast<double>(step1), 100e3, 20e3);
    EXPECT_NEAR(static_cast<double>(step2), 100e3, 20e3);
}

TEST(NicFabric, MmioBaseOfMissingNicPanicsWithIndex)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    system.boot();
    EXPECT_DEATH((void)system.nicMmioBase(1), "NIC 1 not instantiated");
}
