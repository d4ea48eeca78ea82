/**
 * @file
 * Tests for the MSI extension: the interrupt delivery mode the
 * paper's template deliberately disables (Sec. IV), implemented
 * here as posted message TLPs through the fabric.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

FabricDesc
loopback()
{
    return loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic_loopback.json");
}

FabricDesc
msiDesc()
{
    FabricDesc desc = loopback();
    desc.nic.allowMsi = true;
    desc.nicDriver.preferMsi = true;
    return desc;
}

} // namespace

TEST(Msi, DriverEnablesMsiWhenDeviceAllowsIt)
{
    Simulation sim;
    Fabric system(sim, msiDesc());
    system.boot();
    EXPECT_TRUE(system.nicDriver().usingMsi());
    EXPECT_FALSE(system.nicDriver().usingLegacyIrq());
    EXPECT_FALSE(system.nicDriver().sawMsiDisabled());
}

TEST(Msi, PaperTemplateStillForcesIntx)
{
    // Default devices keep the enable bit hard-wired zero; even an
    // MSI-preferring driver must fall back to legacy interrupts.
    Simulation sim;
    FabricDesc desc = loopback();
    desc.nic.allowMsi = false;
    desc.nicDriver.preferMsi = true;
    Fabric system(sim, desc);
    system.boot();
    EXPECT_FALSE(system.nicDriver().usingMsi());
    EXPECT_TRUE(system.nicDriver().sawMsiDisabled());
    EXPECT_TRUE(system.nicDriver().usingLegacyIrq());
}

TEST(Msi, CompletionsDeliveredAsMessageTlps)
{
    Simulation sim;
    Fabric system(sim, msiDesc());
    system.boot();

    unsigned received = 0;
    system.nicDriver().setOnReceive([&](unsigned) { ++received; });
    bool sent = false;
    system.nicDriver().sendFrame(256, [&] { sent = true; });
    sim.run();

    EXPECT_TRUE(sent);
    EXPECT_EQ(received, 1u); // loopback RX also completed
    // The completions arrived as in-band MSI messages, not INTx.
    EXPECT_GE(system.gic().msisReceived(), 1u);
    EXPECT_EQ(Packet::liveCount(), 0u);
}

TEST(Msi, InBandLatencyScalesWithRcLatencyUnlikeIntx)
{
    // An MSI crosses the link and root complex like any TLP, so its
    // delivery cost grows with the RC latency; the INTx message
    // takes the link lookaheads alone and does not. Measure time
    // from sendFrame to the TX-done handler across RC latencies in
    // both modes.
    auto measure = [](bool msi, unsigned rc_ns) {
        Simulation sim;
        FabricDesc desc = loopback();
        desc.nic.allowMsi = msi;
        desc.nicDriver.preferMsi = msi;
        desc.config.rcLatency = nanoseconds(rc_ns);
        Fabric system(sim, desc);
        system.boot();
        Tick start = sim.curTick();
        Tick done_at = 0;
        system.nicDriver().sendFrame(64, [&] {
            done_at = sim.curTick();
        });
        sim.run();
        EXPECT_NE(done_at, 0u);
        return done_at - start;
    };

    Tick msi_slow = measure(true, 300);
    Tick msi_fast = measure(true, 50);
    EXPECT_GT(msi_slow, msi_fast);

    // Both modes complete; MSI pays the fabric crossing.
    Tick intx = measure(false, 150);
    Tick msi = measure(true, 150);
    EXPECT_GT(intx, 0u);
    EXPECT_GT(msi, 0u);
}
