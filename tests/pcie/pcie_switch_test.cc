/**
 * @file
 * Unit tests for the PCI-Express switch (paper Sec. V-B).
 */

#include <gtest/gtest.h>

#include "../common/test_ports.hh"
#include "pci/bridge_header.hh"
#include "pci/config_regs.hh"
#include "pcie/pcie_router.hh"

using namespace pciesim;
using namespace pciesim::test;
using namespace pciesim::literals;

namespace
{

struct SwitchFixture : ::testing::Test
{
    SwitchFixture()
    {
        PcieSwitchParams params;
        params.numDownstreamPorts = 2;
        params.latency = 150_ns;
        params.portBufferSize = 4;
        sw = std::make_unique<PcieSwitch>(sim, "sw", params);

        upSrc.bind(sw->upstreamSlavePort());
        sw->upstreamMasterPort().bind(upSink);
        for (unsigned i = 0; i < 2; ++i) {
            sw->downstreamMaster(i).bind(downSink[i]);
            downSrc[i].bind(sw->downstreamSlave(i));
        }
    }

    void
    programVp2p(Vp2p &vp, Addr base, Addr limit, unsigned pri,
                unsigned sec, unsigned sub)
    {
        ConfigSpace &cs = vp.config();
        BridgeHeader::programBusNumbers(cs, pri, sec, sub);
        BridgeHeader::programMemWindow(cs, base, limit);
        cs.write(cfg::command, 2,
                 cfg::cmdMemEnable | cfg::cmdIoEnable |
                 cfg::cmdBusMaster);
    }

    /** Program the standard test hierarchy: upstream VP2P covers
     *  both downstream windows; internal bus 2; children 3 and 4. */
    void
    programAll()
    {
        programVp2p(sw->upstreamVp2p(), 0x40000000, 0x403fffff, 1, 2,
                    4);
        programVp2p(sw->downstreamVp2p(0), 0x40000000, 0x401fffff, 2,
                    3, 3);
        programVp2p(sw->downstreamVp2p(1), 0x40200000, 0x403fffff, 2,
                    4, 4);
    }

    Simulation sim;
    std::unique_ptr<PcieSwitch> sw;
    RecordingMasterPort upSrc{"upSrc"};
    RecordingSlavePort upSink{"upSink",
                              {AddrRange{0x80000000, 0x90000000}}};
    RecordingSlavePort downSink[2] = {
        RecordingSlavePort{"down0", {}},
        RecordingSlavePort{"down1", {}}};
    RecordingMasterPort downSrc[2] = {RecordingMasterPort{"src0"},
                                      RecordingMasterPort{"src1"}};
};

} // namespace

TEST_F(SwitchFixture, PortTypesInPcieCapability)
{
    auto port_type = [](Vp2p &vp) {
        return (vp.config().raw16(Vp2p::pcieCapOffset +
                                  cfg::pcieCapReg) >> 4) & 0xf;
    };
    EXPECT_EQ(port_type(sw->upstreamVp2p()),
              static_cast<unsigned>(
                  cfg::PciePortType::SwitchUpstream));
    EXPECT_EQ(port_type(sw->downstreamVp2p(0)),
              static_cast<unsigned>(
                  cfg::PciePortType::SwitchDownstream));
}

TEST_F(SwitchFixture, DownwardRequestsRouteByDownstreamWindows)
{
    programAll();
    sim.initialize();

    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40100000, 4));
    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40300000, 4));
    sim.run();
    EXPECT_EQ(downSink[0].requests.size(), 1u);
    EXPECT_EQ(downSink[1].requests.size(), 1u);
    // Store-and-forward latency applies.
    EXPECT_GE(sim.curTick(), 150_ns);
}

TEST_F(SwitchFixture, UpstreamSlaveAcceptsUpstreamVp2pWindow)
{
    // Paper Sec. V-B: "the upstream slave port accepts an address
    // range based on the base and limit register values stored in
    // the upstream VP2P".
    programAll();
    AddrRangeList ranges = sw->upstreamSlavePort().getAddrRanges();
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges.front(), (AddrRange{0x40000000, 0x40400000}));
}

TEST_F(SwitchFixture, DmaFromDownstreamStampedAndForwardedUp)
{
    programAll();
    sim.initialize();

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x80000000, 64);
    EXPECT_TRUE(downSrc[0].sendTimingReq(pkt));
    sim.run();
    ASSERT_EQ(upSink.requests.size(), 1u);
    EXPECT_EQ(pkt->pciBusNumber(), 3); // port 0's secondary bus
}

TEST_F(SwitchFixture, DownwardResponseRoutedByBusNumber)
{
    programAll();
    sim.initialize();

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x80000000, 64);
    downSrc[1].sendTimingReq(pkt); // stamps bus 4
    sim.run();
    ASSERT_EQ(upSink.requests.size(), 1u);

    pkt->makeResponse();
    EXPECT_TRUE(sw->upstreamMasterPort().recvTimingResp(pkt));
    sim.run();
    ASSERT_EQ(downSrc[1].responses.size(), 1u);
    EXPECT_TRUE(downSrc[0].responses.empty());
}

TEST_F(SwitchFixture, ReprogrammedMemWindowsSteerNextRequest)
{
    programAll();
    sim.initialize();

    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40100000, 4));
    sim.run();
    ASSERT_EQ(downSink[0].requests.size(), 1u);

    // Swap the two downstream windows through software config
    // writes: the next request to the same address leaves by port 1.
    auto program_mem = [](Vp2p &vp, Addr base, Addr limit) {
        vp.configWrite(cfg::memoryBase, 2, (base >> 16) & 0xfff0);
        vp.configWrite(cfg::memoryLimit, 2, (limit >> 16) & 0xfff0);
    };
    program_mem(sw->downstreamVp2p(0), 0x40200000, 0x403fffff);
    program_mem(sw->downstreamVp2p(1), 0x40000000, 0x401fffff);
    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40100000, 4));
    sim.run();
    EXPECT_EQ(downSink[0].requests.size(), 1u);
    ASSERT_EQ(downSink[1].requests.size(), 1u);
    EXPECT_EQ(downSink[1].requests[0]->addr(), 0x40100000u);
}

TEST_F(SwitchFixture, ReprogrammedBusNumbersSteerNextResponse)
{
    programAll();
    sim.initialize();

    auto round_trip = [&] {
        PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq,
                                            0x80000000, 4);
        pkt->setPciBusNumber(4);
        EXPECT_TRUE(sw->downstreamSlave(1).recvTimingReq(pkt));
        sim.run();
        pkt->makeResponse();
        EXPECT_TRUE(sw->upstreamMasterPort().recvTimingResp(pkt));
        sim.run();
    };
    round_trip();
    EXPECT_EQ(downSrc[1].responses.size(), 1u);
    EXPECT_TRUE(downSrc[0].responses.empty());

    // Renumber: bus 4 now sits behind port 0, bus 3 behind port 1.
    sw->downstreamVp2p(0).configWrite(cfg::secondaryBus, 1, 4);
    sw->downstreamVp2p(0).configWrite(cfg::subordinateBus, 1, 4);
    sw->downstreamVp2p(1).configWrite(cfg::secondaryBus, 1, 3);
    sw->downstreamVp2p(1).configWrite(cfg::subordinateBus, 1, 3);
    round_trip();
    EXPECT_EQ(downSrc[0].responses.size(), 1u);
    EXPECT_EQ(downSrc[1].responses.size(), 1u);
}

TEST_F(SwitchFixture, ClearedCommandEnableStopsClaiming)
{
    programAll();
    sim.initialize();

    // Peer-to-peer from port 1 into port 0's window goes across...
    downSrc[1].sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                                 0x40100000, 4));
    sim.run();
    ASSERT_EQ(downSink[0].requests.size(), 1u);
    EXPECT_TRUE(upSink.requests.empty());

    // ...until port 0's VP2P stops forwarding; then nothing below
    // claims the address and the next request heads upstream.
    sw->downstreamVp2p(0).configWrite(cfg::command, 2,
                                      cfg::cmdBusMaster);
    downSrc[1].sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                                 0x40100000, 4));
    sim.run();
    EXPECT_EQ(downSink[0].requests.size(), 1u);
    ASSERT_EQ(upSink.requests.size(), 1u);
    EXPECT_EQ(upSink.requests[0]->addr(), 0x40100000u);
}

TEST_F(SwitchFixture, UpwardResponseWithForeignBusGoesUpstream)
{
    programAll();
    sim.initialize();

    // A CPU request went down to port 0; its response carries bus 0
    // and must exit the upstream slave port.
    PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq,
                                        0x40100000, 4);
    pkt->setPciBusNumber(0);
    upSrc.sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(downSink[0].requests.size(), 1u);

    pkt->makeResponse();
    EXPECT_TRUE(sw->downstreamMaster(0).recvTimingResp(pkt));
    sim.run();
    ASSERT_EQ(upSrc.responses.size(), 1u);
}

TEST_F(SwitchFixture, PeerToPeerAcrossDownstreamPorts)
{
    programAll();
    sim.initialize();

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x40200000, 4);
    downSrc[0].sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(downSink[1].requests.size(), 1u);
    EXPECT_TRUE(upSink.requests.empty());
}

TEST_F(SwitchFixture, RefusesWhenPortBufferFull)
{
    programAll();
    downSink[0].refuseRequests = 1000000;
    sim.initialize();

    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(upSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x40000000 + 4 * i, 4)));
    }
    sim.run();
    EXPECT_FALSE(upSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x40001000, 4)));
    EXPECT_EQ(sw->bufferRefusals(), 1u);
}

TEST_F(SwitchFixture, SwitchLatencySweepShiftsDelivery)
{
    // The Fig. 9(a) knob: lower switch latency delivers earlier.
    for (Tick latency : {50_ns, 100_ns, 150_ns}) {
        Simulation s;
        PcieSwitchParams params;
        params.latency = latency;
        PcieSwitch sw2(s, "sw2", params);
        RecordingMasterPort src("src");
        RecordingSlavePort sink("sink", {});
        RecordingMasterPort d0src("d0src");
        RecordingSlavePort d0sink("d0sink", {});
        RecordingMasterPort d1src("d1src");
        RecordingSlavePort d1sink("d1sink", {});
        src.bind(sw2.upstreamSlavePort());
        sw2.upstreamMasterPort().bind(sink);
        sw2.downstreamMaster(0).bind(d0sink);
        d0src.bind(sw2.downstreamSlave(0));
        sw2.downstreamMaster(1).bind(d1sink);
        d1src.bind(sw2.downstreamSlave(1));

        ConfigSpace &cs = sw2.downstreamVp2p(0).config();
        BridgeHeader::programMemWindow(cs, 0x40000000, 0x401fffff);
        cs.write(cfg::command, 2, cfg::cmdMemEnable);
        s.initialize();

        src.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                              0x40000000, 4));
        s.run();
        ASSERT_EQ(d0sink.requests.size(), 1u);
        EXPECT_EQ(s.curTick(), latency);
    }
}

TEST(SwitchContainment, ContainedPortCompletesReadsWithAllOnes)
{
    // DESIGN.md §12: after a FATAL error the downstream port is
    // contained - non-posted requests get an immediate UR/all-ones
    // completion instead of vanishing into the dead subtree.
    Simulation sim;
    PcieSwitchParams params;
    params.numDownstreamPorts = 2;
    params.latency = 150_ns;
    params.portBufferSize = 4;
    params.enableContainment = true;
    auto swp = std::make_unique<PcieSwitch>(sim, "swc", params);
    PcieSwitch *sw = swp.get();
    RecordingMasterPort upSrc{"upSrc"};
    RecordingSlavePort upSink{"upSink",
                              {AddrRange{0x80000000, 0x90000000}}};
    RecordingSlavePort downSink[2] = {
        RecordingSlavePort{"down0", {}},
        RecordingSlavePort{"down1", {}}};
    RecordingMasterPort downSrc[2] = {RecordingMasterPort{"src0"},
                                      RecordingMasterPort{"src1"}};
    upSrc.bind(sw->upstreamSlavePort());
    sw->upstreamMasterPort().bind(upSink);
    for (unsigned i = 0; i < 2; ++i) {
        sw->downstreamMaster(i).bind(downSink[i]);
        downSrc[i].bind(sw->downstreamSlave(i));
    }
    auto programVp2p = [](Vp2p &vp, Addr base, Addr limit,
                          unsigned pri, unsigned sec, unsigned sub) {
        ConfigSpace &cs = vp.config();
        BridgeHeader::programBusNumbers(cs, pri, sec, sub);
        BridgeHeader::programMemWindow(cs, base, limit);
        cs.write(cfg::command, 2,
                 cfg::cmdMemEnable | cfg::cmdIoEnable |
                 cfg::cmdBusMaster);
    };
    programVp2p(sw->upstreamVp2p(), 0x40000000, 0x403fffff, 1, 2, 4);
    programVp2p(sw->downstreamVp2p(0), 0x40000000, 0x401fffff, 2, 3,
                3);
    programVp2p(sw->downstreamVp2p(1), 0x40200000, 0x403fffff, 2, 4,
                4);
    sim.initialize();

    sw->containDownstreamPort(0);
    EXPECT_TRUE(sw->portContained(0));
    EXPECT_FALSE(sw->portContained(1));

    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40100000, 4));
    sim.run();
    // Nothing reached the dead subtree; the UR completion came
    // back all-ones.
    EXPECT_EQ(downSink[0].requests.size(), 0u);
    ASSERT_EQ(upSrc.responses.size(), 1u);
    EXPECT_EQ(upSrc.responses[0]->get<std::uint32_t>(),
              0xffffffffu);
    EXPECT_EQ(sw->urCompletions(), 1u);

    // Posted writes to the contained subtree are silently dropped.
    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::PostedWriteReq,
                                            0x40100000, 4));
    // Upward traffic from the contained port is dropped too.
    downSrc[0].sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                                 0x80000000, 64));
    sim.run();
    EXPECT_EQ(downSink[0].requests.size(), 0u);
    EXPECT_EQ(upSink.requests.size(), 0u);
    EXPECT_GE(sw->containedDrops(), 2u);

    // The neighbouring port is unaffected.
    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40300000, 4));
    sim.run();
    EXPECT_EQ(downSink[1].requests.size(), 1u);

    // Release: traffic flows to port 0 again.
    sw->releaseDownstreamPort(0);
    EXPECT_FALSE(sw->portContained(0));
    upSrc.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq,
                                            0x40100000, 4));
    sim.run();
    EXPECT_EQ(downSink[0].requests.size(), 1u);
}
