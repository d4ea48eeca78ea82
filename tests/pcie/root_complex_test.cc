/**
 * @file
 * Unit tests for the root complex: VP2P registration, window-based
 * request routing, bus-number stamping and response routing
 * (paper Sec. V-A, Fig. 6).
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

struct RcFixture : ::testing::Test
{
    RcFixture() : host(sim, "host")
    {
        RootComplexParams params;
        params.numRootPorts = 3;
        params.latency = 150_ns;
        params.portBufferSize = 4;
        rc = std::make_unique<RootComplex>(sim, "rc", host, params);

        membus.bind(rc->upstreamSlavePort());
        rc->upstreamMasterPort().bind(iocache);
        for (unsigned i = 0; i < 3; ++i) {
            rc->downstreamMaster(i).bind(linkReqSink[i]);
            linkRespSrc[i].bind(rc->downstreamSlave(i));
        }
    }

    /** Program VP2P i with a memory window and bus range. */
    void
    programVp2p(unsigned i, Addr base, Addr limit, unsigned sec,
                unsigned sub)
    {
        ConfigSpace &cs = rc->downstreamVp2p(i).config();
        BridgeHeader::programBusNumbers(cs, 0, sec, sub);
        BridgeHeader::programMemWindow(cs, base, limit);
        cs.write(cfg::command, 2,
                 cfg::cmdMemEnable | cfg::cmdIoEnable |
                 cfg::cmdBusMaster);
    }

    Simulation sim;
    PciHost host;
    std::unique_ptr<RootComplex> rc;
    RecordingMasterPort membus{"membus"};
    RecordingSlavePort iocache{"iocache",
                               {AddrRange{0x80000000, 0x90000000}}};
    RecordingSlavePort linkReqSink[3] = {
        RecordingSlavePort{"link0", {}},
        RecordingSlavePort{"link1", {}},
        RecordingSlavePort{"link2", {}}};
    RecordingMasterPort linkRespSrc[3] = {
        RecordingMasterPort{"src0"}, RecordingMasterPort{"src1"},
        RecordingMasterPort{"src2"}};
};

} // namespace

TEST_F(RcFixture, Vp2psRegisterWithWildcatIds)
{
    // Paper Sec. V-A: device IDs 0x9c90/0x9c92/0x9c94 on bus 0.
    for (unsigned i = 0; i < 3; ++i) {
        PciFunction *fn = host.lookup(
            Bdf{0, static_cast<std::uint8_t>(i), 0});
        ASSERT_NE(fn, nullptr);
        EXPECT_EQ(fn->config().raw16(cfg::vendorId), 0x8086);
    }
    EXPECT_EQ(host.lookup(Bdf{0, 0, 0})->config().raw16(cfg::deviceId),
              0x9c90);
    EXPECT_EQ(host.lookup(Bdf{0, 1, 0})->config().raw16(cfg::deviceId),
              0x9c92);
    EXPECT_EQ(host.lookup(Bdf{0, 2, 0})->config().raw16(cfg::deviceId),
              0x9c94);
}

TEST_F(RcFixture, Vp2pExposesRootPortPcieCapability)
{
    ConfigSpace &cs = rc->downstreamVp2p(0).config();
    EXPECT_EQ(cs.raw8(cfg::capPtr), Vp2p::pcieCapOffset);
    std::uint16_t cap =
        cs.raw16(Vp2p::pcieCapOffset + cfg::pcieCapReg);
    EXPECT_EQ((cap >> 4) & 0xf,
              static_cast<unsigned>(cfg::PciePortType::RootPort));
}

TEST_F(RcFixture, RoutesRequestsByVp2pWindow)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    programVp2p(1, 0x40200000, 0x403fffff, 2, 2);
    programVp2p(2, 0x40400000, 0x405fffff, 3, 3);
    sim.initialize();

    membus.sendTimingReq(
        Packet::makeRequest(MemCmd::ReadReq, 0x40250000, 4));
    membus.sendTimingReq(
        Packet::makeRequest(MemCmd::ReadReq, 0x40000000, 4));
    membus.sendTimingReq(
        Packet::makeRequest(MemCmd::ReadReq, 0x40500000, 4));
    sim.run();

    EXPECT_EQ(linkReqSink[0].requests.size(), 1u);
    EXPECT_EQ(linkReqSink[1].requests.size(), 1u);
    EXPECT_EQ(linkReqSink[2].requests.size(), 1u);
    EXPECT_EQ(linkReqSink[1].requests[0]->addr(), 0x40250000u);
    // The RC latency applies.
    EXPECT_GE(sim.curTick(), 150_ns);
}

TEST_F(RcFixture, UpstreamSlaveStampsBusZero)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    sim.initialize();
    PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq,
                                        0x40000000, 4);
    EXPECT_EQ(pkt->pciBusNumber(), -1);
    membus.sendTimingReq(pkt);
    sim.run();
    EXPECT_EQ(pkt->pciBusNumber(), 0);
}

TEST_F(RcFixture, DmaStampedWithSecondaryBusAndForwardedToIOCache)
{
    programVp2p(1, 0x40200000, 0x403fffff, 2, 4);
    sim.initialize();

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x80001000, 64);
    EXPECT_TRUE(linkRespSrc[1].sendTimingReq(pkt));
    sim.run();
    ASSERT_EQ(iocache.requests.size(), 1u);
    // Stamped with the ingress VP2P's secondary bus number.
    EXPECT_EQ(pkt->pciBusNumber(), 2);
}

TEST_F(RcFixture, DmaResponseRoutedByBusNumber)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    programVp2p(1, 0x40200000, 0x403fffff, 2, 4);
    sim.initialize();

    // DMA up from port 1, response must come back to port 1.
    iocache.autoRespond = true;
    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x80001000, 64);
    linkRespSrc[1].sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(linkRespSrc[1].responses.size(), 1u);
    EXPECT_TRUE(linkRespSrc[0].responses.empty());
}

TEST_F(RcFixture, PioResponseWithBusZeroGoesUpstream)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    sim.initialize();

    // A PIO request goes down port 0...
    PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq,
                                        0x40000010, 4);
    membus.sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(linkReqSink[0].requests.size(), 1u);

    // ... and the device's response (bus 0) exits upstream.
    pkt->makeResponse();
    EXPECT_TRUE(rc->downstreamMaster(0).recvTimingResp(pkt));
    sim.run();
    ASSERT_EQ(membus.responses.size(), 1u);
}

TEST_F(RcFixture, PeerToPeerRequestRoutedAcrossRootPorts)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    programVp2p(1, 0x40200000, 0x403fffff, 2, 2);
    sim.initialize();

    // A device below port 0 targets MMIO of the device below
    // port 1: routed across, not to memory.
    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x40200000, 4);
    linkRespSrc[0].sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(linkReqSink[1].requests.size(), 1u);
    EXPECT_TRUE(iocache.requests.empty());
    // Stamped with port 0's secondary bus.
    EXPECT_EQ(pkt->pciBusNumber(), 1);
}

TEST_F(RcFixture, RefusesWhenPortBufferFull)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    linkReqSink[0].refuseRequests = 1000000;
    sim.initialize();

    // Port buffer capacity is 4 in this fixture.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(membus.sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x40000000 + 4 * i, 4)));
    }
    sim.run();
    EXPECT_FALSE(membus.sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x40000100, 4)));
    EXPECT_EQ(rc->bufferRefusals(), 1u);
}

TEST_F(RcFixture, UnclaimedAddressPanics)
{
    setLoggingThrows(true);
    sim.initialize();
    // No VP2P window programmed: nothing claims the address.
    EXPECT_THROW(membus.sendTimingReq(Packet::makeRequest(
                     MemCmd::ReadReq, 0x40000000, 4)),
                 PanicError);
    setLoggingThrows(false);
}

TEST_F(RcFixture, MemBusRetriedOnceWhenRootPortQueueFrees)
{
    programVp2p(0, 0x40000000, 0x401fffff, 1, 1);
    linkReqSink[0].refuseRequests = 1000000;
    sim.initialize();

    // Fill root port 0's request queue (capacity 4) while its link
    // refuses, so the next MemBus request is refused.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(membus.sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x40000000 + 4 * i, 4)));
    }
    sim.run();
    EXPECT_FALSE(membus.sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x40000100, 4)));
    EXPECT_EQ(membus.reqRetries, 0u);

    // The link accepts again: the queue drains and the MemBus is
    // retried exactly once.
    linkReqSink[0].refuseRequests = 0;
    linkReqSink[0].sendRetryReq();
    sim.run();
    EXPECT_EQ(linkReqSink[0].requests.size(), 4u);
    EXPECT_EQ(membus.reqRetries, 1u);
}

TEST_F(RcFixture, IOCacheRetriedOnceWhenRootPortResponseQueueFrees)
{
    programVp2p(1, 0x40200000, 0x403fffff, 2, 2);
    iocache.autoRespond = true;
    linkRespSrc[1].refuseResponses = 1000000;
    sim.initialize();

    // Four DMA reads fill root port 1's response queue (capacity
    // 4) while its link refuses responses.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(linkRespSrc[1].sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x80001000 + 64 * i, 4)));
    }
    sim.run();
    // The fifth read's response is refused at the full queue.
    EXPECT_TRUE(linkRespSrc[1].sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x80002000, 4)));
    sim.run();
    EXPECT_EQ(iocache.pendingResponses.size(), 1u);
    EXPECT_EQ(iocache.respRetries, 0u);

    // The link accepts again: the IOCache is retried exactly once
    // and every response reaches the link.
    linkRespSrc[1].refuseResponses = 0;
    linkRespSrc[1].sendRetryResp();
    sim.run();
    EXPECT_EQ(iocache.respRetries, 1u);
    EXPECT_TRUE(iocache.pendingResponses.empty());
    EXPECT_EQ(linkRespSrc[1].responses.size(), 5u);
}
