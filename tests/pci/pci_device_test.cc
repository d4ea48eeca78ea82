/**
 * @file
 * Unit tests for the endpoint device base class: BAR sizing
 * semantics, command-register gating, PIO dispatch, and INTx.
 */

#include <gtest/gtest.h>

#include "../common/test_ports.hh"
#include "mem/xbar.hh"
#include "pci/config_regs.hh"
#include "pci/pci_device.hh"

using namespace pciesim;
using namespace pciesim::test;
using namespace pciesim::literals;

namespace
{

/** A device with a tiny register file: reg[offset] = offset + 1. */
class ScratchDevice : public PciDevice
{
  public:
    ScratchDevice(Simulation &sim, const PciDeviceParams &params)
        : PciDevice(sim, "dev", params)
    {}

    using PciDevice::lowerIntx;
    using PciDevice::raiseIntx;

    std::uint64_t
    readReg(unsigned bar, Addr offset, unsigned) override
    {
        lastBar = bar;
        return offset + 1;
    }

    void
    writeReg(unsigned bar, Addr offset, unsigned,
             std::uint64_t value) override
    {
        lastBar = bar;
        writes.push_back({offset, value});
    }

    unsigned lastBar = 99;
    std::vector<std::pair<Addr, std::uint64_t>> writes;
};

PciDeviceParams
twoBarParams()
{
    PciDeviceParams p;
    p.vendorId = 0x8086;
    p.deviceId = 0x10d3;
    p.classCode = 0x020000;
    p.bars = {BarSpec{0x1000, false}, BarSpec{32, true}};
    p.pioLatency = nanoseconds(30);
    return p;
}

} // namespace

TEST(PciDeviceTest, HeaderFieldsFromParams)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    EXPECT_EQ(dev.configRead(cfg::vendorId, 2), 0x8086u);
    EXPECT_EQ(dev.configRead(cfg::deviceId, 2), 0x10d3u);
    EXPECT_EQ(dev.configRead(cfg::headerType, 1),
              cfg::headerTypeEndpoint);
    EXPECT_EQ(dev.configRead(cfg::interruptPin, 1), 1u);
}

TEST(PciDeviceTest, BarSizingProtocol)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());

    // Memory BAR: write all-ones, read back the size mask.
    dev.configWrite(cfg::bar0, 4, 0xffffffff);
    EXPECT_EQ(dev.configRead(cfg::bar0, 4), 0xfffff000u);

    // I/O BAR: the I/O space flag is set in bit 0.
    dev.configWrite(cfg::bar1, 4, 0xffffffff);
    EXPECT_EQ(dev.configRead(cfg::bar1, 4), 0xffffffe0u | 0x1u);

    // Unimplemented BARs read as zero.
    dev.configWrite(cfg::bar2, 4, 0xffffffff);
    EXPECT_EQ(dev.configRead(cfg::bar2, 4), 0u);
}

TEST(PciDeviceTest, BarAssignmentAndDecode)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    dev.configWrite(cfg::bar0, 4, 0x40000000);
    dev.configWrite(cfg::bar1, 4, 0x2f000000 | 1);
    EXPECT_EQ(dev.barAddr(0), 0x40000000u);
    EXPECT_EQ(dev.barAddr(1), 0x2f000000u);

    // Ranges are gated by the command register.
    EXPECT_TRUE(dev.barRange(0).empty());
    dev.configWrite(cfg::command, 2,
                    cfg::cmdMemEnable | cfg::cmdIoEnable);
    EXPECT_EQ(dev.barRange(0),
              (AddrRange{0x40000000, 0x40001000}));
    EXPECT_EQ(dev.barRange(1),
              (AddrRange{0x2f000000, 0x2f000020}));
    EXPECT_TRUE(dev.memEnabled());
    EXPECT_TRUE(dev.ioEnabled());
    EXPECT_FALSE(dev.busMaster());
}

TEST(PciDeviceTest, NarrowBarWriteLeavesBarAsIs)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    dev.configWrite(cfg::bar0, 4, 0x40000000);
    dev.configWrite(cfg::bar0, 2, 0x1234);
    dev.configWrite(cfg::bar0 + 2, 2, 0x5000);
    EXPECT_EQ(dev.configRead(cfg::bar0, 4), 0x40000000u);
    EXPECT_EQ(dev.barAddr(0), 0x40000000u);
}

TEST(PciDeviceTest, XBarFollowsReprogrammedBarAndCommand)
{
    // A crossbar routes by its peers' ranges, which here follow the
    // device's BAR and command register; reprogramming either at
    // run time must steer the very next packet.
    Simulation sim;
    XBar xbar(sim, "xbar");
    ScratchDevice dev(sim, twoBarParams());
    RecordingMasterPort cpu("cpu");
    RecordingSlavePort other("other");
    RecordingSlavePort dma_sink("dmaSink");
    cpu.bind(xbar.addSlavePort("cpuSlave"));
    xbar.addMasterPort("devMaster").bind(dev.pioPort());
    MasterPort &fallback = xbar.addMasterPort("otherMaster");
    fallback.bind(other);
    xbar.setDefaultPort(fallback);
    dev.dmaPort().bind(dma_sink);

    dev.configWrite(cfg::bar0, 4, 0x40000000);
    dev.configWrite(cfg::command, 2, cfg::cmdMemEnable);
    sim.initialize();

    auto read = [&](Addr addr) {
        cpu.sendTimingReq(Packet::makeRequest(MemCmd::ReadReq, addr, 4));
        sim.run();
    };
    read(0x40000010);
    EXPECT_EQ(cpu.responses.size(), 1u);
    EXPECT_TRUE(other.requests.empty());

    // Move the BAR: the old address falls to the default port and
    // the new one reaches the device.
    dev.configWrite(cfg::bar0, 4, 0x50000000);
    read(0x40000010);
    ASSERT_EQ(other.requests.size(), 1u);
    EXPECT_EQ(other.requests[0]->addr(), 0x40000010u);
    read(0x50000010);
    ASSERT_EQ(cpu.responses.size(), 2u);
    EXPECT_EQ(cpu.responses[1]->addr(), 0x50000010u);

    // Clear the memory enable: the BAR stops decoding.
    dev.configWrite(cfg::command, 2, 0);
    read(0x50000010);
    ASSERT_EQ(other.requests.size(), 2u);
    EXPECT_EQ(other.requests[1]->addr(), 0x50000010u);
    EXPECT_EQ(cpu.responses.size(), 2u);
}

TEST(PciDeviceTest, PioReadReachesRegisterFile)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    RecordingMasterPort cpu("cpu");
    RecordingMasterPort dma_peer("dmaPeer");
    RecordingSlavePort dma_sink("dmaSink");
    cpu.bind(dev.pioPort());
    dev.dmaPort().bind(dma_sink);

    dev.configWrite(cfg::bar0, 4, 0x40000000);
    dev.configWrite(cfg::command, 2, cfg::cmdMemEnable);
    sim.initialize();

    PacketPtr p = Packet::makeRequest(MemCmd::ReadReq, 0x40000010, 4);
    EXPECT_TRUE(cpu.sendTimingReq(p));
    sim.run();
    ASSERT_EQ(cpu.responses.size(), 1u);
    EXPECT_EQ(cpu.responses[0]->get<std::uint32_t>(), 0x11u);
    EXPECT_EQ(dev.lastBar, 0u);
    EXPECT_EQ(sim.curTick(), nanoseconds(30)); // pioLatency
}

TEST(PciDeviceTest, PioWriteCarriesValue)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    RecordingMasterPort cpu("cpu");
    RecordingSlavePort dma_sink("dmaSink");
    cpu.bind(dev.pioPort());
    dev.dmaPort().bind(dma_sink);
    dev.configWrite(cfg::bar1, 4, 0x2f000000 | 1);
    dev.configWrite(cfg::command, 2, cfg::cmdIoEnable);
    sim.initialize();

    PacketPtr p = Packet::makeRequest(MemCmd::WriteReq, 0x2f000004, 2);
    p->set<std::uint16_t>(0xbeef);
    cpu.sendTimingReq(p);
    sim.run();
    ASSERT_EQ(dev.writes.size(), 1u);
    EXPECT_EQ(dev.writes[0].first, 0x4u);
    EXPECT_EQ(dev.writes[0].second, 0xbeefu);
    EXPECT_EQ(dev.lastBar, 1u);
    ASSERT_EQ(cpu.responses.size(), 1u);
    EXPECT_EQ(cpu.responses[0]->cmd(), MemCmd::WriteResp);
}

TEST(PciDeviceTest, IntxFollowsSinkAndDisableBit)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    bool line = false;
    dev.setIntxSink([&](bool v) { line = v; });

    dev.raiseIntx();
    EXPECT_TRUE(line);
    EXPECT_NE(dev.configRead(cfg::status, 2) & cfg::statusIntx, 0u);
    dev.lowerIntx();
    EXPECT_FALSE(line);
    EXPECT_EQ(dev.configRead(cfg::status, 2) & cfg::statusIntx, 0u);

    // With INTx disabled in the command register, raise is a no-op.
    dev.configWrite(cfg::command, 2, cfg::cmdIntxDisable);
    dev.raiseIntx();
    EXPECT_FALSE(line);
}

TEST(PciDeviceTest, InterruptLineIsSoftwareWritable)
{
    Simulation sim;
    ScratchDevice dev(sim, twoBarParams());
    dev.configWrite(cfg::interruptLine, 1, 42);
    EXPECT_EQ(dev.configRead(cfg::interruptLine, 1), 42u);
}

TEST(PciDeviceTest, BadBarSizeIsFatal)
{
    setLoggingThrows(true);
    Simulation sim;
    PciDeviceParams p;
    p.bars = {BarSpec{48, false}}; // not a power of two
    EXPECT_THROW(ScratchDevice dev(sim, p), FatalError);
    PciDeviceParams p2;
    p2.bars = {BarSpec{8, false}}; // below the 16 B minimum
    EXPECT_THROW(ScratchDevice dev(sim, p2), FatalError);
    setLoggingThrows(false);
}
