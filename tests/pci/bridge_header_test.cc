/**
 * @file
 * Unit tests for the type-1 bridge header (paper Fig. 7): layout,
 * window encode/decode, and bus-number logic.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "pci/bridge_header.hh"
#include "pci/config_regs.hh"

using namespace pciesim;

namespace
{

ConfigSpace
freshBridge()
{
    ConfigSpace cs;
    BridgeHeader::initialize(cs, 0x8086, 0x9c90);
    return cs;
}

} // namespace

TEST(BridgeHeaderTest, Fig7HeaderLayout)
{
    ConfigSpace cs = freshBridge();
    EXPECT_EQ(cs.raw16(cfg::vendorId), 0x8086);
    EXPECT_EQ(cs.raw16(cfg::deviceId), 0x9c90);
    EXPECT_EQ(cs.raw8(cfg::headerType), cfg::headerTypeBridge);
    std::uint32_t class_code = cs.raw8(cfg::classCode) |
                               (cs.raw8(cfg::classCode + 1) << 8) |
                               (cs.raw8(cfg::classCode + 2) << 16);
    EXPECT_EQ(class_code, cfg::classBridgeP2p);
    // BARs are hard-wired zero ("requires no memory or I/O space",
    // paper Sec. V-A).
    cs.write(cfg::briBar0, 4, 0xffffffff);
    cs.write(cfg::briBar1, 4, 0xffffffff);
    EXPECT_EQ(cs.read(cfg::briBar0, 4), 0u);
    EXPECT_EQ(cs.read(cfg::briBar1, 4), 0u);
}

TEST(BridgeHeaderTest, PowerOnWindowsAreDisabled)
{
    ConfigSpace cs = freshBridge();
    EXPECT_TRUE(BridgeHeader::ioWindow(cs).empty());
    EXPECT_TRUE(BridgeHeader::memWindow(cs).empty());
    EXPECT_TRUE(BridgeHeader::prefWindow(cs).empty());
}

TEST(BridgeHeaderTest, Advertises32BitIoAddressing)
{
    // Needed to reach the platform I/O window at 0x2f000000
    // (paper Sec. V-A uses the I/O Base/Limit Upper registers).
    ConfigSpace cs = freshBridge();
    EXPECT_EQ(cs.raw8(cfg::ioBase) & 0x0f, 0x01);
    EXPECT_EQ(cs.raw8(cfg::ioLimit) & 0x0f, 0x01);
}

TEST(BridgeHeaderTest, BusNumberProgramming)
{
    ConfigSpace cs = freshBridge();
    BridgeHeader::programBusNumbers(cs, 0, 2, 5);
    EXPECT_EQ(BridgeHeader::primaryBus(cs), 0u);
    EXPECT_EQ(BridgeHeader::secondaryBus(cs), 2u);
    EXPECT_EQ(BridgeHeader::subordinateBus(cs), 5u);
}

struct WindowCase
{
    Addr base;
    Addr limit; // inclusive
};

class MemWindowRoundTrip : public ::testing::TestWithParam<WindowCase>
{};

TEST_P(MemWindowRoundTrip, EncodeDecode)
{
    const auto &c = GetParam();
    ConfigSpace cs = freshBridge();
    BridgeHeader::programMemWindow(cs, c.base, c.limit);
    AddrRange w = BridgeHeader::memWindow(cs);
    EXPECT_EQ(w.start(), c.base);
    EXPECT_EQ(w.end(), c.limit + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, MemWindowRoundTrip,
    ::testing::Values(
        WindowCase{0x40000000, 0x400fffff},  // 1 MB
        WindowCase{0x40000000, 0x7fffffff},  // the whole MMIO pool
        WindowCase{0x7ff00000, 0x7fffffff},  // top of the pool
        WindowCase{0x00100000, 0x002fffff})); // low memory

class IoWindowRoundTrip : public ::testing::TestWithParam<WindowCase>
{};

TEST_P(IoWindowRoundTrip, EncodeDecode)
{
    const auto &c = GetParam();
    ConfigSpace cs = freshBridge();
    BridgeHeader::programIoWindow(cs, c.base, c.limit);
    AddrRange w = BridgeHeader::ioWindow(cs);
    EXPECT_EQ(w.start(), c.base);
    EXPECT_EQ(w.end(), c.limit + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, IoWindowRoundTrip,
    ::testing::Values(
        WindowCase{0x2f000000, 0x2f000fff},   // one 4 KB page
        WindowCase{0x2f000000, 0x2fffffff},   // the whole I/O pool
        WindowCase{0x2f7ff000, 0x2f7fffff},
        WindowCase{0x0000f000, 0x0000ffff})); // 16-bit legacy range

TEST(BridgeHeaderTest, WindowsDecodeIndependently)
{
    ConfigSpace cs = freshBridge();
    BridgeHeader::programMemWindow(cs, 0x40000000, 0x401fffff);
    BridgeHeader::programIoWindow(cs, 0x2f000000, 0x2f001fff);
    EXPECT_TRUE(BridgeHeader::memWindow(cs).contains(0x40100000));
    EXPECT_TRUE(BridgeHeader::ioWindow(cs).contains(0x2f001000));
    EXPECT_FALSE(BridgeHeader::memWindow(cs).contains(0x40200000));
    EXPECT_FALSE(BridgeHeader::ioWindow(cs).contains(0x2f002000));
    EXPECT_TRUE(BridgeHeader::prefWindow(cs).empty());
}

TEST(BridgeHeaderTest, SoftwareWritesThroughConfigInterface)
{
    // The enumeration software writes through the maskable write
    // path; the decoders must see those values.
    ConfigSpace cs = freshBridge();
    cs.write(cfg::secondaryBus, 1, 3);
    cs.write(cfg::memoryBase, 2, 0x4000);  // A[31:20] = 0x400
    cs.write(cfg::memoryLimit, 2, 0x4010);
    EXPECT_EQ(BridgeHeader::secondaryBus(cs), 3u);
    AddrRange w = BridgeHeader::memWindow(cs);
    EXPECT_EQ(w.start(), 0x40000000u);
    EXPECT_EQ(w.end(), 0x40200000u);
}

TEST(BridgeHeaderTest, MisalignedProgrammingPanics)
{
    setLoggingThrows(true);
    ConfigSpace cs = freshBridge();
    EXPECT_THROW(BridgeHeader::programMemWindow(cs, 0x40080000,
                                                0x401fffff),
                 PanicError);
    EXPECT_THROW(BridgeHeader::programIoWindow(cs, 0x2f000800,
                                               0x2f000fff),
                 PanicError);
    setLoggingThrows(false);
}
