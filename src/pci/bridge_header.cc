#include "bridge_header.hh"

#include "pci/config_regs.hh"
#include "sim/logging.hh"

namespace pciesim
{

void
BridgeHeader::initialize(ConfigSpace &space, std::uint16_t vendor,
                         std::uint16_t device)
{
    space.init16(cfg::vendorId, vendor);
    space.init16(cfg::deviceId, device);
    space.init24(cfg::classCode, cfg::classBridgeP2p);
    space.init8(cfg::headerType, cfg::headerTypeBridge);

    // Command register: forwarding from secondary to primary and
    // bus mastering for downstream DMA are software controlled
    // (paper Sec. V-A describes setting these bits).
    space.mask16(cfg::command,
                 cfg::cmdIoEnable | cfg::cmdMemEnable |
                 cfg::cmdBusMaster);

    // BARs hard-wired to zero: no mask32, reads return 0.

    // Bus numbers: software configured, initialised to 0.
    space.mask8(cfg::primaryBus, 0xff);
    space.mask8(cfg::secondaryBus, 0xff);
    space.mask8(cfg::subordinateBus, 0xff);
    space.mask8(cfg::secLatencyTimer, 0xff);

    // I/O base/limit: low nibble reads 0x1 = 32-bit I/O addressing
    // supported (needed to reach 0x2f000000, paper Sec. V-A);
    // the upper nibble (A[15:12]) is software writable.
    space.init8(cfg::ioBase, 0x01);
    space.init8(cfg::ioLimit, 0x01);
    space.mask8(cfg::ioBase, 0xf0);
    space.mask8(cfg::ioLimit, 0xf0);
    space.mask16(cfg::ioBaseUpper16, 0xffff);
    space.mask16(cfg::ioLimitUpper16, 0xffff);
    // Power-on: base > limit (forwards nothing). With base and
    // limit both zero the window would cover [0, 0xfff]; set
    // limit's writable bits so software decides, but initialise
    // base above limit.
    space.init8(cfg::ioBase, 0xf1);
    space.init8(cfg::ioLimit, 0x01);

    // Memory base/limit: bits 15:4 = A[31:20], software writable.
    space.mask16(cfg::memoryBase, 0xfff0);
    space.mask16(cfg::memoryLimit, 0xfff0);
    space.init16(cfg::memoryBase, 0xfff0);
    space.init16(cfg::memoryLimit, 0x0000);

    // Prefetchable window: supported (64-bit capable), disabled.
    space.mask16(cfg::prefMemBase, 0xfff0);
    space.mask16(cfg::prefMemLimit, 0xfff0);
    space.init16(cfg::prefMemBase, 0xfff1);
    space.init16(cfg::prefMemLimit, 0x0001);
    space.mask32(cfg::prefBaseUpper32, 0xffffffff);
    space.mask32(cfg::prefLimitUpper32, 0xffffffff);

    space.mask16(cfg::bridgeControl, 0x0fff);
    space.mask8(cfg::interruptLine, 0xff);
}

unsigned
BridgeHeader::primaryBus(const ConfigSpace &space)
{
    return space.raw8(cfg::primaryBus);
}

unsigned
BridgeHeader::secondaryBus(const ConfigSpace &space)
{
    return space.raw8(cfg::secondaryBus);
}

unsigned
BridgeHeader::subordinateBus(const ConfigSpace &space)
{
    return space.raw8(cfg::subordinateBus);
}

AddrRange
BridgeHeader::ioWindow(const ConfigSpace &space)
{
    Addr base =
        (static_cast<Addr>(space.raw16(cfg::ioBaseUpper16)) << 16) |
        (static_cast<Addr>(space.raw8(cfg::ioBase) & 0xf0) << 8);
    Addr limit =
        (static_cast<Addr>(space.raw16(cfg::ioLimitUpper16)) << 16) |
        (static_cast<Addr>(space.raw8(cfg::ioLimit) & 0xf0) << 8) |
        0xfff;
    if (base > limit)
        return {};
    return {base, limit + 1};
}

AddrRange
BridgeHeader::memWindow(const ConfigSpace &space)
{
    Addr base = static_cast<Addr>(space.raw16(cfg::memoryBase) &
                                  0xfff0) << 16;
    Addr limit = (static_cast<Addr>(space.raw16(cfg::memoryLimit) &
                                    0xfff0) << 16) | 0xfffff;
    if (base > limit)
        return {};
    return {base, limit + 1};
}

AddrRange
BridgeHeader::prefWindow(const ConfigSpace &space)
{
    Addr base =
        (static_cast<Addr>(space.raw32(cfg::prefBaseUpper32)) << 32) |
        (static_cast<Addr>(space.raw16(cfg::prefMemBase) & 0xfff0)
         << 16);
    Addr limit =
        (static_cast<Addr>(space.raw32(cfg::prefLimitUpper32)) << 32) |
        (static_cast<Addr>(space.raw16(cfg::prefMemLimit) & 0xfff0)
         << 16) | 0xfffff;
    if (base > limit)
        return {};
    return {base, limit + 1};
}

void
BridgeHeader::programBusNumbers(ConfigSpace &space, unsigned pri,
                                unsigned sec, unsigned sub)
{
    space.write(cfg::primaryBus, 1, pri);
    space.write(cfg::secondaryBus, 1, sec);
    space.write(cfg::subordinateBus, 1, sub);
}

void
BridgeHeader::programIoWindow(ConfigSpace &space, Addr base,
                              Addr limit)
{
    panicIf((base & 0xfff) != 0, "I/O window base not 4K aligned");
    panicIf((limit & 0xfff) != 0xfff, "I/O window limit not 4K-1");
    space.write(cfg::ioBase, 1, (base >> 8) & 0xf0);
    space.write(cfg::ioLimit, 1, (limit >> 8) & 0xf0);
    space.write(cfg::ioBaseUpper16, 2, (base >> 16) & 0xffff);
    space.write(cfg::ioLimitUpper16, 2, (limit >> 16) & 0xffff);
}

void
BridgeHeader::programMemWindow(ConfigSpace &space, Addr base,
                               Addr limit)
{
    panicIf((base & 0xfffff) != 0, "mem window base not 1M aligned");
    panicIf((limit & 0xfffff) != 0xfffff, "mem window limit not 1M-1");
    space.write(cfg::memoryBase, 2, (base >> 16) & 0xfff0);
    space.write(cfg::memoryLimit, 2, (limit >> 16) & 0xfff0);
}

} // namespace pciesim
