#include "vp2p.hh"

namespace pciesim
{

Vp2p::Vp2p(const std::string &name, const Vp2pParams &params)
    : PciFunction(name)
{
    BridgeHeader::initialize(config_, params.vendorId,
                             params.deviceId);

    // PCI-Express capability structure at 0xd8 (paper Sec. V-A:
    // "Capability Pointer. Set to 0xD8").
    CapabilityChain chain(config_);
    PcieCapParams cap;
    cap.portType = params.portType;
    cap.linkWidth = params.linkWidth;
    cap.linkGen = params.linkGen;
    cap.slotImplemented = params.slotImplemented;
    cap.rootPort = params.portType == cfg::PciePortType::RootPort;
    chain.addPcie(pcieCapOffset, cap);
    chain.finalize();

    installAer(cap.rootPort);
}

unsigned
Vp2p::primaryBus() const
{
    return BridgeHeader::primaryBus(config_);
}

unsigned
Vp2p::secondaryBus() const
{
    return BridgeHeader::secondaryBus(config_);
}

unsigned
Vp2p::subordinateBus() const
{
    return BridgeHeader::subordinateBus(config_);
}

AddrRange
Vp2p::memWindow() const
{
    return BridgeHeader::memWindow(config_);
}

AddrRange
Vp2p::ioWindow() const
{
    return BridgeHeader::ioWindow(config_);
}

AddrRange
Vp2p::prefWindow() const
{
    return BridgeHeader::prefWindow(config_);
}

Vp2p::Routing
Vp2p::decodeRouting() const
{
    Routing r;
    r.forwarding = forwardingEnabled();
    r.mem = memWindow();
    r.io = ioWindow();
    r.pref = prefWindow();
    r.secondary = secondaryBus();
    r.subordinate = subordinateBus();
    return r;
}

bool
Vp2p::forwardingEnabled() const
{
    std::uint16_t cmd = config_.raw16(cfg::command);
    return (cmd & (cfg::cmdMemEnable | cfg::cmdIoEnable)) != 0;
}

bool
Vp2p::busMasterEnabled() const
{
    return (config_.raw16(cfg::command) & cfg::cmdBusMaster) != 0;
}

} // namespace pciesim
