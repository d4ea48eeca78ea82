/**
 * @file
 * The virtual PCI-to-PCI bridge (paper Sec. V-A): a type-1
 * configuration header plus a PCI-Express capability structure,
 * registered with the PCI Host like an endpoint. One VP2P fronts
 * each root complex root port and each switch port; the routing
 * logic of those components consults the VP2P's software-programmed
 * windows and bus numbers on every packet, decoded once per
 * configuration change (DESIGN.md §5).
 */

#ifndef PCIESIM_PCIE_VP2P_HH
#define PCIESIM_PCIE_VP2P_HH

#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "pci/bridge_header.hh"
#include "pci/capability.hh"
#include "pci/config_regs.hh"
#include "pci/pci_function.hh"
#include "sim/invariant.hh"

namespace pciesim
{

/** Configuration for a Vp2p. */
struct Vp2pParams
{
    std::uint16_t vendorId = cfg::vendorIntel;
    std::uint16_t deviceId = cfg::deviceWildcatRp0;
    cfg::PciePortType portType = cfg::PciePortType::RootPort;
    unsigned linkWidth = 1;
    unsigned linkGen = 2;
    /** Ports connected to a slot expose the C2 slot registers. */
    bool slotImplemented = true;
};

/**
 * A virtual PCI-to-PCI bridge function.
 */
class Vp2p : public PciFunction
{
  public:
    Vp2p(const std::string &name, const Vp2pParams &params);

    /** @{ Software-programmed state, decoded from the config
     *  space on each call. */
    unsigned primaryBus() const;
    unsigned secondaryBus() const;
    unsigned subordinateBus() const;
    AddrRange memWindow() const;
    AddrRange ioWindow() const;
    AddrRange prefWindow() const;
    /** @} */

    /** What the owning router consults on every packet: the
     *  forwarding enable, the three windows and the bus range. */
    struct Routing
    {
        bool forwarding = false;
        AddrRange mem;
        AddrRange io;
        AddrRange pref;
        unsigned secondary = 0;
        unsigned subordinate = 0;

        /** Whether @p addr falls inside any forwarding window. */
        bool
        claims(Addr addr) const
        {
            return forwarding &&
                   (mem.contains(addr) || io.contains(addr) ||
                    pref.contains(addr));
        }

        /** Whether @p bus is within [secondary, subordinate]. An
         *  unconfigured bridge (secondary bus still 0) must not
         *  capture traffic: bus 0 is the root bus and is never
         *  downstream of a VP2P. */
        bool
        busInRange(unsigned bus) const
        {
            return secondary != 0 && bus >= secondary &&
                   bus <= subordinate;
        }

        bool operator==(const Routing &) const = default;
    };

    /** The routing state decoded afresh from the config space; safe
     *  from any domain. */
    Routing decodeRouting() const;

    /** @{ Per-packet routing decisions, read from the routing state
     *  decoded at the current RoutingGeneration. A stale decode is
     *  refreshed in place, so only the owning router's domain may
     *  call them. */
    bool claims(Addr addr) { return routing().claims(addr); }
    bool busInRange(unsigned bus) { return routing().busInRange(bus); }
    /** @} */

    /** Whether the bridge forwards memory/I/O transactions
     *  (Command register enables, paper Sec. V-A). */
    bool forwardingEnabled() const;

    /** Whether downstream devices may master DMA transactions. */
    bool busMasterEnabled() const;

    /**
     * Offset of the PCI-Express capability structure; the paper
     * places it at 0xd8.
     */
    static constexpr unsigned pcieCapOffset = 0xd8;

  private:
    /** The cached routing state, decoded afresh first if any
     *  configuration space has changed since the last decode. The
     *  generation is read before decoding: a change that lands
     *  during the decode leaves the cache stale, not wrongly
     *  fresh. */
    const Routing &
    routing()
    {
        const std::uint64_t gen = RoutingGeneration::current();
        if (routingGeneration_ != gen) [[unlikely]] {
            routing_ = decodeRouting();
            routingGeneration_ = gen;
        }
        PCIESIM_AUDIT(routing_ == decodeRouting(), "VP2P '",
                      pciName(), "' routes by a stale decode at "
                      "routing generation ", gen);
        return routing_;
    }

    Routing routing_;
    /** The RoutingGeneration routing_ was decoded at. */
    std::uint64_t routingGeneration_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_VP2P_HH
