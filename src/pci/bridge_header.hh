/**
 * @file
 * Type-1 (PCI-to-PCI bridge) configuration header logic
 * (paper Fig. 7): initialisation, write masks, and decoding of the
 * bus-number and I/O / memory window registers that routing
 * components consult.
 */

#ifndef PCIESIM_PCI_BRIDGE_HEADER_HH
#define PCIESIM_PCI_BRIDGE_HEADER_HH

#include <cstdint>

#include "mem/addr_range.hh"
#include "pci/config_space.hh"

namespace pciesim
{

/**
 * Static helpers for type-1 headers. The bridge's windows exist only
 * in its configuration space; the root complex and switch read them
 * through these decoders on every routing decision, so software
 * reprogramming takes effect immediately (paper Sec. V-A).
 */
struct BridgeHeader
{
    /**
     * Initialise a type-1 header: ids, class code 0x060400, header
     * type 1, BARs hard-wired to zero ("requires no memory or I/O
     * space"), all software-configured registers writable, and
     * 32-bit I/O addressing capability advertised so the 16 MB I/O
     * window at 0x2f000000 is reachable (paper Sec. V-A).
     */
    static void initialize(ConfigSpace &space, std::uint16_t vendor,
                           std::uint16_t device);

    /** @{ Bus number registers (software configured). */
    static unsigned primaryBus(const ConfigSpace &space);
    static unsigned secondaryBus(const ConfigSpace &space);
    static unsigned subordinateBus(const ConfigSpace &space);
    /** @} */

    /**
     * Decoded I/O window [base, limit]; empty when base > limit
     * (the power-on state: forwards nothing).
     */
    static AddrRange ioWindow(const ConfigSpace &space);

    /** Decoded non-prefetchable memory window. */
    static AddrRange memWindow(const ConfigSpace &space);

    /** Decoded prefetchable memory window. */
    static AddrRange prefWindow(const ConfigSpace &space);

    /** @{ Software-style window programming helpers (used by the
     *     enumerator; equivalent to the register writes a kernel
     *     performs). */
    static void programBusNumbers(ConfigSpace &space, unsigned pri,
                                  unsigned sec, unsigned sub);
    static void programIoWindow(ConfigSpace &space, Addr base,
                                Addr limit);
    static void programMemWindow(ConfigSpace &space, Addr base,
                                 Addr limit);
    /** @} */
};

} // namespace pciesim

#endif // PCIESIM_PCI_BRIDGE_HEADER_HH
