/**
 * @file
 * Backing store for a function's 4 KB configuration space with
 * per-bit write masks.
 */

#ifndef PCIESIM_PCI_CONFIG_SPACE_HH
#define PCIESIM_PCI_CONFIG_SPACE_HH

#include <array>
#include <cstdint>

#include "pci/config_regs.hh"

namespace pciesim
{

/**
 * A 4 KB configuration space (paper Fig. 4: R1 + R2 + R3).
 *
 * Software accesses go through read()/write(); write() honours the
 * per-bit write mask so read-only registers keep their hardware
 * values. The owning device initialises registers and masks with the
 * raw init*()/mask*() methods. Every register mutation, write(),
 * init*() and update16(), bumps the RoutingGeneration: bridge
 * windows, bus numbers, command enables and BARs all live here, and
 * the routing caches decoded from them rebuild on the next packet.
 */
class ConfigSpace
{
  public:
    ConfigSpace();

    /** Software read of 1, 2, or 4 bytes. */
    std::uint32_t read(unsigned offset, unsigned size) const;

    /** Software write of 1, 2, or 4 bytes, honouring write masks. */
    void write(unsigned offset, unsigned size, std::uint32_t value);

    /** @{ Raw hardware-side initialisation (ignores write masks). */
    void init8(unsigned offset, std::uint8_t v);
    void init16(unsigned offset, std::uint16_t v);
    void init32(unsigned offset, std::uint32_t v);
    /** Initialise a 24-bit field (class code). */
    void init24(unsigned offset, std::uint32_t v);
    /** @} */

    /** @{ Declare bits software may write (default: none). */
    void mask8(unsigned offset, std::uint8_t writable);
    void mask16(unsigned offset, std::uint16_t writable);
    void mask32(unsigned offset, std::uint32_t writable);
    /** @} */

    /** Hardware-side raw readback. */
    std::uint8_t raw8(unsigned offset) const { return data_[offset]; }
    std::uint16_t raw16(unsigned offset) const;
    std::uint32_t raw32(unsigned offset) const;

    /** Hardware-side update of a register (e.g. status bits). */
    void update16(unsigned offset, std::uint16_t v) { init16(offset, v); }

  private:
    void checkAccess(unsigned offset, unsigned size) const;

    std::array<std::uint8_t, cfg::pcieConfigSize> data_{};
    std::array<std::uint8_t, cfg::pcieConfigSize> wmask_{};
};

} // namespace pciesim

#endif // PCIESIM_PCI_CONFIG_SPACE_HH
