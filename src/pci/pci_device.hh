/**
 * @file
 * Base class for PCI / PCI-Express endpoint devices: type-0 header,
 * BARs with standard sizing semantics, a PIO slave port for MMIO
 * accesses, a DMA master port, and legacy INTx signalling
 * (paper Sec. III & IV).
 */

#ifndef PCIESIM_PCI_PCI_DEVICE_HH
#define PCIESIM_PCI_PCI_DEVICE_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "pci/pci_function.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

/** Static description of one BAR. */
struct BarSpec
{
    /** Size in bytes; must be a power of two >= 16 (or 0: absent). */
    std::uint32_t size = 0;
    /** I/O space instead of memory space. */
    bool isIo = false;
};

/** Configuration for a PciDevice. */
struct PciDeviceParams
{
    std::uint16_t vendorId = 0x8086;
    std::uint16_t deviceId = 0x0000;
    std::uint32_t classCode = 0;
    std::uint8_t revision = 0;
    /** 1 = INTA ... 4 = INTD; 0 = no interrupt pin. */
    std::uint8_t interruptPin = 1;
    std::vector<BarSpec> bars;
    /** Register-file access latency for MMIO/PMIO requests. */
    Tick pioLatency = nanoseconds(30);
    /** PIO response queue capacity. */
    std::size_t pioQueueCapacity = 8;
};

/**
 * An endpoint device model.
 *
 * Subclasses implement readReg/writeReg for their register file and
 * may use the DMA port (through DmaEngine) for bus mastering.
 */
class PciDevice : public SimObject, public PciFunction
{
  public:
    PciDevice(Simulation &sim, const std::string &name,
              const PciDeviceParams &params);
    ~PciDevice() override;

    SlavePort &pioPort();
    MasterPort &dmaPort();

    void init() override;

    /** @{ Configuration space with BAR/command intercepts. */
    std::uint32_t configRead(unsigned offset, unsigned size) override;
    void configWrite(unsigned offset, unsigned size,
                     std::uint32_t value) override;
    /** @} */

    /** Current decoded address of a BAR (0 when unassigned). */
    Addr barAddr(unsigned bar) const;

    /** Address range decoded by a BAR (empty when disabled). */
    AddrRange barRange(unsigned bar) const;

    /** Command register helpers. */
    bool memEnabled() const;
    bool ioEnabled() const;
    bool busMaster() const;

    /** @{ Hot-plug presence: while absent, configuration reads
     *  return all-ones and writes are dropped, which is what the
     *  root complex observes from an empty slot (DESIGN.md §12). */
    void setPresent(bool present) { present_ = present; }
    bool present() const { return present_; }
    /** @} */

    /**
     * Install the platform interrupt sink for legacy INTx
     * (wired by the system builder to the interrupt controller).
     */
    void
    setIntxSink(std::function<void(bool asserted)> sink)
    {
        intxSink_ = std::move(sink);
    }

  protected:
    /** Register-file read at @p offset within @p bar. */
    virtual std::uint64_t readReg(unsigned bar, Addr offset,
                                  unsigned size) = 0;

    /** Register-file write at @p offset within @p bar. */
    virtual void writeReg(unsigned bar, Addr offset, unsigned size,
                          std::uint64_t value) = 0;

    /** DMA response delivery; devices with DMA engines override. */
    virtual bool
    recvDmaResp(PacketPtr /*pkt*/)
    {
        panic("device '", name(), "' got unexpected DMA response");
    }

    /** The DMA peer can accept again after a refusal. */
    virtual void recvDmaRetry() {}

    /** Assert / deassert the legacy interrupt line. */
    void raiseIntx();
    void lowerIntx();
    bool intxAsserted() const { return intxAsserted_; }

    const PciDeviceParams &params() const { return params_; }

  private:
    class PioPort;
    class DevDmaPort;

    bool handlePio(const PacketPtr &pkt);

    /** Map an address to (bar, offset); -1 when unclaimed. */
    int decode(Addr addr, Addr &offset) const;

    PciDeviceParams params_;
    std::unique_ptr<PioPort> pioPort_;
    std::unique_ptr<DevDmaPort> dmaPort_;
    std::unique_ptr<PacketQueue> pioRespQueue_;
    bool wantPioRetry_ = false;
    bool present_ = true;
    bool intxAsserted_ = false;
    std::function<void(bool)> intxSink_;

    stats::Counter pioReads_;
    stats::Counter pioWrites_;
};

} // namespace pciesim

#endif // PCIESIM_PCI_PCI_DEVICE_HH
