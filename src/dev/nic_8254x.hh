/**
 * @file
 * The 8254x-pcie NIC model (paper Sec. IV): an Intel 8254x-family
 * register interface with the Device ID set to 0x10d3 so the e1000e
 * driver's module device table matches, and the capability chain
 * the paper describes - PM -> MSI -> PCI-Express -> MSI-X, with PM,
 * MSI and MSI-X encoded disabled so the driver registers a legacy
 * interrupt handler.
 *
 * The data path implements legacy 16-byte TX/RX descriptor rings
 * fetched and written back over the DMA port.
 */

#ifndef PCIESIM_DEV_NIC_8254X_HH
#define PCIESIM_DEV_NIC_8254X_HH

#include <array>
#include <memory>

#include "dev/dma_engine.hh"
#include "dev/ether_wire.hh"
#include "pci/pci_device.hh"
#include "sim/ring_queue.hh"

namespace pciesim
{

/** Register offsets of the model (subset of the 8254x map). */
namespace nicreg
{

constexpr Addr ctrl = 0x0000;
constexpr Addr status = 0x0008;
constexpr Addr eerd = 0x0014;
constexpr Addr icr = 0x00c0;
constexpr Addr ims = 0x00d0;
constexpr Addr imc = 0x00d8;
constexpr Addr rctl = 0x0100;
constexpr Addr tctl = 0x0400;
constexpr Addr rdbal = 0x2800;
constexpr Addr rdbah = 0x2804;
constexpr Addr rdlen = 0x2808;
constexpr Addr rdh = 0x2810;
constexpr Addr rdt = 0x2818;
constexpr Addr tdbal = 0x3800;
constexpr Addr tdbah = 0x3804;
constexpr Addr tdlen = 0x3808;
constexpr Addr tdh = 0x3810;
constexpr Addr tdt = 0x3818;
constexpr Addr ral0 = 0x5400;
constexpr Addr rah0 = 0x5404;

/** CTRL bits. */
constexpr std::uint32_t ctrlRst = 1u << 26;
/** STATUS bits. */
constexpr std::uint32_t statusLu = 1u << 1;
/** RCTL/TCTL enable. */
constexpr std::uint32_t ctlEn = 1u << 1;
/** Interrupt cause bits. */
constexpr std::uint32_t icrTxdw = 1u << 0;
constexpr std::uint32_t icrRxt0 = 1u << 7;
/** EERD fields. */
constexpr std::uint32_t eerdStart = 1u << 0;
constexpr std::uint32_t eerdDone = 1u << 4;

/** Descriptor status bits. */
constexpr std::uint8_t txCmdEop = 1u << 0;
constexpr std::uint8_t txCmdRs = 1u << 3;
constexpr std::uint8_t staDd = 1u << 0;
constexpr std::uint8_t rxStaEop = 1u << 1;

constexpr unsigned descSize = 16;

} // namespace nicreg

/** Configuration for a Nic8254xPcie. */
struct NicParams
{
    Tick pioLatency = nanoseconds(30);
    /** Per-descriptor processing time in the MAC. */
    Tick descProcessing = nanoseconds(100);
    /**
     * Make the MSI capability's enable bit writable. The paper's
     * template hard-wires it to zero (forcing legacy INTx); with
     * this set, a driver can enable real message-signaled
     * interrupts, delivered as posted message TLPs through the
     * fabric.
     */
    bool allowMsi = false;
};

/**
 * The NIC device.
 */
class Nic8254xPcie : public PciDevice, public EtherSink
{
  public:
    Nic8254xPcie(Simulation &sim, const std::string &name,
                 const NicParams &params = {});
    ~Nic8254xPcie() override;

    void init() override;

    /** Connect to a wire end (0 or 1). */
    void attachWire(EtherWire &wire, unsigned end);

    /** EtherSink: a frame arrived from the wire. */
    bool recvFrame(const EtherFrame &frame) override;

    /** @{ Introspection. */
    std::uint64_t framesTransmitted() const { return txFrames_.value(); }
    std::uint64_t framesReceived() const { return rxFrames_.value(); }
    std::uint64_t framesMissed() const { return rxMissed_.value(); }
    /** @} */

  protected:
    std::uint64_t readReg(unsigned bar, Addr offset,
                          unsigned size) override;
    void writeReg(unsigned bar, Addr offset, unsigned size,
                  std::uint64_t value) override;

    bool recvDmaResp(PacketPtr pkt) override;
    void recvDmaRetry() override;

  private:
    /** One queued DMA operation (TX and RX share the engine). */
    struct DmaJob
    {
        bool isWrite = false;
        Addr addr = 0;
        std::uint64_t len = 0;
        std::function<void()> onComplete;
        std::function<void(const PacketPtr &)> onData;
        /** Functional payload for small writes (writebacks). */
        std::vector<std::uint8_t> payload;
        /** Posted MSI message (payload = 2-byte vector). */
        bool isMessage = false;
    };

    void enqueueDma(DmaJob job);
    void startNextDma();

    void performReset();
    void updateInterrupts();
    void setCause(std::uint32_t bits);

    /** Whether software enabled MSI in the capability. */
    bool msiEnabled() const;
    void sendMsi();

    /** @{ TX path. */
    void txKick();
    void txFetchDescriptor();
    void txFetchData();
    void txTransmit();
    void txWriteback();
    /** @} */

    /** @{ RX path. */
    void rxProcess();
    /** @} */

    Addr txDescAddr(std::uint32_t index) const;
    Addr rxDescAddr(std::uint32_t index) const;

    NicParams nicParams_;
    std::unique_ptr<DmaEngine> engine_;
    RingQueue<DmaJob> dmaJobs_;
    bool dmaBusy_ = false;

    EtherWire *wire_ = nullptr;
    unsigned wireEnd_ = 0;
    /** Rising-edge tracker for MSI generation. */
    bool msiLevel_ = false;

    /** @{ Register file. */
    std::uint32_t ctrl_ = 0;
    std::uint32_t status_ = nicreg::statusLu;
    std::uint32_t eerd_ = 0;
    std::uint32_t icr_ = 0;
    std::uint32_t ims_ = 0;
    std::uint32_t rctl_ = 0;
    std::uint32_t tctl_ = 0;
    std::uint32_t rdbal_ = 0, rdbah_ = 0, rdlen_ = 0;
    std::uint32_t rdh_ = 0, rdt_ = 0;
    std::uint32_t tdbal_ = 0, tdbah_ = 0, tdlen_ = 0;
    std::uint32_t tdh_ = 0, tdt_ = 0;
    std::uint32_t ral0_ = 0x12345678;
    std::uint32_t rah0_ = 0x80009abc; // AV bit set
    /** @} */

    std::array<std::uint16_t, 64> eeprom_{};

    /** TX state. */
    bool txBusy_ = false;
    std::uint64_t txDescRaw_[2] = {0, 0};
    EtherFrame txFrame_;
    MemberEventWrapper<Nic8254xPcie, &Nic8254xPcie::txKick> txKickEvent_;
    MemberEventWrapper<Nic8254xPcie, &Nic8254xPcie::txTransmit> txRetryEvent_;

    /** RX state. */
    RingQueue<EtherFrame> rxPending_;
    bool rxBusy_ = false;
    std::uint64_t rxDescRaw_[2] = {0, 0};

    stats::Counter txFrames_;
    stats::Counter rxFrames_;
    stats::Counter rxMissed_;
};

} // namespace pciesim

#endif // PCIESIM_DEV_NIC_8254X_HH
