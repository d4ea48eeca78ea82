/**
 * @file
 * e1000e driver model (paper Sec. IV): its module device table
 * matches device ID 0x10d3, and probe() performs the same
 * configuration sequence as the real driver - walk the capability
 * chain, attempt MSI/MSI-X (finding them disabled, fall back to a
 * legacy interrupt handler), map BAR0, reset the MAC, read the MAC
 * address from the EEPROM, and set up TX/RX descriptor rings.
 */

#ifndef PCIESIM_OS_E1000E_DRIVER_HH
#define PCIESIM_OS_E1000E_DRIVER_HH

#include <functional>

#include "dev/nic_8254x.hh"
#include "os/aer_handler.hh"
#include "os/kernel.hh"
#include "sim/ring_queue.hh"

namespace pciesim
{

/** Configuration for an E1000eDriver. */
struct E1000eDriverParams
{
    unsigned txRingSize = 64;
    unsigned rxRingSize = 64;
    unsigned rxBufferSize = 2048;
    /** Try to enable MSI before falling back to INTx (succeeds
     *  only on devices built with NicParams::allowMsi). */
    bool preferMsi = true;
    /** MSI target window base (the interrupt controller's). */
    Addr msiAddress = 0x10000000;
    /** Register recovery stats (AER-enabled topologies only). */
    bool trackRecovery = false;
};

/**
 * The driver. Also an AerRecoveryClient: after a surprise removal
 * and function reset it reinitialises the MAC (the same sequence as
 * probe) and retransmits the frames whose completions were lost.
 */
class E1000eDriver : public Driver, public AerRecoveryClient
{
  public:
    explicit E1000eDriver(const E1000eDriverParams &params = {})
        : params_(params)
    {}

    std::vector<MatchEntry>
    moduleDeviceTable() const override
    {
        return {{0x8086, 0x10d3}};
    }

    void probe(Kernel &kernel, const EnumeratedFunction &fn) override;

    /** Bound as soon as probe() starts (the MMIO sequence is
     *  asynchronous but the device is claimed immediately). */
    bool bound() const override { return bound_; }

    /** @{ State observable after probe. */
    bool probed() const { return probed_; }
    bool usingLegacyIrq() const { return usingLegacyIrq_; }
    bool usingMsi() const { return usingMsi_; }
    bool sawMsiDisabled() const { return sawMsiDisabled_; }
    bool sawMsixDisabled() const { return sawMsixDisabled_; }
    std::uint64_t macAddress() const { return mac_; }
    bool linkUp() const { return linkUp_; }
    /** @} */

    /** Fires when probe configuration completes (rings enabled). */
    void
    setOnReady(std::function<void()> cb)
    {
        onReady_ = std::move(cb);
    }

    /** Transmit a frame of @p len bytes; @p done fires when the
     *  TX-done interrupt for it has been handled. */
    void sendFrame(unsigned len, std::function<void()> done);

    /** Install a callback fired per received frame (length). */
    void
    setOnReceive(std::function<void(unsigned)> cb)
    {
        onReceive_ = std::move(cb);
    }

    std::uint64_t framesSent() const { return framesSent_; }
    std::uint64_t framesReceived() const { return framesReceived_; }

    /** @{ AerRecoveryClient. */
    void surpriseRemove(Bdf bdf) override;
    void resumeAfterReset(Bdf bdf) override;
    /** @} */

    /** @{ Recovery introspection (tests/benches). */
    std::uint64_t recoveries() const { return recoveries_.value(); }
    std::uint64_t lostRequests() const
    {
        return lostRequests_.value();
    }
    /** @} */

  private:
    void configureMac();
    void handleIrq();
    void replenishRx();

    E1000eDriverParams params_;
    Kernel *kernel_ = nullptr;
    bool bound_ = false;
    bool probed_ = false;
    bool usingLegacyIrq_ = false;
    bool usingMsi_ = false;
    bool sawMsiDisabled_ = false;
    bool sawMsixDisabled_ = false;
    bool linkUp_ = false;
    std::uint64_t mac_ = 0;

    Addr mmioBase_ = 0;
    unsigned irqLine_ = 0;
    Bdf bdf_{};

    Addr txRing_ = 0;
    Addr rxRing_ = 0;
    Addr txBuf_ = 0;
    Addr rxBufs_ = 0;
    unsigned txTail_ = 0;
    unsigned rxTail_ = 0;
    unsigned txHeadSw_ = 0; //!< oldest un-reclaimed TX descriptor
    unsigned rxHeadSw_ = 0; //!< next RX descriptor to check

    RingQueue<std::function<void()>> txDone_;
    /** Lengths of the frames behind txDone_, for retransmission
     *  after a surprise removal. */
    RingQueue<unsigned> txLens_;
    /** Device surprise-removed; cleared by resumeAfterReset. */
    bool removed_ = false;
    std::function<void(unsigned)> onReceive_;
    std::function<void()> onReady_;

    std::uint64_t framesSent_ = 0;
    std::uint64_t framesReceived_ = 0;

    /** @{ Registered only when trackRecovery. */
    stats::Counter recoveries_;
    stats::Counter lostRequests_;
    /** @} */
};

} // namespace pciesim

#endif // PCIESIM_OS_E1000E_DRIVER_HH
