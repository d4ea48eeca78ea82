/**
 * @file
 * IDE bus-master DMA driver model: programs the disk's taskfile and
 * BMDMA registers over timed MMIO, builds PRD entries in kernel DMA
 * memory, and completes commands from the legacy interrupt handler.
 * Large requests are split into maximum-size (256-sector) commands,
 * as the block layer does.
 */

#ifndef PCIESIM_OS_IDE_DRIVER_HH
#define PCIESIM_OS_IDE_DRIVER_HH

#include <functional>
#include <string>
#include <utility>

#include "dev/ide_disk.hh"
#include "os/aer_handler.hh"
#include "os/kernel.hh"

namespace pciesim
{

/** Configuration for an IdeDriver. */
struct IdeDriverParams
{
    /** Software time from completion interrupt to the next command
     *  being programmed (IRQ exit, block layer, queue restart). */
    Tick perCommandOverhead = nanoseconds(600);
    /**
     * Register the recovery stats (recoveries / lostRequests /
     * recoveryLatency). Set by AER-enabled topologies only, so
     * fault-free stats dumps stay bit-identical.
     */
    bool trackRecovery = false;
};

/**
 * The driver. Register it with the kernel before probeDrivers().
 * Also an AerRecoveryClient: on a surprise removal it loses the
 * in-flight command, and after the function reset it reprograms the
 * device and reissues that command, so the workload makes forward
 * progress across the fault (DESIGN.md §12).
 */
class IdeDriver : public Driver, public AerRecoveryClient
{
  public:
    /** @p stats_name prefixes the recovery stats; a fabric with
     *  several disks gives each driver its own. */
    explicit IdeDriver(const IdeDriverParams &params = {},
                       std::string stats_name = "system.ideDriver")
        : params_(params), statsName_(std::move(stats_name))
    {}

    std::vector<MatchEntry>
    moduleDeviceTable() const override
    {
        return {{0x8086, 0x7111}};
    }

    void probe(Kernel &kernel, const EnumeratedFunction &fn) override;

    bool bound() const override { return probed_; }

    bool probed() const { return probed_; }

    /**
     * Read @p bytes from the disk (LBA 0 upward) into the DMA
     * buffer at @p buf_addr; @p done fires when the final command's
     * completion interrupt has been handled.
     */
    void read(Addr buf_addr, std::uint64_t bytes,
              std::function<void()> done);

    /** Number of DMA commands issued so far. */
    std::uint64_t commandsIssued() const { return commandsIssued_; }

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
    const stats::Histogram &recoveryLatency() const
    {
        return recoveryLatency_;
    }
    /** @} */

  private:
    void issueCommand();
    void handleIrq();

    IdeDriverParams params_;
    std::string statsName_;
    Kernel *kernel_ = nullptr;
    bool probed_ = false;
    Bdf bdf_{};

    /** Resources discovered at probe time. */
    Addr cmdBase_ = 0;   //!< BAR0 (I/O)
    Addr ctrlBase_ = 0;  //!< BAR1 (I/O)
    Addr bmBase_ = 0;    //!< BAR4 (I/O)
    unsigned irqLine_ = 0;
    Addr prdAddr_ = 0;

    /** In-flight request state. */
    bool busy_ = false;
    /** ISR in progress: masks re-dispatch of the level-triggered
     *  line while the (asynchronous) MMIO chain of the handler is
     *  still clearing the interrupt condition. */
    bool irqInProgress_ = false;
    Addr bufAddr_ = 0;
    std::uint64_t bytesLeft_ = 0;
    std::uint32_t nextLba_ = 0;
    std::function<void()> onDone_;
    std::uint64_t commandsIssued_ = 0;

    /** @{ In-flight command snapshot, for reissue after a surprise
     *  removal (captured by issueCommand before it advances). */
    Addr curCmdBuf_ = 0;
    std::uint64_t curCmdBytes_ = 0;
    std::uint32_t curCmdLba_ = 0;
    /** @} */
    /** Device surprise-removed; cleared by resumeAfterReset. */
    bool removed_ = false;
    Tick removedAt_ = 0;

    /** @{ Registered only when IdeDriverParams::trackRecovery. */
    stats::Counter recoveries_;
    stats::Counter lostRequests_;
    stats::Histogram recoveryLatency_;
    /** @} */
};

} // namespace pciesim

#endif // PCIESIM_OS_IDE_DRIVER_HH
