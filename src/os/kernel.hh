/**
 * @file
 * The kernel model: stands in for the Linux kernel the paper boots
 * in gem5. It owns the CPU-side master port for timed MMIO, runs
 * the PCI enumeration software, matches drivers through their
 * module device tables (paper Sec. IV), dispatches legacy
 * interrupts, and provides functional DRAM access plus a DMA-region
 * allocator for driver data structures (descriptor rings, PRDs).
 *
 * Software execution time is modelled explicitly: every MMIO access
 * carries a configurable issue latency, and drivers insert defer()
 * delays for their code paths. These latencies are the calibrated
 * stand-in for the paper's "OS overheads for setting up the
 * transfer" (Sec. VI-B).
 */

#ifndef PCIESIM_OS_KERNEL_HH
#define PCIESIM_OS_KERNEL_HH

#include <functional>
#include <memory>
#include <vector>

#include "dev/int_controller.hh"
#include "mem/port.hh"
#include "mem/simple_memory.hh"
#include "pci/enumerator.hh"
#include "pci/pci_host.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

class Kernel;

/**
 * A device driver: advertises the vendor/device IDs it supports and
 * is probed for each matching enumerated function.
 */
class Driver
{
  public:
    struct MatchEntry
    {
        std::uint16_t vendorId;
        std::uint16_t deviceId;
    };

    virtual ~Driver() = default;

    /** The module device table (paper Sec. IV). */
    virtual std::vector<MatchEntry> moduleDeviceTable() const = 0;

    /** Called for each enumerated function that matches. */
    virtual void probe(Kernel &kernel,
                       const EnumeratedFunction &fn) = 0;

    /**
     * Whether this driver instance is already bound to a device.
     * One instance drives one device; register one instance per
     * expected device.
     */
    virtual bool bound() const = 0;
};

/** Configuration for a Kernel. */
struct KernelParams
{
    /** Software overhead per MMIO access (driver instructions,
     *  uncached-load issue). */
    Tick mmioIssueLatency = nanoseconds(40);
    /** Base of the DMA region handed to drivers. The region must
     *  hold the largest dd block (the paper sweeps up to 512 MB),
     *  so it spans 1 GB; the backing store is sparse, so unused
     *  space costs nothing. */
    Addr dmaRegionBase = 0x80100000ULL;
    Addr dmaRegionEnd = 0xC0100000ULL;
    /**
     * Completion timeout for the kernel's non-posted MMIO requests
     * (spec: requesters time out completions in the 50 us - 50 ms
     * range). 0 disables; then a dead endpoint hangs the MMIO
     * queue, as before. On timeout the op completes with all-ones
     * data (the abort pattern a real root complex returns) and the
     * late completion, if it ever arrives, is dropped.
     */
    Tick completionTimeout = 0;
};

/**
 * The kernel.
 */
class Kernel : public SimObject
{
  public:
    Kernel(Simulation &sim, const std::string &name, PciHost &host,
           IntController &gic, SimpleMemory &dram,
           const KernelParams &params = {});
    ~Kernel() override;

    /** CPU-side port; bind to a MemBus slave port. */
    MasterPort &cpuPort();

    void init() override;

    /** @{ Timed MMIO, one access outstanding at a time (uncached,
     *     strongly ordered, as device registers are mapped). */
    void mmioRead(Addr addr, unsigned size,
                  std::function<void(std::uint64_t)> done);
    void mmioWrite(Addr addr, unsigned size, std::uint64_t value,
                   std::function<void()> done);
    /** @} */

    /** @{ Functional configuration access (ECAM through PciHost). */
    std::uint32_t configRead(Bdf bdf, unsigned offset, unsigned size);
    void configWrite(Bdf bdf, unsigned offset, unsigned size,
                     std::uint32_t value);
    /** @} */

    /** @{ Functional DRAM access for driver data structures. */
    void memWriteBlob(Addr addr, const void *data, std::size_t len);
    void memReadBlob(Addr addr, void *data, std::size_t len);
    template <typename T>
    void
    memWrite(Addr addr, T v)
    {
        memWriteBlob(addr, &v, sizeof(T));
    }
    template <typename T>
    T
    memRead(Addr addr)
    {
        T v{};
        memReadBlob(addr, &v, sizeof(T));
        return v;
    }
    /** @} */

    /** Allocate DMA-able memory for rings / buffers / PRDs. */
    Addr allocDma(std::uint64_t size, std::uint64_t align = 64);

    /** Allocate an MSI vector number (distinct from INTx lines). */
    unsigned
    allocMsiVector()
    {
        return nextMsiVector_++;
    }

    /** Run the enumeration software; idempotent. */
    const Enumerator::Result &enumerate();

    /** Register a driver before calling probeDrivers(). */
    void registerDriver(Driver &driver);

    /** Probe all registered drivers against the enumeration. */
    void probeDrivers();

    /** Install a handler for a legacy interrupt line. */
    void registerIrqHandler(unsigned line, std::function<void()> fn);

    /** Run @p fn after @p delay (models software execution time). */
    void defer(Tick delay, std::function<void()> fn);

    /**
     * Platform hook fired when an MMIO operation is failed by the
     * completion timer (wired by AER-enabled topologies toward the
     * root port's error latch).
     */
    void
    setMmioTimeoutHook(std::function<void(bool is_read)> hook)
    {
        mmioTimeoutHook_ = std::move(hook);
    }

    PciHost &pciHost() { return host_; }
    SimpleMemory &dram() { return dram_; }

    /** Number of timed MMIO operations completed. */
    std::uint64_t mmioOps() const { return mmioOps_.value(); }

    /** Number of MMIO operations failed by the completion timer. */
    std::uint64_t
    completionTimeouts() const
    {
        return completionTimeouts_.value();
    }

    /** Timed-out MMIO *reads*, i.e. loads that returned the
     *  all-ones abort pattern to software. */
    std::uint64_t
    abortedReads() const
    {
        return abortedReads_.value();
    }

    /** MMIO issue-to-completion latency histogram (ticks). */
    const stats::Histogram &mmioLatency() const
    {
        return mmioLatency_;
    }

  private:
    class CpuPort;

    struct MmioOp
    {
        bool isRead = false;
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t value = 0;
        std::function<void(std::uint64_t)> onRead;
        std::function<void()> onWrite;
    };

    void issueNextMmio();
    bool recvMmioResp(const PacketPtr &pkt);
    void mmioTimeoutFired();

    KernelParams params_;
    PciHost &host_;
    IntController &gic_;
    SimpleMemory &dram_;

    std::unique_ptr<CpuPort> cpuPort_;
    std::function<void(bool)> mmioTimeoutHook_;
    RingQueue<MmioOp> mmioQueue_;
    bool mmioInFlight_ = false;
    bool mmioWaitingRetry_ = false;
    PacketPtr mmioPkt_;
    MemberEventWrapper<Kernel, &Kernel::issueNextMmio> mmioIssueEvent_;
    MemberEventWrapper<Kernel,
                       &Kernel::mmioTimeoutFired> mmioTimeoutEvent_;

    Addr dmaBrk_;
    unsigned nextMsiVector_ = 64;
    bool enumerated_ = false;
    Enumerator::Result enumResult_;
    std::vector<Driver *> drivers_;

    stats::Counter mmioOps_;
    stats::Counter irqsHandled_;
    stats::Counter completionTimeouts_;
    /** Registered only when a completion timeout is armed. */
    stats::Counter abortedReads_;
    stats::Histogram mmioLatency_;
};

} // namespace pciesim

#endif // PCIESIM_OS_KERNEL_HH
