/**
 * @file
 * Every knob of the modelled systems in one place. The defaults
 * reproduce the paper's validation configuration (Sec. VI-A): a Gen
 * 2 interconnect, root complex latency 150 ns, switch latency
 * 150 ns, 16-packet port buffers, 4-entry replay buffers, root
 * port -> switch x4 and switch -> disk x1 links.
 */

#ifndef PCIESIM_TOPO_SYSTEM_CONFIG_HH
#define PCIESIM_TOPO_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "dev/ide_disk.hh"
#include "dev/int_controller.hh"
#include "mem/io_cache.hh"
#include "mem/simple_memory.hh"
#include "mem/xbar.hh"
#include "os/dd_workload.hh"
#include "os/ide_driver.hh"
#include "os/kernel.hh"
#include "pcie/pcie_link.hh"
#include "pcie/pcie_router.hh"
#include "pcie/pcie_timing.hh"

namespace pciesim
{

/** Configuration of a full system. */
struct SystemConfig
{
    /** @{ PCI-Express fabric. */
    PcieGen gen = PcieGen::Gen2;
    /** Width of the root port -> switch link. */
    unsigned upstreamLinkWidth = 4;
    /** Width of the switch -> device link. */
    unsigned downstreamLinkWidth = 1;
    Tick rcLatency = nanoseconds(150);
    Tick switchLatency = nanoseconds(150);
    std::size_t portBufferSize = 16;
    std::size_t replayBufferSize = 4;
    Tick linkPropagation = nanoseconds(1);
    bool ackImmediate = false;
    /**
     * Replay-timeout scale (see PcieLinkParams): the calibrated
     * default of 10 brings the paper's simplified formula
     * (InternalDelay = 0) up to the magnitude of the spec's
     * REPLAY_TIMER limit table, which includes receiver internal
     * delay; this is what makes timeouts costly enough to produce
     * the Fig. 9b-9d throughput effects.
     */
    double replayTimeoutScale = 10.0;
    unsigned switchDownstreamPorts = 2;
    /** @} */

    /** @{ Fault injection and recovery (DESIGN.md Sec. 7).
     *  All defaults leave the fault-free fast path bit-identical
     *  to a build without the fault layer. */
    /** Bit error rate applied per wire symbol on every link. */
    double linkBitErrorRate = 0.0;
    /** Master fault seed; each link derives its own stream. */
    std::uint64_t faultSeed = 1;
    /** Run the NAK protocol even with no faults configured. */
    bool enableNak = false;
    /** Link-down time for a retrain (REPLAY_NUM rollover). */
    Tick retrainLatency = microseconds(1);
    /** Completion timeout for non-posted requesters (kernel MMIO
     *  and device DMA). 0 disables. */
    Tick completionTimeout = 0;
    /** @} */

    /** @{ Error containment and recovery (DESIGN.md §12).
     *  All defaults keep the error path quiescent and the fault-free
     *  stats dump bit-identical to earlier builds. */
    /**
     * Advanced Error Reporting: links signal ERR_COR / ERR_NONFATAL
     * / ERR_FATAL upstream, the root complex latches them and
     * interrupts the kernel, the switch contains failed downstream
     * ports, and the kernel drives reset + driver recovery.
     */
    bool aerEnabled = false;
    /** Platform interrupt line of the root error block (below the
     *  enumerator's INTx range, which starts at 32). */
    unsigned aerIrqLine = 30;
    /** In-band flight time of an error message to the root; at
     *  least the detector's lookahead to the root, whatever is set,
     *  and the root delivers at most one message per this time. */
    Tick aerMsgLatency = nanoseconds(400);
    /** Link degradation: errors per degradeWindow that trigger a
     *  retrain one speed Gen (then width) down. 0 disables. */
    unsigned degradeThreshold = 0;
    Tick degradeWindow = microseconds(100);
    /** Base back-off before a degraded link tries to upconfigure;
     *  doubles per consecutive degrade, with seeded jitter. */
    Tick upconfigureDelay = milliseconds(1);
    /** Scripted surprise hot-unplug of the disk, one media latency
     *  into its Nth 4 KB chunk (1-based; 0 disables). */
    std::uint64_t unplugAtChunk = 0;
    /** Time until the unplugged disk is re-seated. */
    Tick replugDelay = microseconds(50);
    /** @} */

    /** @{ Parallel execution (DESIGN.md Sec. 10). */
    /**
     * Number of worker threads for parallel discrete-event
     * execution; it changes only wall time. 0 (the default) runs
     * one event queue. Any value >= 1 partitions the fabric's link
     * endpoints into domains driven by that many workers when it
     * has two or more device domains and neither periodic stats
     * sampling nor dump epochs pin it. Every count simulates the
     * same history: identical stats outside the engine's own
     * "system.parallel.*" block.
     */
    unsigned threads = 0;
    /**
     * Minimum latency of the Assert_INTx/Deassert_INTx message from
     * a device to the interrupt controller. The effective value is
     * at least the sum of linkLookahead() over the device's links
     * up to the root complex, at every thread count; a device with
     * no PCIe link (the legacy-io style) uses this value alone.
     */
    Tick intxLatency = 0;
    /** @} */

    /** @{ Observability (DESIGN.md Sec. 8). */
    /**
     * Comma-separated trace flags to enable ("Link,Dma", "All");
     * empty leaves tracing off unless traceOut defaults it to All.
     */
    std::string traceFlags;
    /** Chrome trace-event output path; empty disables the sink. */
    std::string traceOut;
    /** Period of the goodput/replay-depth sampler; 0 disables. */
    Tick statsSampleInterval = 0;
    /** Period of m5out-style dump/reset stats epochs; 0 disables.
     *  Note epochs *reset* counters, so end-of-run readouts cover
     *  only the final partial epoch (gem5 semantics). */
    Tick statsDumpInterval = 0;
    /** Epoch dump destination; "-" (default) is stdout. */
    std::string statsDumpPath = "-";
    /** Write a stats.json document here after a run; empty off. */
    std::string statsJsonOut;
    /** @} */

    /** @{ Substrates. */
    XBarParams membus;
    IOCacheParams ioCache;
    SimpleMemoryParams dram;
    IntControllerParams gic;
    /** @} */

    /** @{ Software + devices. */
    KernelParams kernel;
    IdeDiskParams disk;
    IdeDriverParams ideDriver;
    DdWorkloadParams dd;
    /** @} */

    /**
     * Build the link parameters every topology uses, including the
     * fault layer. @p link_index keys this link's fault stream off
     * the master seed so each link draws independent errors while
     * the whole system stays reproducible from one seed.
     */
    PcieLinkParams
    makeLinkParams(unsigned width, unsigned link_index) const
    {
        PcieLinkParams lp;
        lp.gen = gen;
        lp.width = width;
        lp.propagationDelay = linkPropagation;
        lp.replayBufferSize = replayBufferSize;
        lp.ackImmediate = ackImmediate;
        lp.replayTimeoutScale = replayTimeoutScale;
        lp.enableNak = enableNak;
        lp.retrainLatency = retrainLatency;
        lp.degradeThreshold = degradeThreshold;
        lp.degradeWindow = degradeWindow;
        lp.upconfigureDelay = upconfigureDelay;
        lp.faults.bitErrorRate = linkBitErrorRate;
        lp.faults.seed = faultSeed + 0x1000003ULL * link_index;
        return lp;
    }
};

} // namespace pciesim

#endif // PCIESIM_TOPO_SYSTEM_CONFIG_HH
