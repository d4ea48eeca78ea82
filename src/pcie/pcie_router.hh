/**
 * @file
 * The VP2P router behind both the root complex (paper Sec. V-A,
 * Fig. 6) and the PCI-Express switch (Sec. V-B): an upstream slave
 * and master port plus N downstream ports, each downstream port
 * fronted by a virtual PCI-to-PCI bridge, with a bounded egress
 * queue on every port.
 *
 * Requests are routed downstream by matching the packet address
 * against each downstream VP2P's software-programmed memory / I/O
 * windows, and responses by the PCI bus number that ingress slave
 * ports stamp into requests (each downstream slave stamps its
 * VP2P's secondary bus). Requests and responses that no downstream
 * port claims leave through the upstream ports.
 *
 * The two roles differ in construction data (port count, VP2P
 * identities, names, stat descriptions, trace flag) and in one
 * upstream branch. The root complex is a host bridge: its upstream
 * slave claims the whole off-chip PCI region and stamps bus 0. The
 * switch has an upstream VP2P: its upstream slave claims that
 * VP2P's windows and stamps its secondary bus. Only switches offer
 * per-port error containment (DESIGN.md §12).
 */

#ifndef PCIESIM_PCIE_PCIE_ROUTER_HH
#define PCIESIM_PCIE_PCIE_ROUTER_HH

#include <memory>
#include <optional>
#include <vector>

#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "pci/pci_host.hh"
#include "pcie/vp2p.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace pciesim
{

/** Configuration for a RootComplex. */
struct RootComplexParams
{
    /** Number of root ports (the paper implements three). */
    unsigned numRootPorts = 3;
    /** Request/response processing (switching) latency. */
    Tick latency = nanoseconds(150);
    /** Egress buffer capacity per master or slave port. */
    std::size_t portBufferSize = 16;
    /** Link width/gen advertised in each VP2P's PCIe capability. */
    unsigned linkWidth = 4;
    unsigned linkGen = 2;
};

/** Configuration for a PcieSwitch. */
struct PcieSwitchParams
{
    unsigned numDownstreamPorts = 2;
    /** Store-and-forward switching latency. */
    Tick latency = nanoseconds(150);
    /** Egress buffer capacity per master or slave port. */
    std::size_t portBufferSize = 16;
    unsigned linkWidth = 1;
    unsigned linkGen = 2;
    /**
     * Per-downstream-port error containment (DESIGN.md §12): on a
     * FATAL error the port goes down, queued TLPs are dropped, and
     * subsequent requests complete as unsupported requests
     * (all-ones). Off by default; when off the containment stats
     * are not registered either, keeping dumps identical.
     */
    bool enableContainment = false;
};

/**
 * A set of VP2P bridges with bounded port queues; see the file
 * comment. Constructed as a RootComplex or a PcieSwitch.
 *
 * Wiring: upstreamSlavePort() <- MemBus master or upstream link
 * downMaster; upstreamMasterPort() -> IOCache slave or upstream link
 * downSlave; downstreamMaster(i) -> link i upSlave;
 * downstreamSlave(i) <- link i upMaster.
 */
class PcieRouter : public SimObject
{
  public:
    /** What distinguishes a root complex from a switch. */
    struct Role
    {
        /** Names the router in diagnostics. */
        const char *kind;
        trace::Flag traceFlag;
        /** Downstream port name prefix: rc.rootPort0, sw.downPort0. */
        const char *portPrefix;
        /** Per-port stat subname prefix. */
        const char *statPrefix;
        /** Downstream port noun in stat descriptions and traces. */
        const char *portNoun;
        /** @{ Descriptions of the upward forwarding stats. */
        const char *upRequestsDesc;
        const char *upResponsesDesc;
        /** @} */
        Tick latency;
        std::size_t portBufferSize;
        /** Switch only; a root complex is a host bridge. */
        std::optional<Vp2pParams> upVp2p;
        /** One per downstream port. */
        std::vector<Vp2pParams> downVp2ps;
        bool enableContainment = false;
    };

    ~PcieRouter() override;

    SlavePort &upstreamSlavePort();
    MasterPort &upstreamMasterPort();
    MasterPort &downstreamMaster(unsigned i);
    SlavePort &downstreamSlave(unsigned i);

    /** The switch's upstream VP2P; a root complex has none. */
    Vp2p &upstreamVp2p();
    /** The VP2P fronting downstream (root) port @p i. */
    Vp2p &downstreamVp2p(unsigned i);

    unsigned numDownstreamPorts() const
    {
        return static_cast<unsigned>(role_.downVp2ps.size());
    }

    void init() override;

    /** Packets refused due to full port buffers. */
    std::uint64_t bufferRefusals() const
    {
        return bufferRefusals_.value();
    }

    /** @{ Per-downstream-port error containment (DESIGN.md §12).
     *  Containing a port drops its queued TLPs; while contained,
     *  downward reads complete all-ones (UR), everything else is
     *  dropped. Release re-opens the port (after the device behind
     *  it has been reset). */
    void containDownstreamPort(unsigned i);
    void releaseDownstreamPort(unsigned i);
    bool portContained(unsigned i) const;
    std::uint64_t containedDrops() const
    {
        return containedDrops_.value();
    }
    std::uint64_t urCompletions() const
    {
        return urCompletions_.value();
    }
    /** @} */

  protected:
    PcieRouter(Simulation &sim, const std::string &name, Role role);

  private:
    class UpSlavePort;
    class UpMasterPort;
    class DownMasterPort;
    class DownSlavePort;

    /** Request from upstream (CPU PIO or a parent switch). */
    bool handleDownwardRequest(const PacketPtr &pkt);
    /** Request (DMA or peer-to-peer) arriving at downstream port
     *  @p i. */
    bool handleUpwardRequest(const PacketPtr &pkt, unsigned i);
    /** Response from upstream (DMA completions). */
    bool handleDownwardResponse(const PacketPtr &pkt);
    /** Response (PIO or peer-to-peer) from a downstream port. */
    bool handleUpwardResponse(const PacketPtr &pkt);

    /** @{ Downstream port whose VP2P claims @p addr, or whose bus
     *  range covers @p bus; -1 when none. */
    int routeByAddress(Addr addr);
    int routeByBus(int bus);
    /** @} */

    /** Queue @p pkt on @p q after the router latency; false, with a
     *  refusal counted, when @p q is full. */
    bool enqueue(PacketQueue &q, const PacketPtr &pkt);
    /** Forward @p pkt to downstream port @p port: a request to its
     *  request queue, a response to its response queue. */
    bool sendDown(unsigned port, const PacketPtr &pkt);

    Role role_;

    std::unique_ptr<UpSlavePort> upSlave_;
    std::unique_ptr<UpMasterPort> upMaster_;
    std::vector<std::unique_ptr<DownMasterPort>> downMasters_;
    std::vector<std::unique_ptr<DownSlavePort>> downSlaves_;
    std::unique_ptr<Vp2p> upVp2p_;
    std::vector<std::unique_ptr<Vp2p>> downVp2ps_;

    /** Egress queues. */
    std::unique_ptr<PacketQueue> upReqQueue_;
    std::unique_ptr<PacketQueue> upRespQueue_;
    std::vector<std::unique_ptr<PacketQueue>> downReqQueues_;
    std::vector<std::unique_ptr<PacketQueue>> downRespQueues_;

    /** Refused upstream senders awaiting a protocol retry (the
     *  XBar and IOCache above a root complex need one). */
    bool upWantsReqRetry_ = false;
    bool upWantsRespRetry_ = false;

    /** Containment flags, one per downstream port. */
    std::vector<bool> contained_;

    stats::Counter fwdDownRequests_;
    stats::Counter fwdUpRequests_;
    stats::Counter fwdDownResponses_;
    stats::Counter fwdUpResponses_;
    stats::Counter bufferRefusals_;
    /** @{ Per-downstream-port forwarding breakdown. */
    stats::Vector portRequests_;
    stats::Vector portResponses_;
    /** @} */
    /** @{ Containment stats (registered only when enabled). */
    stats::Counter containments_;
    stats::Counter containedDrops_;
    stats::Counter urCompletions_;
    /** @} */
};

/**
 * The root complex: a host bridge whose root ports each register
 * their VP2P with the PCI Host at bus 0, device = port index.
 */
class RootComplex : public PcieRouter
{
  public:
    RootComplex(Simulation &sim, const std::string &name,
                PciHost &host, const RootComplexParams &params = {});
};

/**
 * A PCI-Express switch; every port, upstream included, is fronted
 * by a VP2P. The builder registers upstreamVp2p() and each
 * downstreamVp2p(i) with the PciHost at BDFs matching the
 * enumeration DFS order.
 */
class PcieSwitch : public PcieRouter
{
  public:
    PcieSwitch(Simulation &sim, const std::string &name,
               const PcieSwitchParams &params = {});
};

} // namespace pciesim

#endif // PCIESIM_PCIE_PCIE_ROUTER_HH
