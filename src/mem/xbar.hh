/**
 * @file
 * A crossbar interconnect, loosely modelled on the gem5 non-coherent
 * crossbar (which is itself loosely modelled on ARM AXI, paper
 * Sec. III). Used both as the MemBus (on-chip) and the IOBus
 * (off-chip, the paper's baseline device attachment).
 *
 * Requests are routed to the master port whose peer slave claims the
 * packet address, looked up in a flat route table rebuilt whenever
 * the RoutingGeneration moves (DESIGN.md §5); responses are routed
 * back to the slave port the request arrived on. Each egress
 * direction has a bounded queue with a per-packet occupancy derived
 * from the crossbar width, plus a fixed forwarding (header) latency.
 */

#ifndef PCIESIM_MEM_XBAR_HH
#define PCIESIM_MEM_XBAR_HH

#include <memory>
#include <utility>
#include <vector>

#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

/** Configuration for an XBar. */
struct XBarParams
{
    /** Forwarding-decision latency applied to every packet. */
    Tick frontendLatency = nanoseconds(5);
    /** Latency applied to responses. */
    Tick responseLatency = nanoseconds(5);
    /** Data path width; occupancy = size / width * bytePeriod. */
    unsigned widthBytes = 16;
    /** Time to move widthBytes across the crossbar. */
    Tick bytePeriod = nanoseconds(1);
    /** Egress queue capacity per port. */
    std::size_t queueCapacity = 16;
};

/**
 * A crossbar with any number of slave ports (facing requestors) and
 * master ports (facing responders).
 */
class XBar : public SimObject
{
  public:
    XBar(Simulation &sim, const std::string &name,
         const XBarParams &params = {});
    ~XBar() override;

    /** Create a port facing a requestor (CPU, DMA, bridge master). */
    SlavePort &addSlavePort(const std::string &port_name);

    /** Create a port facing a responder (memory, device PIO). */
    MasterPort &addMasterPort(const std::string &port_name);

    /**
     * Designate an already-added master port as the default route
     * for addresses no other port claims (gem5 xbar default port).
     */
    void setDefaultPort(MasterPort &port);

    void init() override;

    /** Union of ranges claimed by all connected responders. */
    AddrRangeList routedRanges() const;

  private:
    class XBarSlavePort;
    class XBarMasterPort;

    /** One routed range and the master port that leads to it. */
    struct Route
    {
        AddrRange range;
        int port;
    };

    /** Route a request to a master port index; -1 with no match. */
    int route(Addr addr);

    /** route() by a fresh scan of every peer's ranges (audits). */
    int scanRoute(Addr addr) const;

    /** Per-packet data-path occupancy for egress queues. */
    Tick occupancy() const;

    bool forwardRequest(const PacketPtr &pkt, XBarSlavePort *src);
    bool forwardResponse(const PacketPtr &pkt, XBarMasterPort *from);

    XBarParams params_;
    std::vector<std::unique_ptr<XBarSlavePort>> slavePorts_;
    std::vector<std::unique_ptr<XBarMasterPort>> masterPorts_;
    int defaultPortIdx_ = -1;
    /** Every peer's ranges in port order, and the RoutingGeneration
     *  they were read at. */
    std::vector<Route> routes_;
    std::uint64_t routesGeneration_ = 0;
    /** Outstanding requests, oldest first: (request id, originating
     *  slave port). Few are in flight and responses mostly return
     *  in order, so a scan from the front beats a hash map. */
    std::vector<std::pair<std::uint64_t, XBarSlavePort *>> routeBack_;

    stats::Counter reqPackets_;
    stats::Counter respPackets_;
    stats::Counter reqRetries_;
};

} // namespace pciesim

#endif // PCIESIM_MEM_XBAR_HH
