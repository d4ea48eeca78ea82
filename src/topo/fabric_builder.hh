/**
 * @file
 * Declarative topology layer (DESIGN.md Sec. 13): a FabricDesc
 * describes a whole system — root complex, switch tree, endpoints,
 * per-link gen/width/BER/buffer overrides, per-device knobs — and
 * Fabric instantiates it from the existing device, switch, and link
 * objects, wiring one event-queue domain per link so `--threads N`
 * partitioning applies to any shape automatically.
 *
 * Descriptions come from JSON: the files under
 * examples/topologies/ (loadFabricDesc), or a document parsed in
 * place (parseFabricDesc); the schema reference is
 * examples/topologies/SCHEMA.md. Callers adjust the loaded
 * description (config, device defaults) and construct Fabric.
 *
 * This header is the sanctioned registration surface between the
 * topo layer and the dev layer: topo code reaches device types
 * through it rather than including dev/ headers directly (enforced
 * by pciesim_analyze's topo-dev-include rule).
 */

#ifndef PCIESIM_TOPO_FABRIC_BUILDER_HH
#define PCIESIM_TOPO_FABRIC_BUILDER_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dev/ether_wire.hh"
#include "dev/nic_8254x.hh"
#include "dev/traffic_gen.hh"
#include "mem/bridge.hh"
#include "os/aer_handler.hh"
#include "os/e1000e_driver.hh"
#include "pci/pci_host.hh"
#include "pcie/err_reporter.hh"
#include "sim/json.hh"
#include "sim/stats_dumper.hh"
#include "sim/stats_sampler.hh"
#include "topo/system_config.hh"

namespace pciesim
{

/**
 * Per-link overrides of one node's upstream link. Zero /
 * negative values inherit the SystemConfig defaults.
 */
struct FabricLinkDesc
{
    /** Instance name ("" -> "<node>Link"); "system." prefixed. */
    std::string name;
    /** Lane count (0: role default — upstreamLinkWidth for switch
     *  links, downstreamLinkWidth for endpoint links). */
    unsigned width = 0;
    /** Generation 1..5 (0: SystemConfig::gen). */
    int gen = 0;
    /** Per-link bit error rate (< 0: SystemConfig value). */
    double bitErrorRate = -1.0;
    /** Replay buffer entries (0: SystemConfig value). */
    std::size_t replayBufferSize = 0;
};

/** One device or switch of the fabric tree. */
struct FabricNodeDesc
{
    /** Instance name, unique; "system." prefixed; "rc" reserved. */
    std::string name;
    /** "switch", "ide_disk", "traffic_gen", or "nic". */
    std::string kind;
    /** Name of the parent switch, or "rc" for a root port. Parents
     *  must be declared before their children. */
    std::string parent = "rc";
    /** The link from the parent port down to this node. */
    FabricLinkDesc link;
    /** switch: downstream port count (0: switchDownstreamPorts). */
    unsigned ports = 0;
    /** switch: forwarding latency in ticks (0: switchLatency). */
    Tick latency = 0;
    /** switch: per-port buffer depth (0: portBufferSize). */
    std::size_t portBufferSize = 0;
    /** nic: Ethernet wire group; NICs sharing a group share one
     *  wire (at most two) and one event-queue domain. */
    std::string wire = "wire";
    /** @{ Per-device knob overrides (unset: inherit). */
    /** ide_disk: DMA chunk size in bytes (at least 1). */
    std::optional<unsigned> chunkSize;
    /** ide_disk: media access latency. */
    std::optional<Tick> mediaLatency;
    /** traffic_gen: gap between bursts. */
    std::optional<Tick> interBurstGap;
    /** traffic_gen: posted (response-less) DMA writes. */
    std::optional<bool> postedWrites;
    /** nic: per-descriptor processing time. */
    std::optional<Tick> descProcessing;
    /** nic: writable MSI enable. */
    std::optional<bool> allowMsi;
    /** @} */
    /** Source line for error context (0: built from C++). */
    unsigned sourceLine = 0;
};

/** A complete declarative system description. */
struct FabricDesc
{
    /** Input name cited by error messages. */
    std::string source = "<desc>";
    /** "pcie" (root complex + links) or "legacy-io" (the flat
     *  IOBus baseline the paper improves on). */
    std::string style = "pcie";
    /** Register functions with the PCI host and allow boot().
     *  False skips registration for fabrics beyond the 256-bus
     *  enumeration ceiling; such fabrics hold only switches and
     *  posted-write traffic generators and are driven through
     *  runDirectWrites(). */
    bool enumerate = true;
    /** Register the system.replayFraction / timeoutFraction
     *  dump-time formulas over all link device-side interfaces. */
    bool systemStats = false;
    /** Common knobs; per-node fields override selectively. */
    SystemConfig config;
    /** @{ Defaults for device kinds instantiated by nodes. */
    TrafficGenParams gen;
    NicParams nic;
    E1000eDriverParams nicDriver;
    EtherWireParams wire;
    /** @} */
    /** The tree, in declaration order (parents first). */
    std::vector<FabricNodeDesc> nodes;
};

namespace topo
{

/**
 * Parse @p text as a topology document. A syntax error is a
 * fatal("topology <source>:<line>: <what>").
 */
json::Value parseJson(const std::string &text, const std::string &source);

} // namespace topo

/**
 * Validate and convert a parsed topology document into a
 * FabricDesc. Unknown keys, bad types, out-of-range values,
 * duplicate names, and unresolvable parents are fatal() errors
 * citing @p source and the offending line.
 */
FabricDesc parseFabricDesc(const json::Value &root,
                           const std::string &source);

/** Load a topology JSON file into a FabricDesc. */
FabricDesc loadFabricDesc(const std::string &path);

/**
 * A constructed system: owns every object the description named,
 * plus the substrate (memory bus, DRAM, PCI host, interrupt
 * controller, IO cache, kernel, and — in pcie style — the root
 * complex). Every system in the tree is one of these; accessors
 * below index each kind in declaration order.
 */
class Fabric
{
  public:
    Fabric(Simulation &sim, const FabricDesc &desc);
    ~Fabric();

    /** Run enumeration and driver probing (enumerable only). */
    void boot();

    /** @{ Substrate access. */
    Simulation &sim() { return sim_; }
    Kernel &kernel() { return *kernel_; }
    PciHost &pciHost() { return *pciHost_; }
    IntController &gic() { return *gic_; }
    SimpleMemory &dram() { return *dram_; }
    IOCache &ioCache() { return *ioCache_; }
    /** The root complex; pcie style only. */
    RootComplex &rootComplex();
    /** @} */

    /** @{ Fabric objects, in declaration order per kind. */
    unsigned numSwitches() const;
    PcieSwitch &pcieSwitch(unsigned i = 0);
    std::vector<PcieLink *> links() const;
    PcieLink &link(unsigned i);
    /** Link lookup by instance name (without "system." prefix);
     *  null when absent. */
    PcieLink *findLink(const std::string &name);
    unsigned numDisks() const;
    IdeDisk &disk(unsigned i = 0);
    IdeDriver &ideDriver(unsigned i = 0);
    unsigned numTrafficGens() const;
    TrafficGen &trafficGen(unsigned i = 0);
    unsigned numNics() const;
    Nic8254xPcie &nic(unsigned i = 0);
    E1000eDriver &nicDriver(unsigned i = 0);
    EtherWire &wire(unsigned i = 0);
    /** @} */

    /** @{ Observability objects (null unless configured). */
    StatsSampler *sampler() { return sampler_.get(); }
    StatsDumper *dumper() { return dumper_.get(); }
    ErrReporter *errReporter() { return errReporter_.get(); }
    AerHandler *aerHandler() { return aerHandler_.get(); }
    /** @} */

    /** Write the full registry as stats.json to @p path. */
    void exportStatsJson(const std::string &path);

    /** @{ Canonical workloads: dd for storage.json and
     *  baseline.json, concurrent writes for multi_device.json, the
     *  MMIO probe for nic_loopback.json, direct writes for
     *  fanout256.json. */
    /** dd through the first IDE disk; returns goodput in Gbit/s. */
    double runDd(const DdWorkloadParams &dd);
    /** Program and start @p active traffic generators over kernel
     *  MMIO; returns aggregate goodput in Gbit/s. */
    double runConcurrentWrites(unsigned active, unsigned bursts,
                               std::uint32_t burst_bytes);
    /** Mean 4-byte MMIO read latency of NIC 0's STATUS register. */
    Tick measureMmioReadLatency(unsigned iterations = 100);
    /**
     * Drive every traffic generator directly (no enumeration, no
     * kernel MMIO): each DMA-writes @p bursts bursts of
     * @p burst_bytes into its own DRAM region. The only workload
     * available beyond the 256-bus enumeration ceiling.
     * @return aggregate goodput in Gbit/s.
     */
    double runDirectWrites(std::uint32_t bursts,
                           std::uint32_t burst_bytes);
    /** @} */

    /** Whether buildPcie() cut the fabric into link domains
     *  (see choosePartition(); sim().numDomains() / engine() give
     *  the partition itself). */
    bool partitioned() const { return partitioned_; }

    /** BAR0 base of traffic generator @p i (valid after boot). */
    Addr genMmioBase(unsigned i);
    /** BAR0 base of NIC @p i (valid after boot). */
    Addr nicMmioBase(unsigned i);

    /** @{ Paper Sec. VI-B readouts on disk 0's uplink. */
    double diskUplinkReplayFraction();
    std::uint64_t diskUplinkTimeouts();
    /** @} */

  private:
    /** The node kinds a description may name. */
    enum class Kind { Switch, IdeDisk, TrafficGen, Nic };

    /** One description node: resolved by validate(), then
     *  constructed by the style's build pass. */
    struct Node
    {
        FabricNodeDesc desc;     //!< link.name defaulted
        Kind kind = Kind::Switch;
        int parentIndex = -1;    //!< -1: attached to the rc
        int firstChild = -1;     //!< switch: first child node
        unsigned children = 0;   //!< switch: children attached
        unsigned portOnParent = 0;
        unsigned depth = 1;      //!< 1 = below a root port
        unsigned ports = 0;      //!< switch: resolved port count
        unsigned wireGroup = 0;  //!< nic: index, first-use order
        unsigned wirePort = 0;   //!< nic: port on that wire
        /** The upstream link, every default applied. */
        PcieLinkParams linkParams;
        Bdf bdf{0, 0, 0};        //!< endpoint / switch upstream
        unsigned internalBus = 0; //!< switch: downstream VP2P bus
        unsigned domain = 0;
        PcieLink *link = nullptr;
        PcieSwitch *sw = nullptr;
        /** The root complex or switch above the upstream link. */
        PcieRouter *parent = nullptr;
        PciDevice *dev = nullptr;
    };

    [[noreturn]] void failNode(const FabricNodeDesc &n,
                               const std::string &what);
    void validate();
    void buildHost();
    /** Whether buildPcie() cuts the fabric into link domains
     *  (DESIGN.md Sec. 10): at threads >= 1, when at least two
     *  device domains could overlap and no configuration pins the
     *  links (warned). */
    bool choosePartition() const;
    void buildPcie();
    void buildLegacyIo();
    void buildDevice(Node &n);
    void buildObservability();
    void wireAer();
    void registerTree();
    void auditConfig();
    void installIntxSink(PciDevice &dev, Tick intx_latency);
    /** Domain of the router above @p n's upstream link. */
    unsigned upstreamDomain(const Node &n) const;
    /** Lookahead from node @p idx up to the root complex: the sum
     *  over its upstream link and every ancestor's (0 for -1 or a
     *  node with no link). */
    Tick pathLookahead(int idx) const;
    /** The switch node owning the deepest downstream port routing
     *  @p bus, with that port; null when no switch routes it. */
    Node *containingSwitch(unsigned bus, int &port);
    /** Run @p fn on the switch port fronting @p bus, on the
     *  switch's domain, one root-to-switch lookahead from now. */
    void atSwitchPort(unsigned bus,
                      std::function<void(PcieSwitch &, unsigned)> fn);

    Simulation &sim_;
    FabricDesc desc_;

    std::vector<Node> nodes_;
    std::vector<int> rootChildren_;  //!< node index per root port
    std::vector<unsigned> switchIdx_; //!< node idx of switch i
    std::vector<unsigned> diskIdx_;
    bool partitioned_ = false;
    bool booted_ = false;

    std::unique_ptr<XBar> membus_;
    std::unique_ptr<XBar> iobus_;    //!< legacy-io only
    std::unique_ptr<Bridge> bridge_; //!< legacy-io only
    std::unique_ptr<SimpleMemory> dram_;
    std::unique_ptr<PciHost> pciHost_;
    std::unique_ptr<IntController> gic_;
    std::unique_ptr<IOCache> ioCache_;
    std::unique_ptr<RootComplex> rootComplex_;
    std::unique_ptr<Kernel> kernel_;
    std::vector<std::unique_ptr<EtherWire>> wires_;
    std::vector<std::unique_ptr<PcieLink>> links_;
    std::vector<std::unique_ptr<PcieSwitch>> switches_;
    std::vector<std::unique_ptr<IdeDisk>> disks_;
    std::vector<std::unique_ptr<TrafficGen>> gens_;
    std::vector<std::unique_ptr<Nic8254xPcie>> nics_;
    std::vector<std::unique_ptr<IdeDriver>> ideDrivers_;
    std::vector<std::unique_ptr<E1000eDriver>> nicDrivers_;
    std::unique_ptr<StatsSampler> sampler_;
    std::unique_ptr<StatsDumper> dumper_;
    std::unique_ptr<ErrReporter> errReporter_;
    std::unique_ptr<AerHandler> aerHandler_;
    /** @{ System-level dump-time formulas (stats v2). */
    stats::Formula replayFraction_;
    stats::Formula timeoutFraction_;
    /** @} */
    /** @{ Fabric roll-up over every link (DESIGN.md §14):
     *  utilization spread and credit-stall pressure, feeding
     *  pciesim-report's scaling diagnosis. */
    stats::Formula fabricLinks_;
    stats::Formula fabricMeanWireUtil_;
    stats::Formula fabricMaxWireUtil_;
    stats::Formula fabricCreditStallTicks_;
    stats::Formula fabricStalledIfs_;
    /** @} */
};

} // namespace pciesim

#endif // PCIESIM_TOPO_FABRIC_BUILDER_HH
