#include "fabric_builder.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "os/mmio_probe.hh"
#include "pci/config_regs.hh"
#include "pci/platform.hh"
#include "sim/trace.hh"

namespace pciesim
{

namespace
{

[[noreturn]] void
jfail(const std::string &src, unsigned line, const std::string &what)
{
    if (line > 0)
        fatal("topology ", src, ":", line, ": ", what);
    fatal("topology ", src, ": ", what);
}

double
needNum(const std::string &src, const std::string &key,
        const json::Value &v)
{
    if (v.type != json::Value::Type::Number)
        jfail(src, v.line, "key '" + key + "' must be a number");
    return v.number;
}

/** Most nodes a document may expand to (count included). */
constexpr std::uint64_t maxFabricNodes = 65536;

/** A non-negative integer of at most @p max (default: 32 bits). */
std::uint64_t
needUInt(const std::string &src, const std::string &key,
         const json::Value &v, std::uint64_t max = UINT32_MAX)
{
    double d = needNum(src, key, v);
    if (d < 0 || d != std::floor(d)) {
        jfail(src, v.line,
              "key '" + key + "' must be a non-negative integer");
    }
    // For a 64-bit max the sum rounds to 2^64, the first value the
    // cast below cannot represent.
    if (d >= static_cast<double>(max) + 1.0) {
        jfail(src, v.line, "key '" + key + "' must be at most " +
                               std::to_string(max));
    }
    return static_cast<std::uint64_t>(d);
}

/** A positive integer of at most 32 bits. */
std::uint64_t
needCount(const std::string &src, const std::string &key,
          const json::Value &v)
{
    std::uint64_t u = needUInt(src, key, v);
    if (u == 0)
        jfail(src, v.line, "key '" + key + "' must be >= 1");
    return u;
}

Tick
needNsTick(const std::string &src, const std::string &key,
           const json::Value &v)
{
    double d = needNum(src, key, v);
    if (d < 0)
        jfail(src, v.line, "key '" + key + "' must be >= 0");
    double ticks = d * static_cast<double>(tickPerNs);
    if (ticks >= 0x1p64)
        jfail(src, v.line, "key '" + key + "' is out of range");
    return static_cast<Tick>(ticks);
}

bool
needBool(const std::string &src, const std::string &key,
         const json::Value &v)
{
    if (v.type != json::Value::Type::Bool)
        jfail(src, v.line, "key '" + key + "' must be a bool");
    return v.boolean;
}

std::string
needStr(const std::string &src, const std::string &key,
        const json::Value &v)
{
    if (v.type != json::Value::Type::String)
        jfail(src, v.line, "key '" + key + "' must be a string");
    return v.str;
}

void
applyConfigKey(SystemConfig &c, const std::string &src,
               const std::string &key, const json::Value &v)
{
    if (key == "gen") {
        std::uint64_t g = needUInt(src, key, v);
        if (g < 1 || g > 5)
            jfail(src, v.line, "config gen must be 1..5");
        c.gen = static_cast<PcieGen>(g);
    } else if (key == "upstream_link_width") {
        c.upstreamLinkWidth =
            static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "downstream_link_width") {
        c.downstreamLinkWidth =
            static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "rc_latency_ns") {
        c.rcLatency = needNsTick(src, key, v);
    } else if (key == "switch_latency_ns") {
        c.switchLatency = needNsTick(src, key, v);
    } else if (key == "port_buffer_size") {
        c.portBufferSize =
            static_cast<std::size_t>(needUInt(src, key, v));
    } else if (key == "replay_buffer_size") {
        c.replayBufferSize =
            static_cast<std::size_t>(needCount(src, key, v));
    } else if (key == "link_propagation_ns") {
        c.linkPropagation = needNsTick(src, key, v);
    } else if (key == "ack_immediate") {
        c.ackImmediate = needBool(src, key, v);
    } else if (key == "replay_timeout_scale") {
        c.replayTimeoutScale = needNum(src, key, v);
        if (c.replayTimeoutScale <= 0)
            jfail(src, v.line, "key '" + key + "' must be > 0");
    } else if (key == "switch_downstream_ports") {
        c.switchDownstreamPorts =
            static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "link_bit_error_rate") {
        c.linkBitErrorRate = needNum(src, key, v);
    } else if (key == "fault_seed") {
        c.faultSeed = needUInt(src, key, v, UINT64_MAX);
    } else if (key == "enable_nak") {
        c.enableNak = needBool(src, key, v);
    } else if (key == "retrain_latency_ns") {
        c.retrainLatency = needNsTick(src, key, v);
    } else if (key == "completion_timeout_ns") {
        c.completionTimeout = needNsTick(src, key, v);
    } else if (key == "aer_enabled") {
        c.aerEnabled = needBool(src, key, v);
    } else if (key == "aer_irq_line") {
        c.aerIrqLine = static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "aer_msg_latency_ns") {
        c.aerMsgLatency = needNsTick(src, key, v);
    } else if (key == "degrade_threshold") {
        c.degradeThreshold =
            static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "degrade_window_ns") {
        c.degradeWindow = needNsTick(src, key, v);
    } else if (key == "upconfigure_delay_ns") {
        c.upconfigureDelay = needNsTick(src, key, v);
    } else if (key == "unplug_at_chunk") {
        c.unplugAtChunk = needUInt(src, key, v, UINT64_MAX);
    } else if (key == "replug_delay_ns") {
        c.replugDelay = needNsTick(src, key, v);
    } else if (key == "threads") {
        c.threads = static_cast<unsigned>(needUInt(src, key, v));
    } else if (key == "intx_latency_ns") {
        c.intxLatency = needNsTick(src, key, v);
    } else if (key == "stats_sample_interval_ns") {
        c.statsSampleInterval = needNsTick(src, key, v);
    } else if (key == "stats_dump_interval_ns") {
        c.statsDumpInterval = needNsTick(src, key, v);
    } else if (key == "stats_dump_path") {
        c.statsDumpPath = needStr(src, key, v);
    } else if (key == "stats_json_out") {
        c.statsJsonOut = needStr(src, key, v);
    } else if (key == "trace_flags") {
        c.traceFlags = needStr(src, key, v);
    } else if (key == "trace_out") {
        c.traceOut = needStr(src, key, v);
    } else {
        jfail(src, v.line, "unknown config key '" + key + "'");
    }
}

FabricLinkDesc
parseLinkDesc(const std::string &src, const json::Value &v)
{
    if (v.type != json::Value::Type::Object)
        jfail(src, v.line, "key 'link' must be an object");
    FabricLinkDesc link;
    for (const auto &[key, lv] : v.obj) {
        if (key == "name") {
            link.name = needStr(src, key, lv);
        } else if (key == "width") {
            link.width = static_cast<unsigned>(needCount(src, key, lv));
        } else if (key == "gen") {
            link.gen = static_cast<int>(needCount(src, key, lv));
        } else if (key == "bit_error_rate") {
            // Negative is the builder's "inherit the config BER".
            link.bitErrorRate = needNum(src, key, lv);
            if (link.bitErrorRate < 0)
                jfail(src, lv.line, "key '" + key + "' must be >= 0");
        } else if (key == "replay_buffer_size") {
            link.replayBufferSize =
                static_cast<std::size_t>(needCount(src, key, lv));
        } else {
            jfail(src, lv.line, "unknown link key '" + key + "'");
        }
    }
    return link;
}

/** One description entry, before count expansion. */
struct RawNode
{
    FabricNodeDesc node;
    unsigned count = 1;
};

RawNode
parseNodeDesc(const std::string &src, const json::Value &v)
{
    if (v.type != json::Value::Type::Object)
        jfail(src, v.line, "each node must be an object");
    RawNode raw;
    FabricNodeDesc &n = raw.node;
    n.sourceLine = v.line;
    for (const auto &[key, nv] : v.obj) {
        if (key == "name") {
            n.name = needStr(src, key, nv);
        } else if (key == "kind") {
            n.kind = needStr(src, key, nv);
        } else if (key == "parent") {
            n.parent = needStr(src, key, nv);
        } else if (key == "count") {
            raw.count = static_cast<unsigned>(
                needUInt(src, key, nv, maxFabricNodes));
            if (raw.count == 0)
                jfail(src, nv.line, "node count must be >= 1");
        } else if (key == "link") {
            n.link = parseLinkDesc(src, nv);
        } else if (key == "ports") {
            n.ports = static_cast<unsigned>(needUInt(src, key, nv));
        } else if (key == "latency_ns") {
            n.latency = needNsTick(src, key, nv);
        } else if (key == "port_buffer_size") {
            n.portBufferSize =
                static_cast<std::size_t>(needUInt(src, key, nv));
        } else if (key == "wire") {
            n.wire = needStr(src, key, nv);
        } else if (key == "chunk_size") {
            n.chunkSize =
                static_cast<unsigned>(needCount(src, key, nv));
        } else if (key == "media_latency_ns") {
            n.mediaLatency = needNsTick(src, key, nv);
        } else if (key == "inter_burst_gap_ns") {
            n.interBurstGap = needNsTick(src, key, nv);
        } else if (key == "posted_writes") {
            n.postedWrites = needBool(src, key, nv);
        } else if (key == "desc_processing_ns") {
            n.descProcessing = needNsTick(src, key, nv);
        } else if (key == "allow_msi") {
            n.allowMsi = needBool(src, key, nv);
        } else {
            jfail(src, nv.line, "unknown node key '" + key + "'");
        }
    }
    if (n.name.empty())
        jfail(src, v.line, "node is missing a 'name'");
    if (n.kind.empty())
        jfail(src, v.line, "node is missing a 'kind'");
    return raw;
}

} // namespace

FabricDesc
parseFabricDesc(const json::Value &root, const std::string &source)
{
    FabricDesc desc;
    desc.source = source;
    if (root.type != json::Value::Type::Object)
        jfail(source, root.line, "document must be an object");

    std::vector<RawNode> raw;
    for (const auto &[key, v] : root.obj) {
        if (key == "style") {
            desc.style = needStr(source, key, v);
            if (desc.style != "pcie" && desc.style != "legacy-io") {
                jfail(source, v.line,
                      "style must be \"pcie\" or \"legacy-io\"");
            }
        } else if (key == "enumerate") {
            desc.enumerate = needBool(source, key, v);
        } else if (key == "system_stats") {
            desc.systemStats = needBool(source, key, v);
        } else if (key == "config") {
            if (v.type != json::Value::Type::Object) {
                jfail(source, v.line,
                      "key 'config' must be an object");
            }
            for (const auto &[ck, cv] : v.obj)
                applyConfigKey(desc.config, source, ck, cv);
        } else if (key == "traffic_gen") {
            if (v.type != json::Value::Type::Object) {
                jfail(source, v.line,
                      "key 'traffic_gen' must be an object");
            }
            for (const auto &[tk, tv] : v.obj) {
                if (tk == "inter_burst_gap_ns") {
                    desc.gen.interBurstGap =
                        needNsTick(source, tk, tv);
                } else if (tk == "pio_latency_ns") {
                    desc.gen.pioLatency = needNsTick(source, tk, tv);
                } else if (tk == "posted_writes") {
                    desc.gen.postedWrites = needBool(source, tk, tv);
                } else {
                    jfail(source, tv.line,
                          "unknown traffic_gen key '" + tk + "'");
                }
            }
        } else if (key == "nodes") {
            if (v.type != json::Value::Type::Array)
                jfail(source, v.line, "key 'nodes' must be an array");
            for (const json::Value &nv : v.arr)
                raw.push_back(parseNodeDesc(source, nv));
        } else {
            jfail(source, v.line, "unknown key '" + key + "'");
        }
    }

    // Count expansion: a node with "count": N becomes N instances
    // name0..nameN-1; children naming an expanded group as their
    // parent are distributed round-robin across it.
    std::map<std::string, unsigned> groups;
    for (const RawNode &r : raw) {
        if (desc.nodes.size() + r.count > maxFabricNodes) {
            jfail(source, r.node.sourceLine,
                  "the topology expands to more than " +
                      std::to_string(maxFabricNodes) + " nodes");
        }
        if (r.count == 1) {
            desc.nodes.push_back(r.node);
            continue;
        }
        groups[r.node.name] = r.count;
        for (unsigned i = 0; i < r.count; ++i) {
            FabricNodeDesc n = r.node;
            n.name += std::to_string(i);
            if (!n.link.name.empty())
                n.link.name += std::to_string(i);
            auto g = groups.find(n.parent);
            if (g != groups.end())
                n.parent += std::to_string(i % g->second);
            desc.nodes.push_back(std::move(n));
        }
    }
    // Round-robin parents for singleton children of a group too.
    for (FabricNodeDesc &n : desc.nodes) {
        auto g = groups.find(n.parent);
        if (g != groups.end())
            n.parent += "0";
    }
    return desc;
}

namespace topo
{

json::Value
parseJson(const std::string &text, const std::string &source)
{
    json::Value root;
    json::Error err;
    if (!json::parse(text, root, err))
        fatal("topology ", source, ":", err.line, ": ", err.what);
    return root;
}

} // namespace topo

FabricDesc
loadFabricDesc(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in.good(), "topology ", path, ": cannot open file");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseFabricDesc(topo::parseJson(ss.str(), path), path);
}

//
// Construction.
//

Fabric::Fabric(Simulation &sim, const FabricDesc &desc)
    : sim_(sim), desc_(desc)
{
    validate();
    buildHost();
    if (desc_.style == "legacy-io")
        buildLegacyIo();
    else
        buildPcie();
    buildObservability();
    auditConfig();
}

Fabric::~Fabric() = default;

void
Fabric::failNode(const FabricNodeDesc &n, const std::string &what)
{
    if (n.sourceLine > 0)
        fatal("topology ", desc_.source, ":", n.sourceLine, ": ",
              what);
    fatal("topology ", desc_.source, ": ", what);
}

void
Fabric::validate()
{
    const SystemConfig &config = desc_.config;
    fatalIf(desc_.style != "pcie" && desc_.style != "legacy-io",
            "topology ", desc_.source,
            ": style must be \"pcie\" or \"legacy-io\"");
    fatalIf(desc_.style == "legacy-io" && !desc_.enumerate,
            "topology ", desc_.source,
            ": legacy-io fabrics are always enumerable; remove "
            "\"enumerate\": false");
    fatalIf(config.linkBitErrorRate < 0.0 ||
                config.linkBitErrorRate >= 1.0,
            "topology ", desc_.source,
            ": config link_bit_error_rate must be in [0, 1)");
    fatalIf(static_cast<unsigned>(config.gen) < 1 ||
                static_cast<unsigned>(config.gen) > 5,
            "topology ", desc_.source, ": config gen must be 1..5");
    fatalIf(config.upstreamLinkWidth == 0 ||
                config.upstreamLinkWidth > 32 ||
                config.downstreamLinkWidth == 0 ||
                config.downstreamLinkWidth > 32,
            "topology ", desc_.source,
            ": config link widths must be 1..32 lanes");

    static const std::pair<const char *, Kind> kinds[] = {
        {"switch", Kind::Switch},
        {"ide_disk", Kind::IdeDisk},
        {"traffic_gen", Kind::TrafficGen},
        {"nic", Kind::Nic},
    };
    std::map<std::string, int> by_name;
    std::set<std::string> link_names;
    std::map<std::string, unsigned> wire_groups;
    std::vector<unsigned> wire_nics;
    for (const FabricNodeDesc &d : desc_.nodes) {
        const unsigned idx = static_cast<unsigned>(nodes_.size());
        Node n;
        n.desc = d;
        if (d.name.empty())
            failNode(d, "node is missing a 'name'");
        if (d.name == "rc") {
            failNode(d, "device name 'rc' is reserved for the root "
                        "complex");
        }
        if (by_name.count(d.name))
            failNode(d, "duplicate device name '" + d.name + "'");
        auto kind = std::find_if(
            std::begin(kinds), std::end(kinds),
            [&d](const auto &k) { return d.kind == k.first; });
        if (kind == std::end(kinds)) {
            failNode(d, "unknown device kind '" + d.kind +
                            "' (expected switch, ide_disk, "
                            "traffic_gen, or nic)");
        }
        n.kind = kind->second;
        if (d.link.gen != 0 && (d.link.gen < 1 || d.link.gen > 5))
            failNode(d, "link gen must be 1..5");
        if (d.link.width > 32)
            failNode(d, "link width must be 1..32 lanes");
        if (d.link.bitErrorRate >= 1.0)
            failNode(d, "link bit error rate must be in [0, 1)");
        if (n.kind == Kind::Switch) {
            n.ports = d.ports ? d.ports
                              : config.switchDownstreamPorts;
            if (n.ports == 0 || n.ports > 16) {
                failNode(d, "switch ports must be 1..16");
            }
        }
        if (d.parent == "rc") {
            n.parentIndex = -1;
            n.portOnParent =
                static_cast<unsigned>(rootChildren_.size());
            n.depth = 1;
            rootChildren_.push_back(static_cast<int>(idx));
        } else {
            auto it = by_name.find(d.parent);
            if (it == by_name.end()) {
                failNode(d, "unknown parent '" + d.parent +
                                "' (parents must be switches "
                                "declared before their children)");
            }
            Node &p = nodes_[it->second];
            if (p.kind != Kind::Switch) {
                failNode(d, "parent '" + d.parent +
                                "' is not a switch");
            }
            n.parentIndex = it->second;
            n.portOnParent = p.children++;
            if (n.portOnParent >= p.ports) {
                failNode(d, "switch '" + d.parent + "' has more "
                            "children than its " +
                            std::to_string(p.ports) +
                            " downstream ports");
            }
            if (p.firstChild < 0)
                p.firstChild = static_cast<int>(idx);
            n.depth = p.depth + 1;
        }
        if (n.kind == Kind::Nic) {
            auto group = wire_groups.emplace(d.wire, wire_nics.size());
            if (group.second)
                wire_nics.push_back(0);
            n.wireGroup = group.first->second;
            n.wirePort = wire_nics[n.wireGroup]++;
            if (n.wirePort >= 2) {
                failNode(d, "Ethernet wire '" + d.wire +
                                "' connects more than two NICs");
            }
        }
        FabricLinkDesc &link = n.desc.link;
        if (link.name.empty())
            link.name = d.name + "Link";
        if (!link_names.insert(link.name).second)
            failNode(d, "duplicate link name '" + link.name + "'");
        // Unset link fields take the role's SystemConfig default.
        unsigned width = link.width;
        if (width == 0) {
            width = n.kind == Kind::Switch ? config.upstreamLinkWidth
                                           : config.downstreamLinkWidth;
        }
        n.linkParams = config.makeLinkParams(width, idx);
        if (link.gen > 0)
            n.linkParams.gen = static_cast<PcieGen>(link.gen);
        if (link.bitErrorRate >= 0.0)
            n.linkParams.faults.bitErrorRate = link.bitErrorRate;
        if (link.replayBufferSize > 0)
            n.linkParams.replayBufferSize = link.replayBufferSize;
        by_name[d.name] = static_cast<int>(idx);
        if (n.kind == Kind::Switch)
            switchIdx_.push_back(idx);
        else if (n.kind == Kind::IdeDisk)
            diskIdx_.push_back(idx);
        nodes_.push_back(std::move(n));
    }

    if (desc_.style == "legacy-io") {
        fatalIf(nodes_.size() != 1 ||
                    nodes_[0].kind != Kind::IdeDisk,
                "topology ", desc_.source,
                ": legacy-io style supports exactly one ide_disk "
                "node");
        nodes_[0].bdf = Bdf{0, 0, 0};
        return;
    }

    if (rootChildren_.size() > 8) {
        failNode(nodes_[rootChildren_[8]].desc,
                 std::to_string(rootChildren_.size()) +
                     " devices attached to the root complex, which "
                     "supports at most 8 root ports; put a switch "
                     "level in between");
    }

    if (!desc_.enumerate) {
        fatalIf(config.aerEnabled, "topology ", desc_.source,
                ": AER requires an enumerable fabric");
        for (const Node &n : nodes_) {
            if (n.kind == Kind::IdeDisk || n.kind == Kind::Nic) {
                failNode(n.desc, "non-enumerated fabrics support "
                                 "only switch and traffic_gen "
                                 "nodes");
            }
            if (n.kind == Kind::TrafficGen &&
                !n.desc.postedWrites.value_or(desc_.gen.postedWrites)) {
                failNode(n.desc,
                         "non-enumerated fabrics require "
                         "posted_writes on every traffic "
                         "generator (completions cannot route "
                         "without bus numbers)");
            }
        }
        return;
    }

    // Emulate the enumerator's depth-first bus numbering (see
    // pci/enumerator.cc): every bridge — root port, switch
    // upstream, and each switch downstream port, occupied or not —
    // consumes one secondary bus, in device-slot order. Children
    // take their parent's ports in declaration order.
    std::vector<std::vector<int>> kids(nodes_.size());
    for (unsigned i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].parentIndex >= 0)
            kids[nodes_[i].parentIndex].push_back(
                static_cast<int>(i));
    }
    // The overflow cites the switch (or root port's child) whose
    // bridges ran out of bus numbers.
    unsigned counter = 0;
    auto next_bus = [&](const Node *owner) {
        ++counter;
        if (counter > 255) {
            std::string what = "the tree needs more than 255 buses; "
                               "set \"enumerate\": false to build it "
                               "without configuration-space "
                               "enumeration";
            if (owner != nullptr)
                failNode(owner->desc, what);
            fatal("topology ", desc_.source, ": ", what);
        }
        return counter;
    };
    std::function<void(int, unsigned)> assign =
        [&](int idx, unsigned bus) {
            Node &n = nodes_[idx];
            n.bdf = Bdf{static_cast<std::uint8_t>(bus), 0, 0};
            if (n.kind != Kind::Switch)
                return;
            n.internalBus = next_bus(&n);
            for (unsigned j = 0; j < n.ports; ++j) {
                unsigned child_bus = next_bus(&n);
                if (j < kids[idx].size())
                    assign(kids[idx][j], child_bus);
            }
        };
    unsigned num_root_ports = std::max<unsigned>(
        3, static_cast<unsigned>(rootChildren_.size()));
    for (unsigned i = 0; i < num_root_ports; ++i) {
        bool used = i < rootChildren_.size();
        unsigned bus =
            next_bus(used ? &nodes_[rootChildren_[i]] : nullptr);
        if (used)
            assign(rootChildren_[i], bus);
    }
}

void
Fabric::installIntxSink(PciDevice &dev, Tick intx_latency)
{
    PciDevice *d = &dev;
    if (intx_latency > 0) {
        dev.setIntxSink([this, d, intx_latency](bool asserted) {
            unsigned line = d->config().raw8(cfg::interruptLine);
            sim_.callAt(0, sim_.curTick() + intx_latency,
                        [this, line, asserted] {
                            gic_->setLevel(line, asserted);
                        });
        });
    } else {
        dev.setIntxSink([this, d](bool asserted) {
            gic_->setLevel(d->config().raw8(cfg::interruptLine),
                           asserted);
        });
    }
}

void
Fabric::buildHost()
{
    const SystemConfig &config = desc_.config;
    trace::applyConfig(config.traceFlags, config.traceOut);
    Packet::resetIds();

    membus_ = std::make_unique<XBar>(sim_, "system.membus",
                                     config.membus);
    dram_ = std::make_unique<SimpleMemory>(sim_, "system.dram",
                                           config.dram);
    pciHost_ = std::make_unique<PciHost>(sim_, "system.pciHost");
    gic_ = std::make_unique<IntController>(sim_, "system.gic",
                                           config.gic);

    IOCacheParams ioc = config.ioCache;
    if (ioc.ranges.empty())
        ioc.ranges = {platform::dramRange};
    ioCache_ = std::make_unique<IOCache>(sim_, "system.ioCache",
                                         ioc);

    KernelParams kp = config.kernel;
    if (config.completionTimeout > 0)
        kp.completionTimeout = config.completionTimeout;
    kernel_ = std::make_unique<Kernel>(sim_, "system.kernel",
                                       *pciHost_, *gic_, *dram_,
                                       kp);

    // MemBus: CPU and IOCache in, DRAM out; the style adds the
    // master port toward its IO fabric.
    kernel_->cpuPort().bind(membus_->addSlavePort("cpuSlave"));
    ioCache_->masterPort().bind(membus_->addSlavePort("iocSlave"));
    membus_->addMasterPort("dramMaster").bind(dram_->port());
}

void
Fabric::buildDevice(Node &n)
{
    const SystemConfig &config = desc_.config;
    const FabricNodeDesc &d = n.desc;
    const std::string name = "system." + d.name;
    Simulation::DomainScope scope(sim_, n.domain);
    if (n.kind == Kind::IdeDisk) {
        IdeDiskParams dkp = config.disk;
        IdeDriverParams drvp = config.ideDriver;
        if (config.completionTimeout > 0)
            dkp.dmaCompletionTimeout = config.completionTimeout;
        // The unplug script and AER recovery act through the
        // disk's PCIe link, so only a linked disk takes them.
        if (n.link != nullptr) {
            if (config.unplugAtChunk > 0)
                dkp.unplugAtChunk = config.unplugAtChunk;
            dkp.replugDelay = config.replugDelay;
            if (config.aerEnabled)
                drvp.trackRecovery = true;
        }
        dkp.chunkSize = d.chunkSize.value_or(dkp.chunkSize);
        dkp.mediaLatency = d.mediaLatency.value_or(dkp.mediaLatency);
        disks_.push_back(std::make_unique<IdeDisk>(sim_, name, dkp));
        n.dev = disks_.back().get();
        // The first driver keeps the historical stats name.
        std::string drv_name = "system.ideDriver";
        if (!ideDrivers_.empty())
            drv_name += std::to_string(ideDrivers_.size());
        ideDrivers_.push_back(
            std::make_unique<IdeDriver>(drvp, std::move(drv_name)));
    } else if (n.kind == Kind::TrafficGen) {
        TrafficGenParams tp = desc_.gen;
        tp.interBurstGap = d.interBurstGap.value_or(tp.interBurstGap);
        tp.postedWrites = d.postedWrites.value_or(tp.postedWrites);
        gens_.push_back(std::make_unique<TrafficGen>(sim_, name, tp));
        n.dev = gens_.back().get();
    } else {
        NicParams np = desc_.nic;
        np.descProcessing =
            d.descProcessing.value_or(np.descProcessing);
        np.allowMsi = d.allowMsi.value_or(np.allowMsi);
        nics_.push_back(
            std::make_unique<Nic8254xPcie>(sim_, name, np));
        n.dev = nics_.back().get();
        nicDrivers_.push_back(
            std::make_unique<E1000eDriver>(desc_.nicDriver));
    }
}

bool
Fabric::choosePartition() const
{
    const SystemConfig &config = desc_.config;
    if (config.threads == 0)
        return false;

    // Device domains: one per endpoint, except that NICs sharing an
    // Ethernet wire share one. With fewer than two, all device work
    // sits in one domain and nothing can overlap: every window runs
    // inline, so the engine adds only cost. Event keys do not depend
    // on the partition (DESIGN.md Sec. 10), so this choice changes
    // only wall time and is not warned.
    unsigned device_domains = 0;
    for (const Node &n : nodes_) {
        if (n.kind != Kind::Switch &&
            (n.kind != Kind::Nic || n.wirePort == 0))
            ++device_domains;
    }
    if (device_domains < 2)
        return false;

    // Observability that reads or resets every domain at one tick
    // pins the fabric to one queue until it runs as a barrier event
    // (DESIGN.md Sec. 10). Every model effect that crosses domains
    // travels as a keyed message of at least the lookahead.
    const char *pin =
        config.statsSampleInterval > 0 ? "periodic stats sampling"
        : config.statsDumpInterval > 0 ? "periodic stats dump epochs"
        : nullptr;
    if (pin == nullptr)
        return true;
    warn("fabric: --threads requested but ", pin,
         " pins the fabric to one event-queue domain; "
         "running single-queue");
    return false;
}

void
Fabric::buildPcie()
{
    const SystemConfig &config = desc_.config;

    // Domain assignment, in declaration order: one domain per
    // switch or endpoint; NICs sharing an Ethernet wire share one
    // domain (the wire models no latency, so they cannot be cut
    // apart), named after the wire group. Domain 0 is the host
    // side.
    partitioned_ = choosePartition();
    std::vector<unsigned> wire_domains;
    for (Node &n : nodes_) {
        if (!partitioned_)
            break;
        if (n.kind != Kind::Nic) {
            n.domain = sim_.addDomain(n.desc.name);
            continue;
        }
        if (n.wirePort == 0)
            wire_domains.push_back(sim_.addDomain(n.desc.wire));
        n.domain = wire_domains[n.wireGroup];
    }

    RootComplexParams rcp;
    rcp.numRootPorts = std::max<unsigned>(
        3, static_cast<unsigned>(rootChildren_.size()));
    rcp.latency = config.rcLatency;
    rcp.portBufferSize = config.portBufferSize;
    if (!rootChildren_.empty()) {
        const PcieLinkParams &first =
            nodes_[rootChildren_[0]].linkParams;
        rcp.linkWidth = first.width;
        rcp.linkGen = static_cast<unsigned>(first.gen);
    }
    rootComplex_ = std::make_unique<RootComplex>(sim_, "system.rc",
                                                 *pciHost_, rcp);

    // Ethernet wires, one per group, in first-use order, living in
    // the group's device domain.
    for (const Node &n : nodes_) {
        if (n.kind != Kind::Nic || n.wirePort != 0)
            continue;
        Simulation::DomainScope scope(sim_, n.domain);
        wires_.push_back(std::make_unique<EtherWire>(
            sim_, "system." + n.desc.wire, desc_.wire));
    }

    // MemBus out to the root complex; the MSI path exists only on
    // fabrics with NICs (keeps NIC-less stats dumps unchanged).
    membus_->addMasterPort("rcMaster")
        .bind(rootComplex_->upstreamSlavePort());
    if (!wires_.empty())
        membus_->addMasterPort("msiMaster").bind(gic_->msiPort());
    rootComplex_->upstreamMasterPort().bind(ioCache_->slavePort());

    // The tree, in declaration order: each node's upstream link in
    // its upstream end's domain, then the object itself inside its
    // domain (with its driver), and the port bindings.
    for (Node &n : nodes_) {
        {
            Simulation::DomainScope scope(sim_, upstreamDomain(n));
            links_.push_back(std::make_unique<PcieLink>(
                sim_, "system." + n.desc.link.name, n.linkParams));
            n.link = links_.back().get();
        }

        if (n.kind == Kind::Switch) {
            Simulation::DomainScope scope(sim_, n.domain);
            PcieSwitchParams swp;
            swp.numDownstreamPorts = n.ports;
            swp.latency = n.desc.latency ? n.desc.latency
                                         : config.switchLatency;
            swp.portBufferSize = n.desc.portBufferSize
                                     ? n.desc.portBufferSize
                                     : config.portBufferSize;
            swp.linkWidth = config.downstreamLinkWidth;
            swp.linkGen = static_cast<unsigned>(config.gen);
            if (n.firstChild >= 0) {
                const PcieLinkParams &down =
                    nodes_[n.firstChild].linkParams;
                swp.linkWidth = down.width;
                swp.linkGen = static_cast<unsigned>(down.gen);
            }
            swp.enableContainment = config.aerEnabled;
            switches_.push_back(std::make_unique<PcieSwitch>(
                sim_, "system." + n.desc.name, swp));
            n.sw = switches_.back().get();
        } else {
            buildDevice(n);
        }

        // Parent port <-> link <-> node.
        if (n.parentIndex < 0)
            n.parent = rootComplex_.get();
        else
            n.parent = nodes_[n.parentIndex].sw;
        n.parent->downstreamMaster(n.portOnParent)
            .bind(n.link->upSlave());
        n.link->upMaster().bind(
            n.parent->downstreamSlave(n.portOnParent));
        if (n.sw != nullptr) {
            n.link->downMaster().bind(n.sw->upstreamSlavePort());
            n.sw->upstreamMasterPort().bind(n.link->downSlave());
        } else {
            n.link->downMaster().bind(n.dev->pioPort());
            n.dev->dmaPort().bind(n.link->downSlave());
        }
        if (n.kind == Kind::Nic)
            nics_.back()->attachWire(*wires_[n.wireGroup], n.wirePort);
    }

    registerTree();

    // Hand each link's downstream interface to its domain's queue
    // and attach the quantum-synchronized engine; the quantum is
    // the minimum lookahead over the cut links.
    if (partitioned_) {
        Tick quantum = maxTick;
        for (Node &n : nodes_) {
            n.link->setDownstreamDomain(sim_.domainQueue(n.domain));
            quantum = std::min(quantum, n.link->lookahead());
        }
        sim_.setupParallel(config.threads, quantum);
    }

    if (config.aerEnabled)
        wireAer();
}

void
Fabric::registerTree()
{
    if (!desc_.enumerate)
        return;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node &n = nodes_[i];
        if (n.sw != nullptr) {
            pciHost_->registerFunction(n.sw->upstreamVp2p(),
                                       n.bdf);
            for (unsigned j = 0; j < n.ports; ++j) {
                pciHost_->registerFunction(
                    n.sw->downstreamVp2p(j),
                    Bdf{static_cast<std::uint8_t>(n.internalBus),
                        static_cast<std::uint8_t>(j), 0});
            }
        } else {
            pciHost_->registerFunction(*n.dev, n.bdf);
            // Assert_INTx is an in-band message: it takes at least
            // the lookahead of every link up to the root complex.
            // That sum is at least the quantum of any partition, so
            // the interrupt never undercuts the lookahead.
            installIntxSink(*n.dev,
                            std::max(desc_.config.intxLatency,
                                     pathLookahead(
                                         static_cast<int>(i))));
        }
    }
    for (auto &drv : ideDrivers_)
        kernel_->registerDriver(*drv);
    for (auto &drv : nicDrivers_)
        kernel_->registerDriver(*drv);
}

unsigned
Fabric::upstreamDomain(const Node &n) const
{
    return n.parentIndex < 0 ? 0 : nodes_[n.parentIndex].domain;
}

Tick
Fabric::pathLookahead(int idx) const
{
    Tick path = 0;
    for (int j = idx; j >= 0 && nodes_[j].link != nullptr;
         j = nodes_[j].parentIndex)
        path += nodes_[j].link->lookahead();
    return path;
}

Fabric::Node *
Fabric::containingSwitch(unsigned bus, int &port)
{
    // Ancestors' bridge windows cover every descendant bus, so the
    // switch owning the *deepest* claiming downstream port is the
    // one fronting the failed subtree.
    Node *best = nullptr;
    port = -1;
    // This runs on the root's domain, so it decodes each bridge
    // afresh rather than touch the switch's routing cache.
    for (unsigned idx : switchIdx_) {
        Node &n = nodes_[idx];
        for (unsigned p = 0; p < n.sw->numDownstreamPorts(); ++p) {
            if (!n.sw->downstreamVp2p(p).decodeRouting().busInRange(
                    bus))
                continue;
            if (best == nullptr || n.depth > best->depth) {
                best = &n;
                port = static_cast<int>(p);
            }
            break;
        }
    }
    return best;
}

void
Fabric::atSwitchPort(unsigned bus,
                     std::function<void(PcieSwitch &, unsigned)> fn)
{
    int port = -1;
    Node *n = containingSwitch(bus, port);
    if (n == nullptr)
        return;
    // The root reaches a switch port in band: the message takes at
    // least the lookahead of every link down to the switch.
    const Tick path = pathLookahead(static_cast<int>(n - nodes_.data()));
    sim_.callAt(n->domain, sim_.curTick() + path,
                [sw = n->sw, p = static_cast<unsigned>(port),
                 fn = std::move(fn)] { fn(*sw, p); });
}

void
Fabric::wireAer()
{
    const SystemConfig &config = desc_.config;
    errReporter_ = std::make_unique<ErrReporter>(
        sim_, "system.errReporter", config.aerMsgLatency);

    // Detecting agents: each link end latches errors into the AER
    // capability of the function fronting it, on that function's
    // domain, and unmasked errors ride the reporter to the root as
    // ERR_* messages. @p path is the function's lookahead to the
    // root, the least time such a message can take.
    auto latch = [this](PciFunction &fn, std::uint16_t source,
                        Tick path, ErrSeverity sev,
                        std::uint32_t bit) {
        if (sev == ErrSeverity::Correctable) {
            if (fn.aer().recordCorrectable(bit)) {
                errReporter_->report(
                    {ErrSeverity::Correctable, bit, source}, path);
            }
            return;
        }
        std::array<std::uint32_t, 4> hdr{};
        bool is_fatal = false;
        if (fn.aer().recordUncorrectable(bit, hdr, is_fatal)) {
            errReporter_->report({is_fatal ? ErrSeverity::Fatal
                                           : ErrSeverity::NonFatal,
                                  bit, source},
                                 path);
        }
    };

    // Where each function at a link end lives, for the kernel's
    // config transactions: its domain and its lookahead to the root.
    struct FnHome
    {
        unsigned domain;
        Tick path;
    };
    std::unordered_map<std::uint16_t, FnHome> homes;

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node &n = nodes_[i];
        PciFunction *up_fn =
            &n.parent->downstreamVp2p(n.portOnParent);
        std::uint16_t up_key =
            static_cast<std::uint16_t>(up_fn->bdf().key());
        const Tick up_path = pathLookahead(n.parentIndex);
        PciFunction *down_fn =
            n.sw != nullptr
                ? static_cast<PciFunction *>(&n.sw->upstreamVp2p())
                : static_cast<PciFunction *>(n.dev);
        std::uint16_t down_key =
            static_cast<std::uint16_t>(n.bdf.key());
        const Tick down_path = pathLookahead(static_cast<int>(i));
        homes[up_key] = {upstreamDomain(n), up_path};
        homes[down_key] = {n.domain, down_path};
        n.link->setErrorSink(
            [latch, up_fn, up_key, up_path, down_fn, down_key,
             down_path](ErrSeverity sev, std::uint32_t bit,
                        bool at_up) {
                if (at_up)
                    latch(*up_fn, up_key, up_path, sev, bit);
                else
                    latch(*down_fn, down_key, down_path, sev, bit);
            });

        // Surprise hot-unplug: the downstream port above the disk
        // detects the surprise down one link lookahead later, on
        // its own domain; the reported source is the vanished
        // device so containment targets its subtree.
        if (n.desc.kind == "ide_disk") {
            IdeDisk *disk = static_cast<IdeDisk *>(n.dev);
            std::uint16_t dev_key =
                static_cast<std::uint16_t>(n.bdf.key());
            const unsigned up_dom = upstreamDomain(n);
            const Tick hop = n.link->lookahead();
            disk->setUnplugHook([this, latch, up_fn, dev_key, up_path,
                                 up_dom, hop] {
                sim_.callAt(up_dom, sim_.curTick() + hop,
                            [latch, up_fn, dev_key, up_path] {
                                latch(*up_fn, dev_key, up_path,
                                      ErrSeverity::Fatal,
                                      cfg::aerUncSurpriseDown);
                            });
            });
            disk->setDmaTimeoutHook([latch, down_fn, dev_key,
                                     down_path] {
                latch(*down_fn, dev_key, down_path,
                      ErrSeverity::NonFatal,
                      cfg::aerUncCompletionTimeout);
            });
        }
    }

    // Requester-side completion timeouts become ERR_NONFATAL from
    // the requester's function.
    kernel_->setMmioTimeoutHook([this, latch](bool) {
        latch(rootComplex_->downstreamVp2p(0),
              static_cast<std::uint16_t>(Bdf{0, 0, 0}.key()), 0,
              ErrSeverity::NonFatal, cfg::aerUncCompletionTimeout);
    });

    // Root-side consumer: latch into the root port's root error
    // status block, contain the failed subtree on FATAL, and
    // interrupt the kernel.
    errReporter_->setSink([this](const ErrMsg &msg) {
        bool irq = rootComplex_->downstreamVp2p(0).aer().recordRootError(
            msg.sev, msg.sourceId);
        if (msg.sev == ErrSeverity::Fatal) {
            atSwitchPort((msg.sourceId >> 8) & 0xff,
                         [](PcieSwitch &sw, unsigned port) {
                             sw.containDownstreamPort(port);
                         });
        }
        if (irq)
            gic_->setLevel(desc_.config.aerIrqLine, true);
    });

    // The kernel's AER service: reads and clears the root error
    // status through config cycles, resets the function behind a
    // FATAL error, and coordinates driver recovery. Its config
    // cycles to a function below the root are non-posted requests:
    // the request reaches the function's domain after the
    // function's lookahead to the root and the completion returns
    // after the same, so the handler reads and clears device
    // registers only where the device runs. The root's own
    // functions (lookahead 0) are read in place.
    const unsigned kernel_dom = kernel_->eventq().domainId();
    auto route = [this, kernel_dom, homes = std::move(homes)](
                     Bdf bdf, AerHandler::ConfigOp op,
                     std::function<void(std::uint32_t)> done) {
        auto it = homes.find(static_cast<std::uint16_t>(bdf.key()));
        if (it == homes.end() || it->second.path == 0) {
            done(op());
            return;
        }
        const FnHome home = it->second;
        sim_.callAt(home.domain, sim_.curTick() + home.path,
                    [this, kernel_dom, home, op = std::move(op),
                     done = std::move(done)] {
                        const std::uint32_t value = op();
                        sim_.callAt(kernel_dom,
                                    sim_.curTick() + home.path,
                                    [done, value] { done(value); });
                    });
    };
    AerHandlerParams ahp;
    ahp.irqLine = config.aerIrqLine;
    aerHandler_ = std::make_unique<AerHandler>(
        *kernel_, Bdf{0, 0, 0}, std::move(route), ahp);
    aerHandler_->setIrqAck([this] {
        gic_->setLevel(desc_.config.aerIrqLine, false);
    });
    aerHandler_->setReleaseHook([this](Bdf bdf) {
        atSwitchPort(bdf.bus, [](PcieSwitch &sw, unsigned port) {
            sw.releaseDownstreamPort(port);
        });
    });
    for (auto &drv : ideDrivers_)
        aerHandler_->addClient(drv.get());
}

void
Fabric::buildLegacyIo()
{
    const SystemConfig &config = desc_.config;

    // The flat baseline has one device domain, its disk, so like
    // any such fabric it runs on one queue at every thread count
    // (see choosePartition()).

    iobus_ = std::make_unique<XBar>(sim_, "system.iobus",
                                    config.membus);
    // The MemBus -> IOBus bridge claims the whole off-chip range.
    BridgeParams bp;
    bp.delay = nanoseconds(50);
    bp.ranges = {platform::offChipRange};
    bridge_ = std::make_unique<Bridge>(sim_, "system.bridge", bp);
    Node &n = nodes_[0];
    buildDevice(n);

    membus_->addMasterPort("bridgeMaster")
        .bind(bridge_->slavePort());

    // IOBus wiring: PIO in from the bridge, DMA out via IOCache.
    bridge_->masterPort().bind(iobus_->addSlavePort("bridgeSlave"));
    n.dev->dmaPort().bind(iobus_->addSlavePort("diskDma"));
    iobus_->addMasterPort("diskPio").bind(n.dev->pioPort());
    iobus_->addMasterPort("iocMaster").bind(ioCache_->slavePort());

    // Flat topology: the disk is the only device on bus 0.
    registerTree();
}

void
Fabric::buildObservability()
{
    const SystemConfig &config = desc_.config;

    // Periodic goodput / replay-depth sampler (off by default).
    if (config.statsSampleInterval > 0) {
        sampler_ = std::make_unique<StatsSampler>(
            sim_, "system.sampler", config.statsSampleInterval);
        std::vector<IdeDisk *> ds;
        for (auto &d : disks_)
            ds.push_back(d.get());
        std::vector<TrafficGen *> gs;
        for (auto &g : gens_)
            gs.push_back(g.get());
        sampler_->addRate("goodputBytesPerSec", [ds, gs] {
            double total = 0.0;
            for (IdeDisk *d : ds)
                total += static_cast<double>(d->bytesTransferred());
            for (TrafficGen *g : gs)
                total += static_cast<double>(g->bytesMoved());
            return total;
        });
        for (auto &l : links_) {
            PcieLink *link = l.get();
            LinkInterface *down = &link->downstreamIf();
            LinkInterface *up = &link->upstreamIf();
            sampler_->addGauge(
                link->name() + ".up.replayDepth", [down] {
                    return static_cast<double>(down->replayDepth());
                });
            sampler_->addGauge(
                link->name() + ".down.replayDepth", [up] {
                    return static_cast<double>(up->replayDepth());
                });
        }
    }

    // m5out-style dump/reset stats epochs (off by default).
    if (config.statsDumpInterval > 0) {
        dumper_ = std::make_unique<StatsDumper>(
            sim_, "system.dumper", config.statsDumpInterval,
            config.statsDumpPath);
    }

    // Fabric roll-up (DESIGN.md §14): wire-occupancy spread and
    // credit-stall pressure across every link, the link-level
    // complement of the engine's per-domain flight recorder.
    // Registered for every fabric with links; all values derive
    // from simulated time only, so dumps stay thread-count
    // independent.
    if (!links_.empty()) {
        auto &reg = sim_.statsRegistry();
        fabricLinks_ = [this] {
            return static_cast<double>(links_.size());
        };
        reg.add("system.fabric.links", &fabricLinks_,
                "PCIe links instantiated by the topology",
                stats::Unit::Count);
        // Per-direction occupancy fraction of one wire at dump time.
        auto util = [](Tick busy, Tick now) {
            return now == 0 ? 0.0
                            : static_cast<double>(busy) /
                                  static_cast<double>(now);
        };
        fabricMeanWireUtil_ = [this, util] {
            Tick now = sim_.curTick();
            double sum = 0.0;
            for (auto &l : links_) {
                sum += util(l->wireUpBusyTicks(), now);
                sum += util(l->wireDownBusyTicks(), now);
            }
            return sum / (2.0 * static_cast<double>(links_.size()));
        };
        reg.add("system.fabric.meanWireUtilization",
                &fabricMeanWireUtil_,
                "mean wire occupancy over every link direction",
                stats::Unit::Ratio);
        fabricMaxWireUtil_ = [this, util] {
            Tick now = sim_.curTick();
            double top = 0.0;
            for (auto &l : links_) {
                top = std::max(top, util(l->wireUpBusyTicks(), now));
                top = std::max(top,
                               util(l->wireDownBusyTicks(), now));
            }
            return top;
        };
        reg.add("system.fabric.maxWireUtilization",
                &fabricMaxWireUtil_,
                "hottest single wire direction's occupancy",
                stats::Unit::Ratio);
        fabricCreditStallTicks_ = [this] {
            Tick total = 0;
            for (auto &l : links_)
                total += l->creditStallTicks();
            return static_cast<double>(total);
        };
        reg.add("system.fabric.creditStallTicks",
                &fabricCreditStallTicks_,
                "ticks any interface spent refusing TLPs for "
                "replay-buffer credit, summed over the fabric",
                stats::Unit::Tick);
        fabricStalledIfs_ = [this] {
            unsigned n = 0;
            for (auto &l : links_)
                n += l->acceptRefusals() > 0 ? 1 : 0;
            return static_cast<double>(n);
        };
        reg.add("system.fabric.stalledLinks", &fabricStalledIfs_,
                "links that refused at least one TLP for credit",
                stats::Unit::Count);
    }

    // System-level derived stats over every link's device-side
    // interface. Opt-in per description so fabrics without them
    // (NIC, multi-device) stay byte-identical to their legacy
    // classes, which never registered these formulas.
    if (!desc_.systemStats || links_.empty())
        return;
    // Share of the device-side interfaces' transmitted TLPs that
    // @p count counts.
    auto per_tx = [this](std::uint64_t (LinkInterface::*count)()
                             const) {
        return [this, count] {
            std::uint64_t tx = 0;
            std::uint64_t n = 0;
            for (auto &l : links_) {
                tx += l->downstreamIf().txTlps();
                n += (l->downstreamIf().*count)();
            }
            return tx == 0 ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(tx);
        };
    };
    const std::string ifs = links_.size() == 2
                                ? "device-side interfaces of both links"
                                : "device-side interfaces of all links";
    replayFraction_ = per_tx(&LinkInterface::replayedTlps);
    sim_.statsRegistry().add("system.replayFraction", &replayFraction_,
                             "replayed / transmitted TLPs, " + ifs,
                             stats::Unit::Ratio);
    timeoutFraction_ = per_tx(&LinkInterface::timeouts);
    sim_.statsRegistry().add("system.timeoutFraction",
                             &timeoutFraction_,
                             "replay-timer timeouts / transmitted "
                             "TLPs, " + ifs,
                             stats::Unit::Ratio);
}

void
Fabric::auditConfig()
{
    const SystemConfig &c = desc_.config;
    const SystemConfig def;
    const bool legacy_io = desc_.style == "legacy-io";
    const bool have_links = !links_.empty();
    // The unplug script needs a disk behind a PCIe link.
    const bool have_linked_disk = have_links && !disks_.empty();
    bool have_endpoint = false;
    bool used_up_width = false;
    bool used_down_width = false;
    bool used_switch_ports = false;
    for (const Node &n : nodes_) {
        const bool sw = n.kind == Kind::Switch;
        have_endpoint |= !sw;
        (sw ? used_up_width : used_down_width) |= n.desc.link.width == 0;
        used_switch_ports |= sw && n.desc.ports == 0;
    }

    // One entry per knob that some topology shapes ignore: a knob
    // explicitly set away from its default but never consumed by
    // this fabric is almost certainly a configuration mistake, so
    // say so instead of silently simulating something else.
    struct Knob
    {
        const char *name;
        bool set;
        bool used;
    };
    const Knob knobs[] = {
        {"gen", c.gen != def.gen, have_links},
        {"upstream_link_width",
         c.upstreamLinkWidth != def.upstreamLinkWidth,
         have_links && used_up_width},
        {"downstream_link_width",
         c.downstreamLinkWidth != def.downstreamLinkWidth,
         have_links && used_down_width},
        {"rc_latency_ns", c.rcLatency != def.rcLatency, !legacy_io},
        {"switch_latency_ns", c.switchLatency != def.switchLatency,
         !switchIdx_.empty()},
        {"port_buffer_size",
         c.portBufferSize != def.portBufferSize, !legacy_io},
        {"replay_buffer_size",
         c.replayBufferSize != def.replayBufferSize, have_links},
        {"link_propagation_ns",
         c.linkPropagation != def.linkPropagation, have_links},
        {"ack_immediate", c.ackImmediate != def.ackImmediate,
         have_links},
        {"replay_timeout_scale",
         c.replayTimeoutScale != def.replayTimeoutScale,
         have_links},
        {"switch_downstream_ports",
         c.switchDownstreamPorts != def.switchDownstreamPorts,
         used_switch_ports},
        {"link_bit_error_rate",
         c.linkBitErrorRate != def.linkBitErrorRate, have_links},
        {"fault_seed", c.faultSeed != def.faultSeed, have_links},
        {"enable_nak", c.enableNak != def.enableNak, have_links},
        {"retrain_latency_ns",
         c.retrainLatency != def.retrainLatency, have_links},
        {"aer_enabled", c.aerEnabled != def.aerEnabled, !legacy_io},
        {"degrade_threshold",
         c.degradeThreshold != def.degradeThreshold, have_links},
        {"unplug_at_chunk", c.unplugAtChunk != def.unplugAtChunk,
         have_linked_disk},
        {"replug_delay_ns", c.replugDelay != def.replugDelay,
         have_linked_disk},
        {"intx_latency_ns", c.intxLatency != def.intxLatency,
         desc_.enumerate && have_endpoint},
    };
    for (const Knob &k : knobs) {
        if (k.set && !k.used) {
            warn("fabric: config knob '", k.name,
                 "' is set but unused by this topology");
        }
    }
}

void
Fabric::boot()
{
    if (booted_)
        return;
    fatalIf(!desc_.enumerate,
            "fabric '", desc_.source, "' was built with "
            "\"enumerate\": false and cannot boot; drive it with "
            "runDirectWrites()");
    booted_ = true;
    sim_.initialize();
    kernel_->enumerate();
    if (!ideDrivers_.empty() || !nicDrivers_.empty())
        kernel_->probeDrivers();
    if (!nicDrivers_.empty()) {
        // Let the timed probe sequence (reset, EEPROM, rings)
        // finish.
        sim_.run();
        fatalIf(!nicDrivers_[0]->probed(),
                "boot failed: e1000e driver did not finish probing");
    }
    for (auto &drv : ideDrivers_) {
        fatalIf(!drv->probed(),
                "boot failed: the IDE driver did not probe the disk");
    }
}

double
Fabric::runDd(const DdWorkloadParams &dd)
{
    fatalIf(disks_.empty(),
            "fabric '", desc_.source, "' has no IDE disk to dd");
    boot();
    DdWorkload workload(*kernel_, *ideDrivers_[0], dd);
    bool done = false;
    workload.run([&done] { done = true; });
    sim_.run();
    fatalIf(!done, "dd did not complete (deadlock?)");
    // Flush the final partial epoch (without resetting, so the
    // caller's end-of-run readouts survive), then export
    // machine-readable stats while the workload is still alive.
    if (dumper_)
        dumper_->dumpEpoch(false);
    if (!desc_.config.statsJsonOut.empty())
        exportStatsJson(desc_.config.statsJsonOut);
    return workload.throughputGbps();
}

Addr
Fabric::genMmioBase(unsigned i)
{
    boot();
    const EnumeratedFunction *fn =
        kernel_->enumerate().find(trafficGen(i).bdf());
    panicIf(fn == nullptr || fn->bars.empty(),
            "traffic generator was not enumerated");
    return fn->bars[0].start();
}

Addr
Fabric::nicMmioBase(unsigned i)
{
    const EnumeratedFunction *fn =
        kernel_->enumerate().find(nic(i).bdf());
    panicIf(fn == nullptr || fn->bars.empty(),
            "NIC was not enumerated");
    return fn->bars[0].start();
}

double
Fabric::runConcurrentWrites(unsigned active, unsigned bursts,
                            std::uint32_t burst_bytes)
{
    boot();
    panicIf(active == 0 || active > gens_.size(),
            "bad active device count");

    // The level-triggered line re-dispatches the handler every
    // delivery period while the asynchronous DONE read is still in
    // flight; without a pending-read guard the ISR queues a fresh
    // read per dispatch behind the kernel's serialized MMIO queue,
    // which diverges whenever the read round-trip exceeds a few
    // dispatch periods. Guard it the way a real ISR would: at most
    // one outstanding DONE read per device.
    std::vector<bool> done_flags(active, false);
    std::vector<bool> read_pending(active, false);
    Tick start = sim_.curTick();
    for (unsigned i = 0; i < active; ++i) {
        Addr mmio = genMmioBase(i);
        Addr target = kernel_->allocDma(burst_bytes, 4096);
        Kernel &k = *kernel_;
        k.mmioWrite(mmio + tgen::regAddrLo, 4,
                    target & 0xffffffff, [] {});
        k.mmioWrite(mmio + tgen::regAddrHi, 4, target >> 32, [] {});
        k.mmioWrite(mmio + tgen::regLength, 4, burst_bytes, [] {});
        k.mmioWrite(mmio + tgen::regCount, 4, bursts, [] {});
        k.mmioWrite(mmio + tgen::regMode, 4, 0, [] {});
        unsigned line = kernel_->enumerate()
                            .find(gens_[i]->bdf())->irqLine;
        k.registerIrqHandler(line, [this, i, mmio, &done_flags,
                                    &read_pending] {
            // ISR: read DONE (deasserts INTx), flag completion.
            if (read_pending[i] || done_flags[i])
                return;
            read_pending[i] = true;
            kernel_->mmioRead(mmio + tgen::regDone, 4,
                              [i, &done_flags,
                               &read_pending](std::uint64_t) {
                read_pending[i] = false;
                done_flags[i] = true;
            });
        });
        k.mmioWrite(mmio + tgen::regCtrl, 4, tgen::ctrlStart, [] {});
    }
    sim_.run();
    unsigned completed = 0;
    for (bool f : done_flags)
        completed += f ? 1 : 0;
    fatalIf(completed != active,
            "concurrent run did not complete (", completed, " of ",
            active, ")");

    Tick elapsed = sim_.curTick() - start;
    double bytes = static_cast<double>(active) * bursts * burst_bytes;
    return bytes * 8.0 / ticksToSeconds(elapsed) / 1e9;
}

Tick
Fabric::measureMmioReadLatency(unsigned iterations)
{
    boot();
    // Read the STATUS register, as a kernel module would.
    MmioProbe probe(*kernel_, nicMmioBase(0) + nicreg::status);
    bool done = false;
    probe.run(iterations, [&done] { done = true; });
    sim_.run();
    fatalIf(!done, "MMIO probe did not complete");
    return probe.meanLatency();
}

double
Fabric::runDirectWrites(std::uint32_t bursts,
                        std::uint32_t burst_bytes)
{
    fatalIf(gens_.empty(),
            "fabric '", desc_.source,
            "' has no traffic generators to drive");
    sim_.initialize();
    Tick start = sim_.curTick();
    for (auto &g : gens_) {
        Addr target = kernel_->allocDma(burst_bytes, 4096);
        g->directStart(target, burst_bytes, bursts);
    }
    sim_.run();
    for (auto &g : gens_) {
        fatalIf(g->burstsCompleted() < bursts,
                "direct run did not complete on '", g->name(), "' (",
                g->burstsCompleted(), " of ", bursts, " bursts)");
    }
    Tick elapsed = sim_.curTick() - start;
    double bytes = static_cast<double>(gens_.size()) * bursts *
                   burst_bytes;
    return elapsed == 0
               ? 0.0
               : bytes * 8.0 / ticksToSeconds(elapsed) / 1e9;
}

void
Fabric::exportStatsJson(const std::string &path)
{
    std::ofstream os(path);
    fatalIf(!os, "cannot open stats.json output '", path, "'");
    sim_.statsRegistry().dumpJson(
        os, sim_.curTick(), dumper_ ? dumper_->epochsDumped() : 0);
}

double
Fabric::diskUplinkReplayFraction()
{
    panicIf(diskIdx_.empty(), "fabric has no disk");
    const auto &iface =
        nodes_[diskIdx_[0]].link->downstreamIf();
    std::uint64_t tx = iface.txTlps();
    return tx == 0 ? 0.0
                   : static_cast<double>(iface.replayedTlps()) /
                         static_cast<double>(tx);
}

std::uint64_t
Fabric::diskUplinkTimeouts()
{
    panicIf(diskIdx_.empty(), "fabric has no disk");
    return nodes_[diskIdx_[0]].link->downstreamIf().timeouts();
}

RootComplex &
Fabric::rootComplex()
{
    panicIf(rootComplex_ == nullptr,
            "legacy-io fabrics have no root complex");
    return *rootComplex_;
}

unsigned
Fabric::numSwitches() const
{
    return static_cast<unsigned>(switches_.size());
}

PcieSwitch &
Fabric::pcieSwitch(unsigned i)
{
    panicIf(i >= switches_.size(), "switch ", i, " does not exist");
    return *switches_[i];
}

std::vector<PcieLink *>
Fabric::links() const
{
    std::vector<PcieLink *> out;
    for (auto &l : links_)
        out.push_back(l.get());
    return out;
}

PcieLink &
Fabric::link(unsigned i)
{
    panicIf(i >= links_.size(), "link ", i, " does not exist");
    return *links_[i];
}

PcieLink *
Fabric::findLink(const std::string &name)
{
    std::string full = "system." + name;
    for (auto &l : links_) {
        if (l->name() == full)
            return l.get();
    }
    return nullptr;
}

unsigned
Fabric::numDisks() const
{
    return static_cast<unsigned>(disks_.size());
}

IdeDisk &
Fabric::disk(unsigned i)
{
    panicIf(i >= disks_.size(), "disk ", i, " does not exist");
    return *disks_[i];
}

IdeDriver &
Fabric::ideDriver(unsigned i)
{
    panicIf(i >= ideDrivers_.size(),
            "IDE driver ", i, " does not exist");
    return *ideDrivers_[i];
}

unsigned
Fabric::numTrafficGens() const
{
    return static_cast<unsigned>(gens_.size());
}

TrafficGen &
Fabric::trafficGen(unsigned i)
{
    panicIf(i >= gens_.size(),
            "traffic generator ", i, " does not exist");
    return *gens_[i];
}

unsigned
Fabric::numNics() const
{
    return static_cast<unsigned>(nics_.size());
}

Nic8254xPcie &
Fabric::nic(unsigned i)
{
    panicIf(i >= nics_.size(), "NIC ", i, " not instantiated");
    return *nics_[i];
}

E1000eDriver &
Fabric::nicDriver(unsigned i)
{
    panicIf(i >= nicDrivers_.size(),
            "driver ", i, " not instantiated");
    return *nicDrivers_[i];
}

EtherWire &
Fabric::wire(unsigned i)
{
    panicIf(i >= wires_.size(), "wire ", i, " does not exist");
    return *wires_[i];
}

} // namespace pciesim
