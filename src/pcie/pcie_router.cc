#include "pcie_router.hh"

#include "pci/config_regs.hh"
#include "pci/platform.hh"

namespace pciesim
{

class PcieRouter::UpSlavePort : public SlavePort
{
  public:
    UpSlavePort(PcieRouter &r, const std::string &name)
        : SlavePort(name), r_(r)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return r_.handleDownwardRequest(pkt);
    }

    void
    recvRespRetry() override
    {
        r_.upRespQueue_->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // A root complex claims the whole off-chip PCI region on the
        // MemBus; a switch accepts the window programmed into its
        // upstream VP2P (paper Sec. V-B). Fine-grained routing
        // happens inside using the downstream VP2P windows.
        if (!r_.upVp2p_)
            return {platform::offChipRange};
        AddrRangeList ranges;
        AddrRange mem = r_.upVp2p_->memWindow();
        AddrRange io = r_.upVp2p_->ioWindow();
        if (!mem.empty())
            ranges.push_back(mem);
        if (!io.empty())
            ranges.push_back(io);
        return ranges;
    }

  private:
    PcieRouter &r_;
};

class PcieRouter::UpMasterPort : public MasterPort
{
  public:
    UpMasterPort(PcieRouter &r, const std::string &name)
        : MasterPort(name), r_(r)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return r_.handleDownwardResponse(pkt);
    }

    void
    recvReqRetry() override
    {
        r_.upReqQueue_->retryNotify();
    }

  private:
    PcieRouter &r_;
};

class PcieRouter::DownMasterPort : public MasterPort
{
  public:
    DownMasterPort(PcieRouter &r, unsigned index,
                   const std::string &name)
        : MasterPort(name), r_(r), index_(index)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return r_.handleUpwardResponse(pkt);
    }

    void
    recvReqRetry() override
    {
        r_.downReqQueues_[index_]->retryNotify();
    }

  private:
    PcieRouter &r_;
    unsigned index_;
};

class PcieRouter::DownSlavePort : public SlavePort
{
  public:
    DownSlavePort(PcieRouter &r, unsigned index,
                  const std::string &name)
        : SlavePort(name), r_(r), index_(index)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return r_.handleUpwardRequest(pkt, index_);
    }

    void
    recvRespRetry() override
    {
        r_.downRespQueues_[index_]->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // DMA from downstream reaches memory upstream.
        return {platform::dramRange};
    }

  private:
    PcieRouter &r_;
    unsigned index_;
};

PcieRouter::PcieRouter(Simulation &sim, const std::string &name,
                       Role role)
    : SimObject(sim, name), role_(std::move(role)),
      contained_(role_.downVp2ps.size(), false)
{
    upSlave_ = std::make_unique<UpSlavePort>(*this, name + ".upSlave");
    upMaster_ = std::make_unique<UpMasterPort>(*this,
                                               name + ".upMaster");
    if (role_.upVp2p)
        upVp2p_ = std::make_unique<Vp2p>(name + ".upVp2p", *role_.upVp2p);

    upReqQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".upReqQueue",
        [this](const PacketPtr &p) {
            return upMaster_->sendTimingReq(p);
        },
        role_.portBufferSize);
    upRespQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".upRespQueue",
        [this](const PacketPtr &p) {
            return upSlave_->sendTimingResp(p);
        },
        role_.portBufferSize);

    for (unsigned i = 0; i < numDownstreamPorts(); ++i) {
        std::string pname = name + "." + role_.portPrefix +
                            std::to_string(i);
        downMasters_.push_back(std::make_unique<DownMasterPort>(
            *this, i, pname + ".master"));
        downSlaves_.push_back(std::make_unique<DownSlavePort>(
            *this, i, pname + ".slave"));
        downVp2ps_.push_back(std::make_unique<Vp2p>(
            pname + ".vp2p", role_.downVp2ps[i]));

        downReqQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".reqQueue",
            [this, i](const PacketPtr &p) {
                return downMasters_[i]->sendTimingReq(p);
            },
            role_.portBufferSize));
        downRespQueues_.push_back(std::make_unique<PacketQueue>(
            eventq(), pname + ".respQueue",
            [this, i](const PacketPtr &p) {
                return downSlaves_[i]->sendTimingResp(p);
            },
            role_.portBufferSize));

        // A slot freed below retries the refused upstream sender.
        downReqQueues_[i]->setOnSpaceFreed([this, i] {
            if (upWantsReqRetry_ && !downReqQueues_[i]->full()) {
                upWantsReqRetry_ = false;
                upSlave_->sendRetryReq();
            }
        });
        downRespQueues_[i]->setOnSpaceFreed([this, i] {
            if (upWantsRespRetry_ && !downRespQueues_[i]->full()) {
                upWantsRespRetry_ = false;
                upMaster_->sendRetryResp();
            }
        });
    }
}

PcieRouter::~PcieRouter() = default;

SlavePort &
PcieRouter::upstreamSlavePort()
{
    return *upSlave_;
}

MasterPort &
PcieRouter::upstreamMasterPort()
{
    return *upMaster_;
}

MasterPort &
PcieRouter::downstreamMaster(unsigned i)
{
    return *downMasters_.at(i);
}

SlavePort &
PcieRouter::downstreamSlave(unsigned i)
{
    return *downSlaves_.at(i);
}

Vp2p &
PcieRouter::upstreamVp2p()
{
    panicIf(!upVp2p_, role_.kind, " '", name(),
            "' has no upstream VP2P");
    return *upVp2p_;
}

Vp2p &
PcieRouter::downstreamVp2p(unsigned i)
{
    return *downVp2ps_.at(i);
}

void
PcieRouter::init()
{
    auto &reg = statsRegistry();
    using stats::Unit;
    const std::string noun = role_.portNoun;
    reg.add(name() + ".fwdDownRequests", &fwdDownRequests_,
            "requests forwarded to " + noun + "s", Unit::Count);
    reg.add(name() + ".fwdUpRequests", &fwdUpRequests_,
            role_.upRequestsDesc, Unit::Count);
    reg.add(name() + ".fwdDownResponses", &fwdDownResponses_,
            "responses forwarded to " + noun + "s", Unit::Count);
    reg.add(name() + ".fwdUpResponses", &fwdUpResponses_,
            role_.upResponsesDesc, Unit::Count);
    reg.add(name() + ".bufferRefusals", &bufferRefusals_,
            "packets refused due to full port buffers", Unit::Count);

    portRequests_.init(numDownstreamPorts());
    portResponses_.init(numDownstreamPorts());
    for (unsigned i = 0; i < numDownstreamPorts(); ++i) {
        portRequests_.subname(i, role_.statPrefix + std::to_string(i));
        portResponses_.subname(i,
                               role_.statPrefix + std::to_string(i));
    }
    reg.add(name() + ".portRequests", &portRequests_,
            "requests forwarded per " + noun, Unit::Count);
    reg.add(name() + ".portResponses", &portResponses_,
            "responses forwarded per " + noun, Unit::Count);

    if (role_.enableContainment) {
        reg.add(name() + ".containments", &containments_,
                "downstream ports taken down after a FATAL error",
                Unit::Count);
        reg.add(name() + ".containedDrops", &containedDrops_,
                "TLPs dropped at contained downstream ports",
                Unit::Count);
        reg.add(name() + ".urCompletions", &urCompletions_,
                "all-ones UR completions for reads to contained "
                "ports", Unit::Count);
    }

    // Downstream ports may legitimately be left unconnected (the
    // paper's validation topology uses one of three root ports);
    // unbound ports just never see traffic.
    fatalIf(!upSlave_->isBound() || !upMaster_->isBound(),
            role_.kind, " '", name(), "' upstream port unbound");
}

void
PcieRouter::containDownstreamPort(unsigned i)
{
    panicIf(!role_.enableContainment, role_.kind, " '", name(),
            "': containment requested but not enabled");
    panicIf(i >= numDownstreamPorts(), role_.kind, " '", name(),
            "': containing nonexistent port ", i);
    if (contained_[i])
        return;
    contained_[i] = true;
    ++containments_;
    // The port is down: whatever was queued toward (or from) the
    // dead device is lost with it.
    std::size_t dropped = downReqQueues_[i]->clear() +
                          downRespQueues_[i]->clear();
    containedDrops_ += dropped;
    TRACE_MSG(role_.traceFlag, curTick(), name(),
              "contained downstream port ", i, "; dropped ", dropped,
              " queued TLPs");
    inform(role_.kind, " '", name(), "': downstream port ", i,
           " contained after FATAL error (", dropped,
           " TLPs dropped)");
}

void
PcieRouter::releaseDownstreamPort(unsigned i)
{
    panicIf(i >= numDownstreamPorts(), role_.kind, " '", name(),
            "': releasing nonexistent port ", i);
    if (!contained_[i])
        return;
    contained_[i] = false;
    TRACE_MSG(role_.traceFlag, curTick(), name(),
              "released downstream port ", i);
}

bool
PcieRouter::portContained(unsigned i) const
{
    return i < contained_.size() && contained_[i];
}

int
PcieRouter::routeByAddress(Addr addr)
{
    for (unsigned i = 0; i < numDownstreamPorts(); ++i) {
        if (downVp2ps_[i]->claims(addr))
            return static_cast<int>(i);
    }
    return -1;
}

int
PcieRouter::routeByBus(int bus)
{
    if (bus < 0)
        return -1;
    for (unsigned i = 0; i < numDownstreamPorts(); ++i) {
        if (downVp2ps_[i]->busInRange(static_cast<unsigned>(bus)))
            return static_cast<int>(i);
    }
    return -1;
}

bool
PcieRouter::enqueue(PacketQueue &q, const PacketPtr &pkt)
{
    if (q.full()) {
        ++bufferRefusals_;
        return false;
    }
    q.push(pkt, curTick() + role_.latency);
    return true;
}

bool
PcieRouter::sendDown(unsigned port, const PacketPtr &pkt)
{
    if (pkt->isRequest()) {
        if (!enqueue(*downReqQueues_[port], pkt))
            return false;
        ++fwdDownRequests_;
        ++portRequests_[port];
    } else {
        if (!enqueue(*downRespQueues_[port], pkt))
            return false;
        ++fwdDownResponses_;
        ++portResponses_[port];
    }
    return true;
}

bool
PcieRouter::handleDownwardRequest(const PacketPtr &pkt)
{
    // The upstream slave stamps the bus behind it: 0 below the host
    // bridge, the upstream VP2P's secondary bus in a switch (paper
    // Sec. V-A/V-B).
    if (pkt->pciBusNumber() < 0) {
        pkt->setPciBusNumber(
            upVp2p_ ? static_cast<int>(upVp2p_->secondaryBus()) : 0);
    }

    int route = routeByAddress(pkt->addr());
    panicIf(route < 0, role_.kind, " '", name(),
            "': no downstream VP2P window claims ", pkt->toString());
    auto port = static_cast<unsigned>(route);

    if (contained_[port]) {
        // Port is error-contained: non-posted requests complete as
        // unsupported requests (all-ones data), posted ones vanish.
        if (pkt->needsResponse()) {
            if (upRespQueue_->full()) {
                ++bufferRefusals_;
                return false;
            }
            pkt->makeResponse();
            if (pkt->isRead()) {
                switch (pkt->size()) {
                  case 1:
                    pkt->set<std::uint8_t>(0xff);
                    break;
                  case 2:
                    pkt->set<std::uint16_t>(0xffff);
                    break;
                  case 4:
                    pkt->set<std::uint32_t>(0xffffffffu);
                    break;
                  default:
                    pkt->set<std::uint64_t>(~0ULL);
                    break;
                }
            }
            ++urCompletions_;
            TRACE_MSG(role_.traceFlag, curTick(), name(),
                      "UR completion for contained port ", port, ": ",
                      pkt->toString());
            upRespQueue_->push(pkt, curTick() + role_.latency);
        } else {
            ++containedDrops_;
        }
        return true;
    }

    if (!sendDown(port, pkt)) {
        upWantsReqRetry_ = true;
        return false;
    }
    TRACE_MSG(role_.traceFlag, curTick(), name(), "route down to ",
              role_.portNoun, " ", port, ": ", pkt->toString());
    return true;
}

bool
PcieRouter::handleUpwardRequest(const PacketPtr &pkt, unsigned i)
{
    if (contained_[i]) {
        // Stale traffic from a contained (removed) device: drop it.
        ++containedDrops_;
        return true;
    }

    // Stamp the ingress secondary bus number into the request so
    // the response can be routed back (paper Sec. V-A).
    if (pkt->pciBusNumber() < 0) {
        pkt->setPciBusNumber(
            static_cast<int>(downVp2ps_[i]->secondaryBus()));
    }

    // Peer-to-peer: another downstream VP2P window may claim the
    // address.
    int port = routeByAddress(pkt->addr());
    if (port >= 0)
        return sendDown(static_cast<unsigned>(port), pkt);

    // Otherwise the request heads upstream (DMA to memory).
    if (!enqueue(*upReqQueue_, pkt))
        return false;
    ++fwdUpRequests_;
    TRACE_MSG(role_.traceFlag, curTick(), name(), "route up from ",
              role_.portNoun, " ", i, ": ", pkt->toString());
    return true;
}

bool
PcieRouter::handleDownwardResponse(const PacketPtr &pkt)
{
    int route = routeByBus(pkt->pciBusNumber());
    panicIf(route < 0, role_.kind, " '", name(),
            "': no downstream VP2P bus range matches response ",
            pkt->toString());
    auto port = static_cast<unsigned>(route);

    if (contained_[port]) {
        ++containedDrops_;
        return true;
    }
    if (!sendDown(port, pkt)) {
        upWantsRespRetry_ = true;
        return false;
    }
    return true;
}

bool
PcieRouter::handleUpwardResponse(const PacketPtr &pkt)
{
    // Responses whose bus number falls in a downstream VP2P's range
    // go back down that port; everything else exits upstream
    // (paper Sec. V-A).
    int port = routeByBus(pkt->pciBusNumber());
    if (port >= 0)
        return sendDown(static_cast<unsigned>(port), pkt);

    if (!enqueue(*upRespQueue_, pkt))
        return false;
    ++fwdUpResponses_;
    return true;
}

namespace
{

PcieRouter::Role
rootComplexRole(const std::string &name, const RootComplexParams &p)
{
    fatalIf(p.numRootPorts == 0 || p.numRootPorts > 8,
            "root complex '", name, "': 1..8 root ports supported");

    // Device IDs follow the Intel Wildcat Point root ports the
    // paper uses: 0x9c90, 0x9c92, 0x9c94 (Sec. V-A).
    static constexpr std::uint16_t wildcat_ids[] = {
        cfg::deviceWildcatRp0, cfg::deviceWildcatRp1,
        cfg::deviceWildcatRp2, 0x9c96, 0x9c98, 0x9c9a, 0x9c9c, 0x9c9e,
    };

    PcieRouter::Role role{
        "root complex", trace::Flag::Rc, "rootPort", "rootPort",
        "root port", "DMA requests forwarded to the IOCache",
        "responses forwarded to the MemBus", p.latency,
        p.portBufferSize, std::nullopt, {}};
    for (unsigned i = 0; i < p.numRootPorts; ++i) {
        Vp2pParams vp;
        vp.deviceId = wildcat_ids[i];
        vp.portType = cfg::PciePortType::RootPort;
        vp.linkWidth = p.linkWidth;
        vp.linkGen = p.linkGen;
        role.downVp2ps.push_back(vp);
    }
    return role;
}

PcieRouter::Role
switchRole(const std::string &name, const PcieSwitchParams &p)
{
    fatalIf(p.numDownstreamPorts == 0 || p.numDownstreamPorts > 16,
            "switch '", name, "': 1..16 downstream ports supported");

    Vp2pParams vp;
    vp.deviceId = cfg::deviceSwitchPort;
    vp.portType = cfg::PciePortType::SwitchUpstream;
    vp.linkWidth = p.linkWidth;
    vp.linkGen = p.linkGen;
    vp.slotImplemented = false;

    PcieRouter::Role role{
        "switch", trace::Flag::Switch, "downPort", "port",
        "downstream port", "requests forwarded upstream",
        "responses forwarded upstream", p.latency, p.portBufferSize,
        vp, {}, p.enableContainment};
    vp.portType = cfg::PciePortType::SwitchDownstream;
    vp.slotImplemented = true;
    role.downVp2ps.assign(p.numDownstreamPorts, vp);
    return role;
}

} // namespace

RootComplex::RootComplex(Simulation &sim, const std::string &name,
                         PciHost &host,
                         const RootComplexParams &params)
    : PcieRouter(sim, name, rootComplexRole(name, params))
{
    // VP2Ps register with the PCI Host like endpoints
    // (paper Sec. V-A): bus 0, device number = port index.
    for (unsigned i = 0; i < numDownstreamPorts(); ++i) {
        host.registerFunction(downstreamVp2p(i),
                              Bdf{0, static_cast<std::uint8_t>(i), 0});
    }
}

PcieSwitch::PcieSwitch(Simulation &sim, const std::string &name,
                       const PcieSwitchParams &params)
    : PcieRouter(sim, name, switchRole(name, params))
{}

} // namespace pciesim
