#include "xbar.hh"

#include <algorithm>

#include "sim/invariant.hh"
#include "sim/ring_queue.hh"

namespace pciesim
{

/**
 * A crossbar port facing a requestor. Owns the response egress
 * queue back toward that requestor.
 */
class XBar::XBarSlavePort : public SlavePort
{
  public:
    XBarSlavePort(XBar &xbar, const std::string &name)
        : SlavePort(name), xbar_(xbar),
          respQueue_(xbar.eventq(), name + ".respQueue",
                     [this](const PacketPtr &p) {
                         return sendTimingResp(p);
                     },
                     xbar.params_.queueCapacity,
                     xbar.occupancy())
    {
        respQueue_.setOnSpaceFreed([this] { notifyRespWaiters(); });
    }

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return xbar_.forwardRequest(pkt, this);
    }

    void recvRespRetry() override { respQueue_.retryNotify(); }

    AddrRangeList
    getAddrRanges() const override
    {
        return xbar_.routedRanges();
    }

    bool respFull() const { return respQueue_.full(); }

    void
    queueResp(const PacketPtr &pkt, Tick ready)
    {
        respQueue_.push(pkt, ready);
    }

    void
    addRespWaiter(XBarMasterPort *port)
    {
        if (std::find(respWaiters_.begin(), respWaiters_.end(), port) ==
            respWaiters_.end()) {
            respWaiters_.push_back(port);
        }
    }

  private:
    void notifyRespWaiters();

    XBar &xbar_;
    PacketQueue respQueue_;
    RingQueue<XBarMasterPort *> respWaiters_;
};

/**
 * A crossbar port facing a responder. Owns the request egress queue
 * toward that responder.
 */
class XBar::XBarMasterPort : public MasterPort
{
  public:
    XBarMasterPort(XBar &xbar, const std::string &name)
        : MasterPort(name), xbar_(xbar),
          reqQueue_(xbar.eventq(), name + ".reqQueue",
                    [this](const PacketPtr &p) {
                        return sendTimingReq(p);
                    },
                    xbar.params_.queueCapacity,
                    xbar.occupancy())
    {
        reqQueue_.setOnSpaceFreed([this] { notifyReqWaiters(); });
    }

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return xbar_.forwardResponse(pkt, this);
    }

    void recvReqRetry() override { reqQueue_.retryNotify(); }

    bool reqFull() const { return reqQueue_.full(); }

    void
    queueReq(const PacketPtr &pkt, Tick ready)
    {
        reqQueue_.push(pkt, ready);
    }

    void
    addReqWaiter(XBarSlavePort *port)
    {
        if (std::find(reqWaiters_.begin(), reqWaiters_.end(), port) ==
            reqWaiters_.end()) {
            reqWaiters_.push_back(port);
        }
    }

    void retryRespLater() { sendRetryResp(); }

  private:
    void notifyReqWaiters();

    XBar &xbar_;
    PacketQueue reqQueue_;
    RingQueue<XBarSlavePort *> reqWaiters_;
};

void
XBar::XBarSlavePort::notifyRespWaiters()
{
    while (!respWaiters_.empty() && !respQueue_.full()) {
        XBarMasterPort *w = respWaiters_.front();
        respWaiters_.pop_front();
        w->retryRespLater();
    }
}

void
XBar::XBarMasterPort::notifyReqWaiters()
{
    while (!reqWaiters_.empty() && !reqQueue_.full()) {
        XBarSlavePort *w = reqWaiters_.front();
        reqWaiters_.pop_front();
        w->sendRetryReq();
    }
}

XBar::XBar(Simulation &sim, const std::string &name,
           const XBarParams &params)
    : SimObject(sim, name), params_(params)
{}

XBar::~XBar() = default;

Tick
XBar::occupancy() const
{
    // Approximate per-packet data-path occupancy using a cache-line
    // transfer; most bulk traffic is cache-line sized.
    return 64 / params_.widthBytes * params_.bytePeriod;
}

SlavePort &
XBar::addSlavePort(const std::string &port_name)
{
    slavePorts_.emplace_back(
        std::make_unique<XBarSlavePort>(*this, name() + "." + port_name));
    return *slavePorts_.back();
}

MasterPort &
XBar::addMasterPort(const std::string &port_name)
{
    masterPorts_.emplace_back(
        std::make_unique<XBarMasterPort>(*this, name() + "." + port_name));
    return *masterPorts_.back();
}

void
XBar::setDefaultPort(MasterPort &port)
{
    for (std::size_t i = 0; i < masterPorts_.size(); ++i) {
        if (masterPorts_[i].get() == &port) {
            defaultPortIdx_ = static_cast<int>(i);
            return;
        }
    }
    panic("setDefaultPort: port '", port.name(),
          "' does not belong to xbar '", name(), "'");
}

void
XBar::init()
{
    statsRegistry().add(name() + ".reqPackets", &reqPackets_,
                        "requests forwarded");
    statsRegistry().add(name() + ".respPackets", &respPackets_,
                        "responses forwarded");
    statsRegistry().add(name() + ".reqRetries", &reqRetries_,
                        "requests refused due to full egress queue");
    for (const auto &mp : masterPorts_) {
        fatalIf(!mp->isBound(),
                "xbar master port '", mp->name(), "' is unbound");
    }
    for (const auto &sp : slavePorts_) {
        fatalIf(!sp->isBound(),
                "xbar slave port '", sp->name(), "' is unbound");
    }
}

AddrRangeList
XBar::routedRanges() const
{
    AddrRangeList all;
    for (const auto &mp : masterPorts_) {
        if (!mp->isBound())
            continue;
        for (const auto &r : mp->peer().getAddrRanges())
            all.push_back(r);
    }
    return all;
}

int
XBar::scanRoute(Addr addr) const
{
    for (std::size_t i = 0; i < masterPorts_.size(); ++i) {
        for (const auto &r : masterPorts_[i]->peer().getAddrRanges()) {
            if (r.contains(addr))
                return static_cast<int>(i);
        }
    }
    return defaultPortIdx_;
}

int
XBar::route(Addr addr)
{
    // Rebuild when any port binding or configuration space has
    // changed since the last build (a peer's ranges can follow a
    // BAR or a bridge window). The generation is read first, so a
    // change during the rebuild leaves the table stale.
    const std::uint64_t gen = RoutingGeneration::current();
    if (routesGeneration_ != gen) [[unlikely]] {
        routes_.clear();
        for (std::size_t i = 0; i < masterPorts_.size(); ++i) {
            for (const auto &r : masterPorts_[i]->peer().getAddrRanges())
                routes_.push_back({r, static_cast<int>(i)});
        }
        routesGeneration_ = gen;
    }
    int idx = defaultPortIdx_;
    for (const Route &r : routes_) {
        if (r.range.contains(addr)) {
            idx = r.port;
            break;
        }
    }
    PCIESIM_AUDIT(idx == scanRoute(addr), "xbar '", name(),
                  "' routes ", addr,
                  " by a stale table at routing generation ", gen);
    return idx;
}

bool
XBar::forwardRequest(const PacketPtr &pkt, XBarSlavePort *src)
{
    int idx = route(pkt->addr());
    panicIf(idx < 0, "xbar '", name(), "': no route for ",
            pkt->toString());
    XBarMasterPort *dst = masterPorts_[static_cast<std::size_t>(idx)].get();

    if (dst->reqFull()) {
        ++reqRetries_;
        dst->addReqWaiter(src);
        return false;
    }

    ++reqPackets_;
    if (pkt->needsResponse())
        routeBack_.emplace_back(pkt->id(), src);
    dst->queueReq(pkt, curTick() + params_.frontendLatency);
    return true;
}

bool
XBar::forwardResponse(const PacketPtr &pkt, XBarMasterPort *from)
{
    auto it = std::find_if(routeBack_.begin(), routeBack_.end(),
                           [id = pkt->id()](const auto &e) {
                               return e.first == id;
                           });
    panicIf(it == routeBack_.end(),
            "xbar '", name(), "': response for unknown request ",
            pkt->toString());
    XBarSlavePort *dst = it->second;

    if (dst->respFull()) {
        dst->addRespWaiter(from);
        return false;
    }

    routeBack_.erase(it);
    ++respPackets_;
    dst->queueResp(pkt, curTick() + params_.responseLatency);
    return true;
}

} // namespace pciesim
