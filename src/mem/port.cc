#include "port.hh"

namespace pciesim
{

void
MasterPort::bind(SlavePort &peer)
{
    panicIf(peer_ != nullptr, "master port '", name(), "' already bound");
    panicIf(peer.peer_ != nullptr,
            "slave port '", peer.name(), "' already bound");
    peer_ = &peer;
    peer.peer_ = this;
    RoutingGeneration::bump();
}

SlavePort &
MasterPort::peer() const
{
    panicIf(peer_ == nullptr, "master port '", name(), "' is unbound");
    return *peer_;
}

bool
MasterPort::sendTimingReq(const PacketPtr &pkt)
{
    panicIf(!pkt->isRequest(),
            "sendTimingReq with non-request ", pkt->toString());
    return peer().recvTimingReq(pkt);
}

void
MasterPort::sendRetryResp()
{
    peer().recvRespRetry();
}

MasterPort &
SlavePort::peer() const
{
    panicIf(peer_ == nullptr, "slave port '", name(), "' is unbound");
    return *peer_;
}

bool
SlavePort::sendTimingResp(const PacketPtr &pkt)
{
    panicIf(!pkt->isResponse(),
            "sendTimingResp with non-response ", pkt->toString());
    return peer().recvTimingResp(pkt);
}

void
SlavePort::sendRetryReq()
{
    peer().recvReqRetry();
}

} // namespace pciesim
