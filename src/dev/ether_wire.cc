#include "ether_wire.hh"

#include <cmath>

#include "sim/logging.hh"

namespace pciesim
{

EtherWire::EtherWire(Simulation &sim, const std::string &name,
                     const EtherWireParams &params)
    : SimObject(sim, name), params_(params)
{
    for (unsigned i = 0; i < 2; ++i) {
        dirs_[i].deliverEvent = std::make_unique<EventFunctionWrapper>(
            [this, i] { deliver(i ^ 1); },
            name + ".deliver" + std::to_string(i));
    }
}

EtherWire::~EtherWire() = default;

void
EtherWire::init()
{
    statsRegistry().add(name() + ".framesDelivered", &framesDelivered_,
                        "frames delivered");
    statsRegistry().add(name() + ".framesDropped", &framesDropped_,
                        "frames dropped by the receiver");
}

void
EtherWire::attach(unsigned end, EtherSink &sink)
{
    panicIf(end > 1, "wire has two ends");
    panicIf(sinks_[end] != nullptr, "wire end already attached");
    sinks_[end] = &sink;
}

Tick
EtherWire::freeAt(unsigned end) const
{
    return dirs_[end].busyUntil;
}

bool
EtherWire::transmit(unsigned end, const EtherFrame &frame)
{
    panicIf(end > 1, "wire has two ends");
    Direction &d = dirs_[end];
    Tick now = curTick();
    if (d.busyUntil > now)
        return false;

    Tick wire = static_cast<Tick>(
        std::ceil(static_cast<double>(frame.size) * 8.0 /
                  params_.rateGbps * 1000.0));
    d.busyUntil = now + wire;
    Tick arrive = d.busyUntil + params_.latency;
    d.inFlight.push_back({arrive, frame});
    if (!d.deliverEvent->scheduled())
        eventq().schedule(d.deliverEvent.get(), arrive);
    return true;
}

void
EtherWire::deliver(unsigned to_end)
{
    unsigned from = to_end ^ 1;
    Direction &d = dirs_[from];
    panicIf(d.inFlight.empty(), "wire delivery with nothing queued");
    EtherFrame frame = std::move(d.inFlight.front().second);
    d.inFlight.pop_front();
    if (!d.inFlight.empty()) {
        eventq().schedule(d.deliverEvent.get(),
                          d.inFlight.front().first);
    }

    // Loopback plug: with no sink on the far end, reflect.
    EtherSink *sink = sinks_[to_end] ? sinks_[to_end] : sinks_[from];
    if (sink != nullptr && sink->recvFrame(frame))
        ++framesDelivered_;
    else
        ++framesDropped_;
}

} // namespace pciesim
