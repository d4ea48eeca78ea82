#include "err_reporter.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace pciesim
{

using trace::Flag;

ErrReporter::ErrReporter(Simulation &sim, const std::string &name,
                         Tick delivery_latency)
    : SimObject(sim, name), deliveryLatency_(delivery_latency),
      deliverEvent_(this, name + ".deliverEvent")
{
    deliveredBySev_.init(3);
    deliveredBySev_.subname(0, "cor");
    deliveredBySev_.subname(1, "nonfatal");
    deliveredBySev_.subname(2, "fatal");
}

void
ErrReporter::init()
{
    statsRegistry().add(name() + ".delivered", &deliveredBySev_,
                        "error messages delivered to the root, "
                        "by severity", stats::Unit::Count);
}

void
ErrReporter::report(const ErrMsg &msg, Tick path)
{
    // The message rides upstream out-of-band: a keyed message to
    // the root domain, whichever domain detected the error.
    Simulation &s = sim();
    TRACE_MSG(Flag::Rc, s.curTick(), name(), "queue ",
              errSeverityName(msg.sev), " from source 0x",
              msg.sourceId);
    s.callAt(eventq().domainId(),
             s.curTick() + std::max(deliveryLatency_, path),
             [this, msg] { arrive(msg); });
}

void
ErrReporter::arrive(const ErrMsg &msg)
{
    pending_.push_back(msg);
    if (deliverEvent_.scheduled())
        return;
    if (curTick() >= nextFree_)
        deliver();
    else
        eventq().schedule(&deliverEvent_, nextFree_);
}

std::uint64_t
ErrReporter::delivered(ErrSeverity sev) const
{
    return deliveredBySev_[static_cast<std::size_t>(sev)].value();
}

void
ErrReporter::deliver()
{
    ErrMsg msg = pending_.front();
    pending_.pop_front();
    ++deliveredBySev_[static_cast<std::size_t>(msg.sev)];
    TRACE_MSG(Flag::Rc, curTick(), name(), "deliver ",
              errSeverityName(msg.sev), " (AER bit 0x", msg.aerBit,
              ") from source 0x", msg.sourceId);
    if (sink_)
        sink_(msg);
    nextFree_ = curTick() + deliveryLatency_;
    if (!pending_.empty())
        eventq().schedule(&deliverEvent_, nextFree_);
}

} // namespace pciesim
