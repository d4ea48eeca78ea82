#include "err_reporter.hh"

#include "sim/parallel.hh"
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
ErrReporter::report(const ErrMsg &msg)
{
    // The message rides upstream out-of-band: it is queued here and
    // handed to the root-side sink after the reporting latency, in
    // report order.
    const bool cross = par::engineActive &&
                       par::currentQueue() != &eventq();
    Tick now = cross ? par::currentQueue()->curTick() : curTick();
    Tick when = now + deliveryLatency_;
    {
        std::unique_lock<std::mutex> lock(pendingMu_, std::defer_lock);
        if (par::concurrent)
            lock.lock();
        pending_.push_back(msg);
    }
    TRACE_MSG(Flag::Rc, now, name(), "queue ",
              errSeverityName(msg.sev), " from source 0x",
              msg.sourceId);
    if (cross) {
        // A detector on another link domain must not touch the
        // root queue's heap; route the wake-up through the engine
        // mailbox. (Error-generating configurations pin the fabric
        // to one domain today, but the reporter stays safe if that
        // ever changes.)
        par::activeEngine->postCall(eventq(), when,
                                    [this] { deliver(); });
        return;
    }
    // Deliveries ride the root (domain 0) queue. The named receiver
    // keeps this schedule visible to the domain-safety analyzer:
    // err_reporter.cc is a sanctioned cross-domain file.
    EventQueue *root_queue = &eventq();
    if (!deliverEvent_.scheduled())
        root_queue->schedule(&deliverEvent_, when);
}

std::uint64_t
ErrReporter::delivered(ErrSeverity sev) const
{
    return deliveredBySev_[static_cast<std::size_t>(sev)].value();
}

void
ErrReporter::deliver()
{
    ErrMsg msg;
    bool more = false;
    {
        std::unique_lock<std::mutex> lock(pendingMu_, std::defer_lock);
        if (par::concurrent)
            lock.lock();
        if (pending_.empty())
            return; // drained by an earlier mailboxed wake-up
        msg = pending_.front();
        pending_.pop_front();
        more = !pending_.empty();
    }
    ++deliveredBySev_[static_cast<std::size_t>(msg.sev)];
    TRACE_MSG(Flag::Rc, curTick(), name(), "deliver ",
              errSeverityName(msg.sev), " (AER bit 0x", msg.aerBit,
              ") from source 0x", msg.sourceId);
    if (sink_)
        sink_(msg);
    if (more && !deliverEvent_.scheduled()) {
        EventQueue *root_queue = &eventq();
        root_queue->schedule(&deliverEvent_,
                             curTick() + deliveryLatency_);
    }
}

} // namespace pciesim
