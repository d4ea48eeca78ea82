/**
 * @file
 * A bounded, time-ordered outbound packet queue.
 *
 * Components enqueue packets with a "ready" tick (when the packet
 * has finished traversing the component); the queue emits them in
 * order through a user-supplied send functor, honouring the timing
 * protocol: a refused send parks the queue until retryNotify().
 *
 * Optionally enforces a minimum gap between consecutive sends
 * (serviceInterval), which models a per-packet service occupancy —
 * this is how the IOCache drain rate and crossbar layer occupancy
 * are expressed.
 *
 * The packets wait in a RingQueue (sim/ring_queue.hh): push() moves
 * the caller's reference in, and a slot releases its packet the
 * moment the packet is sent or cleared, so the queue never holds a
 * packet it no longer owns.
 */

#ifndef PCIESIM_MEM_PACKET_QUEUE_HH
#define PCIESIM_MEM_PACKET_QUEUE_HH

#include <functional>
#include <limits>
#include <string>

#include "mem/packet.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ring_queue.hh"
#include "sim/ticks.hh"

namespace pciesim
{

/**
 * An ordered queue of deferred packets with a retry-aware drain:
 * packets wait here until the downstream port accepts them, each
 * released at or after its ready tick.
 */
class PacketQueue
{
  public:
    using SendFunc = std::function<bool(const PacketPtr &)>;

    /**
     * @param eventq Event queue to schedule emissions on.
     * @param name Diagnostic name.
     * @param send Called to emit the head packet; returns false to
     *             refuse, after which the queue waits for
     *             retryNotify().
     * @param capacity Maximum queued packets (0 = unbounded).
     * @param service_interval Minimum gap between emissions.
     */
    PacketQueue(EventQueue &eventq, std::string name, SendFunc send,
                std::size_t capacity = 0, Tick service_interval = 0)
        : eventq_(eventq), name_(std::move(name)), send_(std::move(send)),
          capacity_(capacity), serviceInterval_(service_interval),
          sendEvent_(this, name_ + ".sendEvent")
    {}

    ~PacketQueue()
    {
        if (sendEvent_.scheduled())
            eventq_.deschedule(&sendEvent_);
    }

    /** Whether another packet can be accepted. */
    bool
    full() const
    {
        return capacity_ != 0 && queue_.size() >= capacity_;
    }

    std::size_t size() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }

    /**
     * Enqueue @p pkt to be emitted no earlier than @p ready.
     * It is a panic to push into a full queue; callers must check
     * full() and refuse upstream instead.
     */
    void
    push(PacketPtr pkt, Tick ready)
    {
        panicIf(full(), "push into full queue '", name_, "'");
        queue_.push_back({std::move(pkt), ready});
        scheduleSend();
    }

    /**
     * Containment / reset support: drop every queued packet without
     * emitting it and cancel the pending send.
     * @return the number of packets dropped.
     */
    std::size_t
    clear()
    {
        if (sendEvent_.scheduled())
            eventq_.deschedule(&sendEvent_);
        std::size_t n = queue_.size();
        queue_.clear();
        blocked_ = false;
        return n;
    }

    /** The peer that refused a send can now accept; try again. */
    void
    retryNotify()
    {
        if (blocked_) {
            blocked_ = false;
            scheduleSend();
        }
    }

    const std::string &name() const { return name_; }

    /**
     * Install a callback invoked after each successful emission
     * (i.e. whenever a slot frees up); used by owners to issue
     * protocol retries to refused senders.
     */
    void
    setOnSpaceFreed(std::function<void()> cb)
    {
        onSpaceFreed_ = std::move(cb);
    }

  private:
    struct Entry
    {
        PacketPtr pkt;
        Tick ready;
    };

    void
    scheduleSend()
    {
        if (blocked_ || queue_.empty() || sendEvent_.scheduled())
            return;
        Tick when = std::max({queue_.front().ready, nextSendAllowed_,
                              eventq_.curTick()});
        eventq_.schedule(&sendEvent_, when);
    }

    void
    processSend()
    {
        panicIf(queue_.empty(), "send event with empty queue '",
                name_, "'");
        if (send_(queue_.front().pkt)) {
            queue_.pop_front();
            nextSendAllowed_ = eventq_.curTick() + serviceInterval_;
            scheduleSend();
            if (onSpaceFreed_)
                onSpaceFreed_();
        } else {
            blocked_ = true;
        }
    }

    EventQueue &eventq_;
    std::string name_;
    SendFunc send_;
    std::size_t capacity_;
    Tick serviceInterval_;
    MemberEventWrapper<PacketQueue, &PacketQueue::processSend> sendEvent_;
    std::function<void()> onSpaceFreed_;
    RingQueue<Entry> queue_;
    Tick nextSendAllowed_ = 0;
    bool blocked_ = false;
};

} // namespace pciesim

#endif // PCIESIM_MEM_PACKET_QUEUE_HH
