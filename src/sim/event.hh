/**
 * @file
 * Event base classes for the discrete-event kernel.
 *
 * An Event is owned by the component that declares it (usually as a
 * data member) and can be in the event queue at most once. The queue
 * never owns events. Components with hot timers bind them with
 * MemberEventWrapper (a bare object pointer, no allocation);
 * EventFunctionWrapper binds an arbitrary callable for everything
 * else.
 *
 * Events are intrusive: the queue stores each event's heap slot in
 * the event itself (heapIndex_), which makes deschedule/reschedule
 * true O(log n) sift operations with no stale heap entries. Event
 * names are lazy interned C strings so an idle event carries no
 * std::string storage.
 */

#ifndef PCIESIM_SIM_EVENT_HH
#define PCIESIM_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "ticks.hh"

namespace pciesim
{

class EventQueue;

/**
 * Intern a dynamically built event name, returning a stable C
 * string that lives for the process. Names are built once per event
 * (at component construction), so the intern table stays small.
 */
const char *internEventName(const std::string &name);

/**
 * An occurrence scheduled to happen at a particular tick.
 *
 * Events due at the same tick fire in a deterministic order that
 * depends only on simulated history: FIFO among the schedules of
 * one firing event, or of the code outside any event (EventQueue).
 */
class Event
{
  public:
    /**
     * @param name Diagnostic name, shown in panics and traces.
     * The const char* overload must be a string with static storage
     * duration (literals); dynamically built names go through the
     * interning overload.
     */
    explicit Event(const char *name = "anon.event") : name_(name) {}
    explicit Event(const std::string &name)
        : name_(internEventName(name))
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the event queue when the event fires. */
    virtual void process() = 0;

    /** Whether the event is currently in an event queue. */
    bool scheduled() const { return heapIndex_ != invalidHeapIndex; }

    /** Tick the event will fire at; only valid when scheduled(). */
    Tick when() const { return when_; }

    const char *name() const { return name_; }

  private:
    friend class EventQueue;

    static constexpr std::size_t invalidHeapIndex =
        ~static_cast<std::size_t>(0);

    const char *name_;
    Tick when_ = 0;
    /** Slot in the owning queue's heap array; invalid when idle. */
    std::size_t heapIndex_ = invalidHeapIndex;
};

/** An event that runs a bound callable when it fires. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         const char *name = "anon.wrapped.event")
        : Event(name), callback_(std::move(callback))
    {}

    EventFunctionWrapper(std::function<void()> callback,
                         const std::string &name)
        : Event(name), callback_(std::move(callback))
    {}

    void process() override { callback_(); }

  private:
    std::function<void()> callback_;
};

/**
 * A self-deleting, heap-allocated one-shot event.
 *
 * Most events are member-owned and recur; a OneShotEvent carries a
 * single deferred callable across domains (Simulation::callAt) and
 * frees itself after firing. It must be scheduled exactly once and
 * never descheduled.
 */
class OneShotEvent : public Event
{
  public:
    explicit OneShotEvent(std::function<void()> fn)
        : Event("oneshot.event"), fn_(std::move(fn))
    {}

    void
    process() override
    {
        // Run after delete: the callable may outlive this event's
        // storage (e.g. re-enter the queue and allocate).
        auto fn = std::move(fn_);
        delete this;
        fn();
    }

  private:
    std::function<void()> fn_;
};

/**
 * An event that calls a member function on its owning object.
 *
 * Unlike EventFunctionWrapper this stores only a bare object
 * pointer: no heap-backed std::function, no capture storage, and
 * the call devirtualizes to a direct member call. Hot timers (link
 * TX/RX, replay and ACK timers, packet queues, DMA issue) use this.
 *
 *     MemberEventWrapper<LinkInterface,
 *                        &LinkInterface::tryTransmit> txEvent_;
 */
template <typename T, void (T::*Fn)()>
class MemberEventWrapper : public Event
{
  public:
    explicit MemberEventWrapper(T *obj,
                                const char *name = "anon.member.event")
        : Event(name), obj_(obj)
    {}

    MemberEventWrapper(T *obj, const std::string &name)
        : Event(name), obj_(obj)
    {}

    void process() override { (obj_->*Fn)(); }

  private:
    T *obj_;
};

} // namespace pciesim

#endif // PCIESIM_SIM_EVENT_HH
