#include "event_queue.hh"

#include <mutex>
#include <unordered_set>

#include "logging.hh"
#include "profiler.hh"

namespace pciesim
{

Event::~Event() = default;

const char *
internEventName(const std::string &name)
{
    // Node-based set: element addresses are stable across rehash.
    // Interned names live for the process; events are constructed
    // once per component, so the table stays small. Guarded by a
    // mutex: components may be built (and events named) by worker
    // threads once the parallel engine exists, and interning is
    // nowhere near any hot path.
    static std::mutex mutex;
    static std::unordered_set<std::string> names;
    std::lock_guard<std::mutex> lock(mutex);
    return names.insert(name).first->c_str();
}

void
EventQueue::siftUp(std::size_t i)
{
    Slot s = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / arity;
        if (!before(s, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].event->heapIndex_ = i;
        i = parent;
    }
    heap_[i] = s;
    s.event->heapIndex_ = i;
}

void
EventQueue::siftDown(std::size_t i)
{
    Slot s = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        std::size_t last = first + arity < n ? first + arity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], s))
            break;
        heap_[i] = heap_[best];
        heap_[i].event->heapIndex_ = i;
        i = best;
    }
    heap_[i] = s;
    s.event->heapIndex_ = i;
}

void
EventQueue::siftAny(std::size_t i)
{
    if (i > 0 && before(heap_[i], heap_[(i - 1) / arity]))
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::removeAt(std::size_t i)
{
    PCIESIM_AUDIT_ONLY(
        liveKeys_.erase({heap_[i].when, heap_[i].order, heap_[i].tie});)
    heap_[i].event->heapIndex_ = Event::invalidHeapIndex;
    Slot last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        heap_[i] = last;
        last.event->heapIndex_ = i;
        siftAny(i);
    }
}

#ifdef PCIESIM_ENABLE_AUDIT
void
EventQueue::auditKeyAdded(const Slot &s)
{
    auto [it, fresh] = liveKeys_.emplace(
        std::make_tuple(s.when, s.order, s.tie), s.event);
    PCIESIM_AUDIT(fresh, "events '", it->second->name(), "' and '",
                  s.event->name(), "' share the key (", s.when, ", ",
                  s.order, ", ", s.tie,
                  "); their order would depend on insertion order");
}
#endif

void
EventQueue::auditHeap() const
{
#ifdef PCIESIM_ENABLE_AUDIT
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        const Slot &s = heap_[i];
        PCIESIM_AUDIT(s.event != nullptr,
                      "heap slot ", i, " holds no event");
        PCIESIM_AUDIT(s.event->heapIndex_ == i,
                      "event '", s.event->name(), "' slot index ",
                      s.event->heapIndex_, " != heap position ", i);
        PCIESIM_AUDIT(s.when == s.event->when_,
                      "event '", s.event->name(), "' slot key tick ",
                      s.when, " != event tick ", s.event->when_);
        PCIESIM_AUDIT(s.when >= curTick_,
                      "event '", s.event->name(),
                      "' scheduled in the past (", s.when, " < ",
                      curTick_, ")");
        if (i > 0) {
            const Slot &parent = heap_[(i - 1) / arity];
            PCIESIM_AUDIT(!before(s, parent),
                          "heap order violated between slot ", i,
                          " ('", s.event->name(), "') and its parent");
        }
    }
#endif
}

void
EventQueue::schedule(Event *event, Tick when)
{
    scheduleKeyed(event, when, curTick_, nextTie());
}

void
EventQueue::scheduleKeyed(Event *event, Tick when, Tick key_order,
                          std::uint64_t key_tie)
{
    panicIf(event == nullptr, "scheduling null event");
    panicIf(event->scheduled(),
            "event '", event->name(), "' scheduled twice");
    panicIf(when < curTick_,
            "event '", event->name(), "' scheduled in the past (",
            when, " < ", curTick_, ")");

    event->when_ = when;
    event->heapIndex_ = heap_.size();
    heap_.push_back({when, key_order, key_tie, event});
    PCIESIM_AUDIT_ONLY(auditKeyAdded(heap_.back());)
    siftUp(event->heapIndex_);
    maybeAuditHeap();
}

void
EventQueue::scheduleEarliestKeyed(Event *event, Tick when,
                                  Tick key_order, std::uint64_t key_tie)
{
    panicIf(event == nullptr, "scheduling null event");
    if (!event->scheduled()) {
        scheduleKeyed(event, when, key_order, key_tie);
        return;
    }
    if (when >= event->when_)
        return;
    panicIf(when < curTick_,
            "event '", event->name(), "' pulled into the past (",
            when, " < ", curTick_, ")");
    panicIf(heap_[event->heapIndex_].event != event,
            "event '", event->name(), "' heap slot out of sync");

    setKey(event, when, key_order, key_tie);
    maybeAuditHeap();
}

void
EventQueue::deschedule(Event *event)
{
    panicIf(event == nullptr, "descheduling null event");
    panicIf(!event->scheduled(),
            "event '", event->name(), "' descheduled while not scheduled");
    panicIf(event->heapIndex_ >= heap_.size() ||
                heap_[event->heapIndex_].event != event,
            "event '", event->name(), "' heap slot out of sync");
    removeAt(event->heapIndex_);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    panicIf(event == nullptr, "rescheduling null event");
    if (!event->scheduled()) {
        schedule(event, when);
        return;
    }
    panicIf(when < curTick_,
            "event '", event->name(), "' rescheduled into the past (",
            when, " < ", curTick_, ")");
    panicIf(heap_[event->heapIndex_].event != event,
            "event '", event->name(), "' heap slot out of sync");

    // One in-place sift; a fresh key keeps deschedule+schedule's
    // position among same-tick events.
    setKey(event, when, curTick_, nextTie());
}

void
EventQueue::setKey(Event *event, Tick when, Tick key_order,
                   std::uint64_t key_tie)
{
    Slot &s = heap_[event->heapIndex_];
    PCIESIM_AUDIT_ONLY(liveKeys_.erase({s.when, s.order, s.tie});)
    event->when_ = when;
    s.when = when;
    s.order = key_order;
    s.tie = key_tie;
    PCIESIM_AUDIT_ONLY(auditKeyAdded(s);)
    siftAny(event->heapIndex_);
}

bool
EventQueue::step(Tick max_tick)
{
    if (heap_.empty() || heap_[0].when > max_tick)
        return false;

    const Slot top = heap_[0];
    curTick_ = top.when;
    removeAt(0);
    maybeAuditHeap();

    ++numProcessed_;
    // Schedules made by the event derive their ties from its key.
    firing_ = true;
    parentOrder_ = top.order;
    parentTie_ = top.tie;
    children_ = 0;
#if PCIESIM_PROFILING
    if (prof::enabledFlag) [[unlikely]]
        prof::profileProcess(top.event);
    else
#endif
        top.event->process();
    firing_ = false;
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    while (step(max_tick)) {
    }
    // Time advances to max_tick if the caller gave a horizon and
    // events remain beyond it; otherwise stay at the last event.
    if (max_tick != maxTick && curTick_ < max_tick)
        curTick_ = max_tick;
    return curTick_;
}

} // namespace pciesim
