/**
 * @file
 * The central event queue driving the simulation.
 */

#ifndef PCIESIM_SIM_EVENT_QUEUE_HH
#define PCIESIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "event.hh"
#include "invariant.hh"
#include "logging.hh"
#include "ticks.hh"

namespace pciesim
{

/**
 * An indexed d-ary (4-ary) min-heap event queue with deterministic
 * same-tick ordering.
 *
 * Each event carries its heap slot (Event::heapIndex_), so
 * deschedule and reschedule are true O(log n) sift operations on
 * the live entry: no stale heap entries, no skim pass on pop, and
 * no unbounded heap growth under heavy retry/replay-timer churn.
 * The heap stores the (when, order, tie) sort key by value next to the
 * event pointer, so sift comparisons stay within the contiguous
 * slot array instead of chasing Event pointers. A 4-ary layout
 * halves the tree depth of a binary heap and keeps the child scan
 * inside two cache lines of slots.
 *
 * Ordering (DESIGN.md §10): earliest tick first; at the same tick,
 * by the key (order, tie), where order is the tick the schedule was
 * made at and tie is a pure function of simulated history:
 *  - a schedule made while an event fires takes a tie derived from
 *    that parent's key — mix(parent order, parent tie) in the high
 *    48 bits over a sibling serial in the low 16 — so one firing's
 *    children keep FIFO order and children of different parents
 *    are ordered by the hash, whichever queue the parent ran on;
 *  - a schedule made outside any event (construction, startup,
 *    between runs) takes the next value of one counter per
 *    Simulation, shared by all of its queues.
 * No key depends on which queue an event lives on or on a worker
 * thread's progress, so a partitioned run at any thread count and
 * the single queue execute one order: the single queue is just the
 * fastest schedule of it. Cross-domain arrivals enter through the
 * keyed entry points (scheduleKeyed and friends) carrying the key
 * computed at post time on the sending domain.
 */
class EventQueue
{
  public:
    /**
     * @param domain_id The link domain this queue runs (0 for the
     *        host or an unpartitioned simulation).
     * @param boot_ties The counter behind ties of schedules made
     *        outside any event; a Simulation shares one among all
     *        of its queues. Null gives the queue its own.
     */
    explicit EventQueue(unsigned domain_id = 0,
                        std::uint64_t *boot_ties = nullptr)
        : domainId_(domain_id),
          bootTies_(boot_ties != nullptr ? boot_ties : &ownBootTies_)
    {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p event to fire at absolute tick @p when.
     * It is a panic to schedule in the past or to schedule an
     * already-scheduled event (use reschedule()).
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /**
     * Move a scheduled (or unscheduled) event to tick @p when.
     * A single in-place sift: the event keeps one heap slot and
     * the live-event count is unchanged (no deschedule+schedule
     * double accounting).
     */
    void reschedule(Event *event, Tick when);

    /** Whether any live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live (scheduled) events == heap occupancy. */
    std::size_t size() const { return heap_.size(); }

    /**
     * Run until the queue is empty or @p maxTick is passed.
     * @return the tick of the last processed event.
     */
    Tick run(Tick max_tick = maxTick);

    /**
     * Process a single event if one exists at or before @p maxTick.
     * @return true if an event was processed.
     */
    bool step(Tick max_tick = maxTick);

    /** Tick of the next live event, or maxTick when empty. */
    Tick nextTick() const
    {
        return heap_.empty() ? maxTick : heap_[0].when;
    }

    /** Total number of events processed so far. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** @{
     * Keyed scheduling and parallel-execution hooks
     * (sim/parallel.hh; DESIGN.md §10).
     */

    unsigned domainId() const { return domainId_; }

    /**
     * The tie of the next schedule made from this queue's context:
     * a child tie of the firing event, or the next boot-counter
     * value outside any event. Keyed posts (mailbox, wire delivery)
     * take theirs here, so they share one stream with schedule().
     */
    std::uint64_t
    nextTie()
    {
        if (!firing_)
            return (*bootTies_)++;
        if (children_ == 0)
            childBase_ = mixKey(parentOrder_, parentTie_) & ~serialMask;
        panicIf(children_ == serialMask,
                "one event firing at tick ", curTick_,
                " scheduled more than ", serialMask, " children");
        return childBase_ | ++children_;
    }

    /** Schedule with an explicit key computed on the sending
     *  domain (mailbox apply path). */
    void scheduleKeyed(Event *event, Tick when, Tick key_order,
                       std::uint64_t key_tie);

    /**
     * Keyed schedule-if-earlier: schedule when idle, pull in when
     * @p when precedes the pending occurrence, no-op otherwise.
     * Matches the wire's "schedule delivery for the head arrival"
     * idiom under monotone per-wire arrival times.
     */
    void scheduleEarliestKeyed(Event *event, Tick when,
                               Tick key_order, std::uint64_t key_tie);

    /**
     * Run every event strictly inside the window, i.e. with tick
     * <= @p horizon, without advancing curTick_ to the horizon
     * afterwards (the engine owns end-of-run clamping).
     * @return the number of events executed, the engine's
     *         per-domain telemetry unit (DESIGN.md §14) — a pure
     *         function of simulated history, so thread-count
     *         independent.
     */
    std::uint64_t
    runWindow(Tick horizon)
    {
        const std::uint64_t before = numProcessed_;
        while (step(horizon)) {
        }
        return numProcessed_ - before;
    }

    /** Clamp curTick_ forward to @p t (end of a parallel run). */
    void
    advanceTo(Tick t)
    {
        PCIESIM_AUDIT(nextTick() > t,
                      "advanceTo(", t, ") would skip a pending "
                      "event at ", nextTick());
        if (curTick_ < t)
            curTick_ = t;
    }

    /** Per-domain serial for deterministic packet ids. */
    std::uint64_t takeDomainSerial() { return domainSerial_++; }
    /** @} */

    /**
     * Full structural audit (audit builds; otherwise a no-op):
     * every slot's event points back at its slot, carries the same
     * tick as its by-value sort key, and satisfies d-ary heap order
     * against its parent. O(n); called every auditPeriod mutations
     * and directly by tests.
     */
    void auditHeap() const;

  private:
    /** Heap arity; 4 empirically beats 2 for slot heaps. */
    static constexpr std::size_t arity = 4;

    /** One heap entry: the sort key by value plus the event.
     *  32 bytes, so the 4-ary child scan still spans at most two
     *  cache lines of slots. order is the scheduling tick; tie is
     *  the nextTie() value of the schedule (see the class
     *  comment). */
    struct Slot
    {
        Tick when;
        std::uint64_t order;
        std::uint64_t tie;
        Event *event;
    };

    static bool
    before(const Slot &a, const Slot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.order != b.order)
            return a.order < b.order;
        return a.tie < b.tie;
    }

    /** Sibling serial bits in a child tie; the rest is the mix. */
    static constexpr std::uint64_t serialMask = 0xffff;

    /** A parent's (order, tie) key hashed by splitmix64's step,
     *  applied twice. The increment keeps (0, 0), the first boot
     *  event's key, from mixing to 0, which would put its
     *  children's ties among the boot counter's small values. */
    static std::uint64_t
    mixKey(std::uint64_t order, std::uint64_t tie)
    {
        auto step = [](std::uint64_t h) {
            h += 0x9e3779b97f4a7c15ULL;
            h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
            h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
            return h ^ (h >> 31);
        };
        return step(step(order) ^ tie);
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Re-establish heap order for slot @p i in either direction. */
    void siftAny(std::size_t i);
    /** Detach the event at slot @p i, refilling from the back. */
    void removeAt(std::size_t i);
    /** Re-key the scheduled @p event in place and sift it. */
    void setKey(Event *event, Tick when, Tick key_order,
                std::uint64_t key_tie);
    /** Audit builds: record @p s's key, panicking if another live
     *  event already holds it. */
    PCIESIM_AUDIT_ONLY(void auditKeyAdded(const Slot &s);)

    /** Audit builds: run auditHeap() every auditPeriod mutations. */
    void
    maybeAuditHeap()
    {
        PCIESIM_AUDIT_ONLY(
            if ((++auditCounter_ % auditPeriod) == 0)
                auditHeap();
        )
    }

    /** Mutations between full heap audits (audits are O(n)). */
    PCIESIM_AUDIT_ONLY(static constexpr std::uint64_t auditPeriod = 64;)

    std::vector<Slot> heap_;
    Tick curTick_ = 0;
    std::uint64_t numProcessed_ = 0;

    unsigned domainId_;
    std::uint64_t ownBootTies_ = 0;
    std::uint64_t *bootTies_;

    /** @{ The event being processed, whose key its children's
     *  ties derive from; childBase_ is mixed on the first child. */
    bool firing_ = false;
    std::uint64_t parentOrder_ = 0;
    std::uint64_t parentTie_ = 0;
    std::uint64_t childBase_ = 0;
    std::uint64_t children_ = 0;
    /** @} */

    std::uint64_t domainSerial_ = 0;
    PCIESIM_AUDIT_ONLY(std::uint64_t auditCounter_ = 0;)
    /** Audit builds: every live key, to catch two distinct events
     *  comparing equal (a 48-bit mix collision would leave their
     *  order to insertion order). */
    PCIESIM_AUDIT_ONLY(std::map<std::tuple<Tick, std::uint64_t,
                                           std::uint64_t>,
                                const Event *> liveKeys_;)
};

} // namespace pciesim

#endif // PCIESIM_SIM_EVENT_QUEUE_HH
