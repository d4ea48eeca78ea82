/**
 * @file
 * Top-level simulation context: owns the event queue(s), the stats
 * registry, and the list of simulation objects.
 */

#ifndef PCIESIM_SIM_SIMULATION_HH
#define PCIESIM_SIM_SIMULATION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "event_queue.hh"
#include "parallel_mode.hh"
#include "stats.hh"
#include "ticks.hh"

namespace pciesim
{

class ParallelEngine;
class SimObject;

/**
 * A complete simulation instance.
 *
 * Components are constructed against a Simulation, wired together
 * through their ports, and then driven by run()/runFor(). Simulation
 * does not own SimObjects by default (they are usually members of a
 * System struct); own() can adopt heap-allocated helpers.
 *
 * Parallel mode (DESIGN.md §10): a topology may partition itself
 * into link domains at build time — addDomain() creates one event
 * queue per extra domain and DomainScope binds the objects
 * constructed inside it to that domain's queue. setupParallel()
 * then attaches a quantum-synchronized engine; run() drives all
 * domains through it. Event keys do not depend on the partition
 * (EventQueue), so every partition and thread count runs the
 * simulated history of the single queue; with no extra domains
 * run() simply drains that queue.
 */
class Simulation
{
  public:
    Simulation();
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The default (domain 0) event queue. */
    EventQueue &eventq() { return eventq_; }
    const EventQueue &eventq() const { return eventq_; }
    stats::Registry &statsRegistry() { return stats_; }

    /**
     * Current simulated time. Inside a parallel window this is the
     * executing domain's local tick; outside any window all queues
     * agree (the engine clamps them together at the end of every
     * run), so domain 0 speaks for the simulation.
     */
    Tick
    curTick() const
    {
        if (par::engineActive) [[unlikely]] {
            if (const EventQueue *q = par::currentQueue())
                return q->curTick();
        }
        return eventq_.curTick();
    }

    /** Called by the SimObject constructor. */
    void registerObject(SimObject *obj);

    /** Adopt ownership of a heap-allocated object. */
    template <typename T>
    T *
    own(std::unique_ptr<T> obj)
    {
        T *raw = obj.get();
        owned_.emplace_back(std::move(obj));
        return raw;
    }

    /** @{
     * Domain partitioning (build time, before initialize()).
     */

    /**
     * Create a new link domain with its own event queue and return
     * its id. @p label names the domain in telemetry output (stats
     * Vector subnames, Perfetto tracks, pciesim-report imbalance);
     * empty keeps the default "domain<id>".
     */
    unsigned addDomain(const std::string &label = "");

    /** Telemetry label of domain @p d ("host" for domain 0 unless
     *  overridden). */
    const std::string &domainLabel(unsigned d) const;

    /** Number of domains (1 == unpartitioned simulation). */
    unsigned numDomains() const
    {
        return 1 + static_cast<unsigned>(extraQueues_.size());
    }

    /** The event queue of domain @p d. */
    EventQueue &domainQueue(unsigned d);

    /** Domain that newly constructed SimObjects bind to. */
    unsigned buildDomain() const { return buildDomain_; }

    /**
     * RAII guard binding SimObjects constructed in its scope to a
     * given domain. Wrapping an existing construction statement in
     * a scope for domain 0 is a strict no-op, so topologies can
     * partition without reordering construction (stats registration
     * order, and with it stats.json, stays identical).
     */
    class DomainScope
    {
      public:
        DomainScope(Simulation &sim, unsigned domain)
            : sim_(sim), prev_(sim.buildDomain_)
        {
            sim.buildDomain_ = domain;
        }

        ~DomainScope() { sim_.buildDomain_ = prev_; }

        DomainScope(const DomainScope &) = delete;
        DomainScope &operator=(const DomainScope &) = delete;

      private:
        Simulation &sim_;
        unsigned prev_;
    };

    /**
     * Attach the parallel engine: @p threads workers advancing all
     * domains in windows of @p quantum ticks (the minimum
     * cross-domain link flight latency). Requires >= 2 domains.
     * Also registers the engine's per-domain telemetry block
     * ("system.parallel.*", DESIGN.md §14) with the stats registry,
     * using the labels given to addDomain().
     */
    void setupParallel(unsigned threads, Tick quantum);

    /** The attached engine, or null (single-queue run). */
    ParallelEngine *engine() { return engine_.get(); }

    /**
     * Run @p fn at tick @p when on domain @p d's queue: a keyed
     * message. From a foreign domain mid-window this is mailboxed
     * through the engine ((when - now) must be >= the quantum);
     * otherwise it schedules directly. Every cross-domain side
     * effect that is not a packet goes this way (INTx and AER
     * messages, a link's training messages, switch containment),
     * with a latency of at least the lookahead of the links it
     * crosses at every thread count (DESIGN.md §10).
     */
    void callAt(unsigned d, Tick when, std::function<void()> fn);

    /** Total events processed across every domain queue. */
    std::uint64_t eventsProcessed() const;
    /** @} */

    /** Run init()/startup() phases once; implied by run(). */
    void initialize();

    /** Run until the event queue drains or @p max_tick passes. */
    Tick run(Tick max_tick = maxTick);

    /** Run for a further @p duration ticks. */
    Tick runFor(Tick duration);

  private:
    /** Ties of schedules made outside any event, on any queue
     *  (EventQueue::nextTie()). */
    std::uint64_t bootTies_ = 0;
    EventQueue eventq_;
    std::vector<std::unique_ptr<EventQueue>> extraQueues_;
    /** Index == domain id; [0] defaults to "host". */
    std::vector<std::string> domainLabels_;
    std::unique_ptr<ParallelEngine> engine_;
    unsigned buildDomain_ = 0;
    stats::Registry stats_;
    std::vector<SimObject *> objects_;
    std::vector<std::unique_ptr<SimObject>> owned_;
    bool initialized_ = false;
};

} // namespace pciesim

#endif // PCIESIM_SIM_SIMULATION_HH
