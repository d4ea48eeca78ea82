/**
 * @file
 * Conservative quantum-synchronized parallel engine (DESIGN.md §10).
 *
 * The engine drives one EventQueue per link domain in lockstep
 * windows: every window spans [global minimum next tick, minimum +
 * quantum), where the quantum is the smallest link flight latency
 * crossing any domain boundary. Because a packet posted at tick t
 * arrives no earlier than t + quantum >= window end, cross-domain
 * events always land in a later window — domains never need to see
 * each other's state mid-window, so each one runs lock-free on its
 * own worker thread.
 *
 * Cross-domain scheduling goes through one outbox per source
 * domain: the source's worker appends operations, each tagged with
 * its destination, during its window (it is the only writer of that
 * vector). A single thread drains them inside the barrier's
 * completion step: it gathers the window's posts, sorts them into
 * (dest, source, FIFO) order and applies them before the next window
 * is computed, so the drain's cost grows with the posts, not with
 * the domain pairs. The composite ordering key for each operation is
 * computed at post time on the sending domain, so heap order on the
 * destination is a pure function of simulated history — identical
 * for any thread count (the determinism contract enforced by the
 * tier-2 parallel gate).
 */

#ifndef PCIESIM_SIM_PARALLEL_HH
#define PCIESIM_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "event_queue.hh"
#include "parallel_mode.hh"
#include "stats.hh"
#include "ticks.hh"

namespace pciesim
{

/**
 * Thread pool + barrier driving a set of domain event queues under
 * conservative quantum synchronization. Constructed once per
 * Simulation (setupParallel); run() may be invoked repeatedly —
 * workers are spawned and joined per call, so single-threaded
 * phases (construction, enumeration, MMIO programming) between runs
 * need no synchronization at all.
 */
class ParallelEngine
{
  public:
    /**
     * @param queues One entry per domain; index == domain id.
     * @param quantum Minimum cross-domain link flight latency;
     *        must be > 0.
     * @param threads Requested worker count; clamped to the number
     *        of domains. In a fanned-out window domain d runs
     *        on worker d % threads; the worker holding the
     *        barrier runs narrow windows alone (DESIGN.md §10).
     */
    ParallelEngine(std::vector<EventQueue *> queues, Tick quantum,
                   unsigned threads);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Run windows until every queue drains or the global minimum
     * next tick passes @p max_tick. With an explicit horizon all
     * queues are clamped forward to it afterwards, mirroring the
     * single-queue EventQueue::run() contract.
     * @return the final simulated tick (max over domains).
     */
    Tick run(Tick max_tick = maxTick);

    Tick quantum() const { return quantum_; }
    unsigned threads() const { return threads_; }
    unsigned numDomains() const
    {
        return static_cast<unsigned>(queues_.size());
    }

    /** @{
     * Per-domain flight recorder (DESIGN.md §14). Everything here
     * is a pure function of simulated history — events executed,
     * window classification, mailbox traffic — so the counters are
     * byte-identical for any thread count. Wall-clock quantities
     * (window execution time, barrier wait) are estimated from a
     * 1-in-N steady_clock subsample taken only while the profiler
     * is on (--profile) with times reported, and exposed only
     * through dump-time Formulas that read 0 otherwise — the same
     * contract as the profiler's estMs, so unprofiled and
     * --no-timing dumps never contain a wall-derived value. The
     * whole block compiles out under PCIESIM_PROFILING=0.
     */

    /**
     * Register the telemetry block with @p reg under
     * "system.parallel.*". @p labels names each domain (index ==
     * domain id; short names become Vector subnames and Perfetto
     * track names). A no-op in PCIESIM_PROFILING=0 builds.
     */
    void registerStats(stats::Registry &reg,
                       const std::vector<std::string> &labels);

    /** Quantum windows completed (== barrier passes). */
    std::uint64_t windowsSynced() const;
    /** Events domain @p d executed inside engine windows. */
    std::uint64_t domainEvents(unsigned d) const;
    /** Windows in which @p d executed at least one event. */
    std::uint64_t activeWindows(unsigned d) const;
    /** Windows where @p d had pending work beyond the horizon but
     *  executed nothing (lookahead-limited). */
    std::uint64_t stallWindows(unsigned d) const;
    /** Cross-domain mailbox operations sent by / delivered to
     *  domain @p d. */
    std::uint64_t mailboxSent(unsigned d) const;
    std::uint64_t mailboxReceived(unsigned d) const;
    /** Max/mean events per domain; 0 with no events. */
    double loadImbalance() const;
    /** Estimated barrier+idle wall time over total wall time; 0
     *  unless the profiler is on with times reported (--profile
     *  without --no-timing). */
    double syncOverheadFraction() const;
    /** The label registered for domain @p d ("domain<d>" default). */
    const std::string &domainLabel(unsigned d) const;
    /** @} */

    /** @{
     * Cross-domain posts. Callable only from a worker inside its
     * window (the source domain is the calling thread's current
     * queue); applied at the next barrier. There are two kinds:
     * packets on a cut wire and keyed messages
     * (Simulation::callAt).
     */
    /** Schedule-if-earlier with a caller-computed key: the sink may
     *  also arm @p event for the same occurrence (a wire rearming
     *  after a delivery), so the key must be fixed once, at send
     *  time, and shared by both paths. */
    void postScheduleEarliest(EventQueue &dst, Event &event,
                              Tick when, Tick key_order,
                              std::uint64_t key_tie);
    /** Run @p fn at @p when on @p dst, keyed here on the sending
     *  domain. */
    void postCall(EventQueue &dst, Tick when,
                  std::function<void()> fn);
    /** @} */

  private:
    /** One mailboxed cross-domain operation. */
    struct Op
    {
        enum class Kind : std::uint8_t
        {
            scheduleEarliest,
            call,
        };

        Kind kind;
        /** Destination domain id. */
        unsigned dst;
        Event *event;
        Tick when;
        Tick keyOrder;
        std::uint64_t keyTie;
        std::function<void()> fn;
    };

    /** Where one drained operation sits: outbox_[src][index],
     *  bound for domain dst. */
    struct Post
    {
        unsigned dst;
        unsigned src;
        std::uint32_t index;
    };

    void applyMailboxes();
    void computeWindow(Tick max_tick);
    void enterDomain(unsigned d);
    void leaveDomain();

    /** One window of domain @p d: an idle domain (next event past
     *  @p horizon) only classifies the window; a busy one enters,
     *  runs, counts and leaves. */
    void runDomainWindow(unsigned d, Tick horizon);

    /** Estimated wall ns executing windows / waiting at barriers
     *  (1-in-N subsample scaled to all windows; 0 when times are
     *  suppressed or nothing was sampled). */
    double estExecNs() const;
    double estSyncNs() const;

    std::vector<EventQueue *> queues_;
    const Tick quantum_;
    const unsigned threads_;

    /** outbox_[src]: the operations domain src posted this
     *  window. src's worker is the only writer during a window, the
     *  barrier completion the only reader — the barrier itself
     *  provides the ordering. */
    std::vector<std::vector<Op>> outbox_;
    /** The drain's sort buffer, kept to reuse its capacity. */
    std::vector<Post> posts_;

    Tick windowStart_ = 0;
    Tick windowEnd_ = 0;
    /** Whether the current window has more runnable domains than
     *  workers; written and read only by the completion step's
     *  thread. */
    bool fanOut_ = false;
    std::atomic<bool> stop_{false};
    bool tracing_ = false;

    /** @{ Telemetry state (DESIGN.md §14). The registered stats
     *  are written only from sanctioned single-writer contexts:
     *  per-domain slots from whichever worker runs that domain's
     *  window, totals from the barrier completion step. */
    /** Time 1 in this many windows (and barrier waits). */
    static constexpr std::uint64_t wallSamplePeriod = 16;

    std::vector<std::string> labels_;
    stats::Vector domainEvents_;
    stats::Vector domainActiveWindows_;
    stats::Vector domainStallWindows_;
    stats::Vector mailboxSent_;
    stats::Vector mailboxReceived_;
    stats::Counter windows_;
    stats::Formula domainsStat_;
    stats::Formula quantumStat_;
    stats::Formula loadImbalanceStat_;
    stats::Formula mailboxIntensityStat_;
    stats::Formula syncOverheadStat_;
    stats::Formula execMsEstStat_;
    stats::Formula syncWaitMsEstStat_;

    /** Raw accumulators behind the wall-time estimates. Busy
     *  windows run / sampled / sampled-ns per domain; barrier
     *  waits per worker (a worker's wait is sync overhead, not any
     *  single domain's; for the last arriver, the completion
     *  step).
     *  Cumulative across stats epochs by design. */
    std::vector<std::uint64_t> windowsRun_;
    std::vector<std::uint64_t> execSampled_;
    std::vector<std::uint64_t> execNs_;
    std::vector<std::uint64_t> barrierSeen_;
    std::vector<std::uint64_t> barrierSampled_;
    std::vector<std::uint64_t> barrierNs_;

    /** Perfetto track names, built lazily when tracing engages. */
    std::vector<std::string> trackNames_;
    /** @} */
};

} // namespace pciesim

#endif // PCIESIM_SIM_PARALLEL_HH
