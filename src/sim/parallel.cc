#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <tuple>
#include <utility>

#include "event.hh"
#include "invariant.hh"
#include "logging.hh"
#include "profiler.hh"
#include "trace.hh"

namespace pciesim
{

namespace par
{

bool engineActive = false;
bool concurrent = false;

namespace
{
thread_local EventQueue *tlsQueue = nullptr;
#ifdef PCIESIM_ENABLE_AUDIT
/** The thread running narrow windows; written with concurrent. */
std::thread::id holderThread;
#endif
} // namespace

EventQueue *
currentQueue()
{
    return tlsQueue;
}

std::uint64_t
domainPacketId()
{
    EventQueue *q = tlsQueue;
    return (static_cast<std::uint64_t>(q->domainId()) << 48) |
           q->takeDomainSerial();
}

#ifdef PCIESIM_ENABLE_AUDIT
void
auditExclusive(const char *what)
{
    PCIESIM_AUDIT(!engineActive || concurrent ||
                      std::this_thread::get_id() == holderThread,
                  "unlocked ", what,
                  " off the barrier holder's thread in a narrow "
                  "window");
}
#endif

} // namespace par

namespace
{

/** One spin-wait iteration: tell the core we are polling. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** The posting domain's queue: the calling worker's current one. */
EventQueue &
sourceQueue()
{
    EventQueue *src = par::currentQueue();
    panicIf(src == nullptr,
            "cross-domain post from outside a worker window");
    return *src;
}

/**
 * The engine's window barrier (DESIGN.md §10): one fetch_add per
 * arrival. The last arriver returns at once and holds the barrier
 * through the completion step (and any windows it runs inline)
 * until it calls release(), which bumps the generation word;
 * everyone else polls that word briefly and then parks on it. The
 * arrival counter and the generation word sit on separate cache
 * lines, so arrivals never invalidate the line the waiters poll.
 */
class WindowBarrier
{
  public:
    explicit WindowBarrier(unsigned count) : count_(count) {}

    /** Arrive at the end of a window. @return true for the last
     *  arriver, which must call release(); false for the others,
     *  once released. */
    bool
    arrive()
    {
        // Read before arriving: the generation cannot move until
        // this worker's own arrival, and the release half of the
        // fetch_add keeps this load ahead of it.
        const std::uint32_t gen =
            generation_.load(std::memory_order_relaxed);
        // acq_rel: release publishes this worker's window (its
        // outboxes, its domains' queues and telemetry slots); the
        // last arriver's acquire reads the whole release sequence
        // of arrivals, so it sees every window.
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count_) {
            // Nobody arrives again before release(), so the reset
            // cannot race a next-window arrival.
            arrived_.store(0, std::memory_order_relaxed);
            return true;
        }
        for (unsigned i = 0; i < spinPolls; ++i) {
            if (generation_.load(std::memory_order_acquire) != gen)
                return false;
            cpuRelax();
        }
        generation_.wait(gen, std::memory_order_seq_cst);
        return false;
    }

    /** Let the waiters go: called once by the last arriver. */
    void
    release()
    {
        // Release: the drained mailboxes, any inline windows and
        // the next window bounds happen-before every waiter's
        // acquire in arrive(). Seq_cst on top, paired with the
        // seq_cst wait: the notify skips its futex wake when it
        // counts no parked waiter, and only with both sides
        // seq_cst can that count not miss a waiter that still saw
        // the old generation (DESIGN.md §10).
        generation_.fetch_add(1, std::memory_order_seq_cst);
        generation_.notify_all();
    }

  private:
    /** Polls before parking: ~13 us at ~25 ns per pause. Long
     *  enough to catch a completion step that only flips the
     *  window (a few us on a small fabric), short enough that a
     *  waiter facing a long mailbox drain parks instead of burning
     *  the core its drainer may need. */
    static constexpr unsigned spinPolls = 512;

    alignas(64) std::atomic<unsigned> arrived_{0};
    const unsigned count_;
    alignas(64) std::atomic<std::uint32_t> generation_{0};
};

} // namespace

ParallelEngine::ParallelEngine(std::vector<EventQueue *> queues,
                               Tick quantum, unsigned threads)
    : queues_(std::move(queues)),
      quantum_(quantum),
      threads_(std::min<unsigned>(std::max(threads, 1u),
                                  queues_.size())),
      outbox_(queues_.size())
{
    panicIf(quantum_ == 0, "parallel engine needs a nonzero quantum");
    panicIf(queues_.size() < 2,
            "parallel engine needs at least two domains");

    if constexpr (prof::compiledIn) {
        const std::size_t n = queues_.size();
        labels_.reserve(n);
        for (std::size_t d = 0; d < n; ++d)
            labels_.push_back("domain" + std::to_string(d));
        domainEvents_.init(n);
        domainActiveWindows_.init(n);
        domainStallWindows_.init(n);
        mailboxSent_.init(n);
        mailboxReceived_.init(n);
        windowsRun_.assign(n, 0);
        execSampled_.assign(n, 0);
        execNs_.assign(n, 0);
        barrierSeen_.assign(threads_, 0);
        barrierSampled_.assign(threads_, 0);
        barrierNs_.assign(threads_, 0);
    }
}

void
ParallelEngine::postScheduleEarliest(EventQueue &dst, Event &event,
                                     Tick when, Tick key_order,
                                     std::uint64_t key_tie)
{
    outbox_[sourceQueue().domainId()].push_back(
        {Op::Kind::scheduleEarliest, dst.domainId(), &event, when,
         key_order, key_tie, nullptr});
}

void
ParallelEngine::postCall(EventQueue &dst, Tick when,
                         std::function<void()> fn)
{
    EventQueue &src = sourceQueue();
    outbox_[src.domainId()].push_back({Op::Kind::call, dst.domainId(),
                                       nullptr, when, src.curTick(),
                                       src.nextTie(), std::move(fn)});
}

void
ParallelEngine::applyMailboxes()
{
    // Gather the window's posts: one scan over the outboxes, then
    // work in the number of posts, never a pass over domain pairs.
    posts_.clear();
    for (unsigned src = 0; src < outbox_.size(); ++src) {
        const std::vector<Op> &box = outbox_[src];
        if (box.empty())
            continue;
#if PCIESIM_PROFILING
        // Mailbox telemetry rides the drain the barrier already
        // pays for, nothing on the per-post hot path.
        // Deterministic (simulated history only), so safe in
        // 1-vs-N byte-identical dumps.
        mailboxSent_[src] += box.size();
#endif
        for (std::uint32_t i = 0; i < box.size(); ++i)
            posts_.push_back({box[i].dst, src, i});
    }
    // Apply in (dest, source, FIFO) order: a pure function of
    // simulated history, whichever worker posted first.
    std::sort(posts_.begin(), posts_.end(),
              [](const Post &a, const Post &b) {
                  return std::tie(a.dst, a.src, a.index) <
                         std::tie(b.dst, b.src, b.index);
              });

    for (const Post &p : posts_) {
        Op &op = outbox_[p.src][p.index];
        EventQueue &q = *queues_[p.dst];
#if PCIESIM_PROFILING
        ++mailboxReceived_[p.dst];
#endif
        // The conservative guarantee: anything posted during the
        // window that just completed lands at or beyond its end
        // (post tick + quantum >= end).
        PCIESIM_AUDIT(op.when >= windowEnd_,
                      "cross-domain event lands at ", op.when,
                      " inside the window ending at ", windowEnd_,
                      " (link latency below the quantum?)");
        if (op.kind == Op::Kind::scheduleEarliest) {
            q.scheduleEarliestKeyed(op.event, op.when, op.keyOrder,
                                    op.keyTie);
        } else {
            q.scheduleKeyed(new OneShotEvent(std::move(op.fn)),
                            op.when, op.keyOrder, op.keyTie);
        }
    }
    for (std::vector<Op> &box : outbox_)
        box.clear();
}

void
ParallelEngine::computeWindow(Tick max_tick)
{
    Tick global_min = maxTick;
    for (EventQueue *q : queues_)
        global_min = std::min(global_min, q->nextTick());
    if (global_min == maxTick || global_min > max_tick) {
        stop_.store(true, std::memory_order_relaxed);
        return;
    }
    Tick end = global_min + quantum_;
    if (end < global_min)
        end = maxTick; // saturate on overflow
    if (max_tick != maxTick && end > max_tick + 1)
        end = max_tick + 1;
    windowStart_ = global_min;
    windowEnd_ = end;
    // Fan-out rule (DESIGN.md §10): hand the window to the workers
    // only when more domains can run in it than there are workers.
    unsigned runnable = 0;
    for (EventQueue *q : queues_) {
        if (q->nextTick() < end && ++runnable > threads_)
            break;
    }
    fanOut_ = runnable > threads_;
}

void
ParallelEngine::enterDomain(unsigned d)
{
    par::tlsQueue = queues_[d];
#if PCIESIM_PROFILING
    prof::enterDomain(d);
#endif
#if PCIESIM_TRACING
    if (tracing_)
        trace::enterDomain(d);
#endif
}

void
ParallelEngine::leaveDomain()
{
    par::tlsQueue = nullptr;
#if PCIESIM_PROFILING
    prof::leaveDomain();
#endif
#if PCIESIM_TRACING
    if (tracing_)
        trace::leaveDomain();
#endif
}

void
ParallelEngine::runDomainWindow(unsigned d, Tick horizon)
{
    if (queues_[d]->nextTick() > horizon) {
        // Idle this window: nothing to enter, run, time or trace.
        // A domain holding work beyond the horizon is
        // lookahead-limited; an empty one counts as neither.
#if PCIESIM_PROFILING
        if (!queues_[d]->empty())
            ++domainStallWindows_[d];
#endif
        return;
    }
    enterDomain(d);
#if PCIESIM_PROFILING
    // pciesim-analyze: ignore[wall-clock]: sanctioned 1-in-N host
    // time subsample (DESIGN.md §14); sampled only when the
    // profiler is on (--profile) and times are reported, exactly
    // like prof's estMs — so unprofiled (and --no-timing) dumps
    // never see a wall-derived value.
    using clock = std::chrono::steady_clock;
    const bool timed =
        prof::enabled() && prof::reportTimes() &&
        (windowsRun_[d] & (wallSamplePeriod - 1)) == 0;
    ++windowsRun_[d];
    clock::time_point t0;
    if (timed) [[unlikely]]
        t0 = clock::now();
    const std::uint64_t executed = queues_[d]->runWindow(horizon);
    if (timed) [[unlikely]] {
        execNs_[d] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - t0)
                .count());
        ++execSampled_[d];
    }
    // The next event is inside the horizon, so executed >= 1.
    domainEvents_[d] += executed;
    ++domainActiveWindows_[d];
#if PCIESIM_TRACING
    // One X span per active window on the domain's track —
    // buffered through the per-domain merge, so the trace stays
    // thread-count independent.
    if (tracing_ && d < trackNames_.size()) {
        TRACE_COMPLETE(trace::Flag::Parallel, windowStart_,
                       windowEnd_ - windowStart_, trackNames_[d],
                       "events=", executed);
    }
#endif
#else
    queues_[d]->runWindow(horizon);
#endif
    leaveDomain();
}

Tick
ParallelEngine::run(Tick max_tick)
{
    const unsigned nq = queues_.size();

#if PCIESIM_PROFILING
    prof::configureDomains(nq);
#endif
#if PCIESIM_TRACING
    tracing_ = trace::beginParallel(nq);
    if (tracing_ && trace::enabled(trace::Flag::Parallel) &&
        trackNames_.empty()) {
        trackNames_.reserve(nq);
        for (unsigned d = 0; d < nq; ++d) {
            trackNames_.push_back(
                "system.parallel." +
                (d < labels_.size() ? labels_[d]
                                    : "domain" + std::to_string(d)));
        }
    }
#endif
    par::engineActive = true;
    // The first window always fans out; with one worker nothing
    // ever runs concurrently.
    par::concurrent = threads_ > 1;
    PCIESIM_AUDIT_ONLY(par::holderThread = std::this_thread::get_id();)

    stop_.store(false, std::memory_order_relaxed);
    computeWindow(max_tick);

    auto on_completion = [this, max_tick]() noexcept {
#if PCIESIM_TRACING
        if (tracing_) {
            trace::flushParallel();
            // Barrier B/E span on the engine track: one span per
            // window, its end marking the barrier that closed it.
            if (!trackNames_.empty() && windowEnd_ > windowStart_) {
                trace::emitBegin(trace::Flag::Parallel, windowStart_,
                                 "system.parallel.engine", "window");
                trace::emitEnd(trace::Flag::Parallel, windowEnd_ - 1,
                               "system.parallel.engine");
            }
        }
#endif
        applyMailboxes();
#if PCIESIM_PROFILING
        ++windows_;
#endif
        computeWindow(max_tick);
    };

    // Worker @p w's end-of-window synchronization @p sync, with
    // 1 in wallSamplePeriod calls timed into the worker's sync
    // accumulators; @p seen counts the calls.
    auto sync_window = [this](unsigned w, std::uint64_t &seen,
                              auto &&sync) {
#if PCIESIM_PROFILING
        // pciesim-analyze: ignore[wall-clock]: sanctioned 1-in-N
        // sync-wait subsample (DESIGN.md §14), taken only under
        // --profile with times reported.
        using clock = std::chrono::steady_clock;
        const bool timed = prof::enabled() && prof::reportTimes() &&
                           (seen++ & (wallSamplePeriod - 1)) == 0;
        if (timed) [[unlikely]] {
            const clock::time_point t0 = clock::now();
            sync();
            barrierNs_[w] += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    clock::now() - t0)
                    .count());
            ++barrierSampled_[w];
            return;
        }
#else
        (void)w;
        (void)seen;
#endif
        sync();
    };

    WindowBarrier barrier(threads_);

    // Every worker runs its share of the first window and of every
    // fanned-out one. The last to arrive runs the completion step
    // and keeps the others parked while the next window is narrow:
    // it runs every domain's window itself, in domain order, and
    // releases the barrier only for a fanned-out window or the
    // stop (DESIGN.md §10).
    auto work = [&](unsigned w) {
        std::uint64_t seen = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
            const Tick horizon = windowEnd_ - 1;
            for (unsigned d = w; d < nq; d += threads_)
                runDomainWindow(d, horizon);
            bool last = false;
            sync_window(w, seen, [&] {
                last = barrier.arrive();
                if (last)
                    on_completion();
            });
            if (!last)
                continue;
            // Every other worker is parked until release(), so the
            // holder's windows need no locks (DESIGN.md §10).
            par::concurrent = false;
            PCIESIM_AUDIT_ONLY(
                par::holderThread = std::this_thread::get_id();)
            while (!stop_.load(std::memory_order_relaxed) &&
                   !fanOut_) {
                const Tick inline_horizon = windowEnd_ - 1;
                for (unsigned d = 0; d < nq; ++d)
                    runDomainWindow(d, inline_horizon);
                sync_window(w, seen, on_completion);
            }
            par::concurrent = threads_ > 1;
            barrier.release();
        }
#if PCIESIM_PROFILING
        barrierSeen_[w] += seen;
#endif
    };

    std::vector<std::thread> workers;
    workers.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w)
        workers.emplace_back(work, w);
    work(0);
    for (std::thread &t : workers)
        t.join();

    par::concurrent = false;
    par::engineActive = false;
#if PCIESIM_TRACING
    if (tracing_)
        trace::endParallel();
#endif

    Tick result = 0;
    for (EventQueue *q : queues_)
        result = std::max(result, q->curTick());
    if (max_tick != maxTick)
        result = max_tick; // mirror EventQueue::run()'s horizon rule
    // Clamp every domain to the common end time so single-threaded
    // phases between runs see one consistent clock. Run-to-drain
    // only stops with every queue empty and a bounded run only with
    // every next event past the horizon, so nothing is skipped.
    for (EventQueue *q : queues_)
        q->advanceTo(result);
    return result;
}

//
// Telemetry (DESIGN.md §14)
//

double
ParallelEngine::estExecNs() const
{
#if PCIESIM_PROFILING
    double total = 0.0;
    for (std::size_t d = 0; d < execNs_.size(); ++d) {
        if (execSampled_[d] == 0)
            continue;
        total += static_cast<double>(execNs_[d]) *
                 static_cast<double>(windowsRun_[d]) /
                 static_cast<double>(execSampled_[d]);
    }
    return total;
#else
    return 0.0;
#endif
}

double
ParallelEngine::estSyncNs() const
{
#if PCIESIM_PROFILING
    double total = 0.0;
    for (std::size_t w = 0; w < barrierNs_.size(); ++w) {
        if (barrierSampled_[w] == 0)
            continue;
        total += static_cast<double>(barrierNs_[w]) *
                 static_cast<double>(barrierSeen_[w]) /
                 static_cast<double>(barrierSampled_[w]);
    }
    return total;
#else
    return 0.0;
#endif
}

void
ParallelEngine::registerStats(stats::Registry &reg,
                              const std::vector<std::string> &labels)
{
#if PCIESIM_PROFILING
    using stats::Unit;
    const std::size_t n = queues_.size();
    for (std::size_t d = 0; d < n && d < labels.size(); ++d) {
        if (labels[d].empty())
            continue;
        labels_[d] = labels[d];
        domainEvents_.subname(d, labels[d]);
        domainActiveWindows_.subname(d, labels[d]);
        domainStallWindows_.subname(d, labels[d]);
        mailboxSent_.subname(d, labels[d]);
        mailboxReceived_.subname(d, labels[d]);
    }

    reg.add("system.parallel.windows", &windows_,
            "quantum windows completed by the engine", Unit::Count);
    reg.add("system.parallel.domainEvents", &domainEvents_,
            "events executed per domain inside engine windows",
            Unit::Count);
    reg.add("system.parallel.domainActiveWindows",
            &domainActiveWindows_,
            "windows in which the domain executed >= 1 event",
            Unit::Count);
    reg.add("system.parallel.domainStallWindows",
            &domainStallWindows_,
            "lookahead-limited windows: pending work beyond the "
            "horizon, nothing executable",
            Unit::Count);
    reg.add("system.parallel.mailboxSent", &mailboxSent_,
            "cross-domain mailbox operations posted by each domain",
            Unit::Count);
    reg.add("system.parallel.mailboxReceived", &mailboxReceived_,
            "cross-domain mailbox operations delivered to each "
            "domain",
            Unit::Count);

    domainsStat_ = [this] {
        return static_cast<double>(queues_.size());
    };
    reg.add("system.parallel.domains", &domainsStat_,
            "link domains driven by the engine", Unit::Count);
    quantumStat_ = [this] {
        return static_cast<double>(quantum_);
    };
    reg.add("system.parallel.quantumTicks", &quantumStat_,
            "synchronization quantum (minimum cross-domain "
            "lookahead)",
            Unit::Tick);
    loadImbalanceStat_ = [this] { return loadImbalance(); };
    reg.add("system.parallel.loadImbalance", &loadImbalanceStat_,
            "max/mean events per domain (1.0 == perfectly "
            "balanced)",
            Unit::Ratio);
    mailboxIntensityStat_ = [this] {
        const std::uint64_t events = domainEvents_.total();
        return events == 0
                   ? 0.0
                   : static_cast<double>(mailboxSent_.total()) /
                         static_cast<double>(events);
    };
    reg.add("system.parallel.mailboxIntensity",
            &mailboxIntensityStat_,
            "cross-domain mailbox operations per executed event",
            Unit::Ratio);

    // Wall-clock-derived formulas: read 0 whenever time reporting
    // is suppressed (--no-timing), which keeps 1-vs-N stats dumps
    // byte-identical — the same contract as the profiler's estMs.
    syncOverheadStat_ = [this] { return syncOverheadFraction(); };
    reg.add("system.parallel.syncOverheadFraction",
            &syncOverheadStat_,
            "estimated barrier-wait wall time over total engine "
            "wall time; reads 0 under --no-timing",
            Unit::Ratio);
    execMsEstStat_ = [this] {
        return prof::enabled() && prof::reportTimes()
                   ? estExecNs() / 1e6
                   : 0.0;
    };
    reg.add("system.parallel.execMsEst", &execMsEstStat_,
            "estimated wall ms executing domain windows (0 under "
            "--no-timing)");
    syncWaitMsEstStat_ = [this] {
        return prof::enabled() && prof::reportTimes()
                   ? estSyncNs() / 1e6
                   : 0.0;
    };
    reg.add("system.parallel.syncWaitMsEst", &syncWaitMsEstStat_,
            "estimated wall ms waiting at window barriers (0 under "
            "--no-timing)");
#else
    (void)reg;
    (void)labels;
#endif
}

std::uint64_t
ParallelEngine::windowsSynced() const
{
    return windows_.value();
}

std::uint64_t
ParallelEngine::domainEvents(unsigned d) const
{
    return d < domainEvents_.size() ? domainEvents_[d].value() : 0;
}

std::uint64_t
ParallelEngine::activeWindows(unsigned d) const
{
    return d < domainActiveWindows_.size()
               ? domainActiveWindows_[d].value()
               : 0;
}

std::uint64_t
ParallelEngine::stallWindows(unsigned d) const
{
    return d < domainStallWindows_.size()
               ? domainStallWindows_[d].value()
               : 0;
}

std::uint64_t
ParallelEngine::mailboxSent(unsigned d) const
{
    return d < mailboxSent_.size() ? mailboxSent_[d].value() : 0;
}

std::uint64_t
ParallelEngine::mailboxReceived(unsigned d) const
{
    return d < mailboxReceived_.size() ? mailboxReceived_[d].value()
                                       : 0;
}

double
ParallelEngine::loadImbalance() const
{
    if (domainEvents_.size() == 0)
        return 0.0;
    std::uint64_t max = 0;
    const std::uint64_t total = domainEvents_.total();
    for (std::size_t d = 0; d < domainEvents_.size(); ++d)
        max = std::max(max, domainEvents_[d].value());
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(domainEvents_.size());
    return static_cast<double>(max) / mean;
}

double
ParallelEngine::syncOverheadFraction() const
{
#if PCIESIM_PROFILING
    if (!prof::enabled() || !prof::reportTimes())
        return 0.0;
    const double sync = estSyncNs();
    const double exec = estExecNs();
    return sync + exec > 0.0 ? sync / (sync + exec) : 0.0;
#else
    return 0.0;
#endif
}

const std::string &
ParallelEngine::domainLabel(unsigned d) const
{
    static const std::string empty;
    return d < labels_.size() ? labels_[d] : empty;
}

} // namespace pciesim
