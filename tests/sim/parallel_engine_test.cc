/**
 * @file
 * Unit tests for the quantum-synchronized parallel engine
 * (sim/parallel.hh, DESIGN.md Sec. 10), driven directly through a
 * partitioned Simulation rather than a full topology: the edge
 * cases here — an arrival landing exactly on a window boundary,
 * calls posted in one window and due in another, two domains
 * posting to each other inside one quantum — are the
 * ones a topology only hits under rare timing alignments.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/packet.hh"
#include "sim/event.hh"
#include "sim/invariant.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"

using namespace pciesim;

namespace
{

constexpr Tick quantum = 100;

/** A Simulation partitioned into two domains with the engine
 *  attached; nothing scheduled yet. */
struct TwoDomainSim
{
    explicit TwoDomainSim(unsigned threads)
    {
        unsigned d1 = sim.addDomain();
        EXPECT_EQ(d1, 1u);
        sim.setupParallel(threads, quantum);
    }

    Simulation sim;
};

/** Every deterministic engine counter, flattened for comparison
 *  across worker counts. */
std::vector<std::uint64_t>
engineCounters(const ParallelEngine &eng)
{
    const unsigned n = eng.numDomains();
    std::vector<std::uint64_t> c{eng.windowsSynced()};
    for (unsigned d = 0; d < n; ++d) {
        c.push_back(eng.domainEvents(d));
        c.push_back(eng.activeWindows(d));
        c.push_back(eng.stallWindows(d));
        c.push_back(eng.mailboxSent(d));
        c.push_back(eng.mailboxReceived(d));
    }
    return c;
}

std::string
statsDump(Simulation &sim)
{
    std::ostringstream os;
    sim.statsRegistry().dumpJson(os, sim.curTick());
    return os.str();
}

/** What a run leaves behind: fire ticks per domain, the engine
 *  counters, the stats dump (system.parallel.* included), and
 *  the threads that fired the events of interest. */
struct Outcome
{
    std::vector<std::vector<Tick>> fired;
    std::vector<std::uint64_t> counters;
    std::string stats;
    std::set<std::thread::id> threads;
};

} // namespace

TEST(ParallelEngineTest, CrossDomainPostOnExactQuantumBoundary)
{
    // The conservative contract is when >= window end; an arrival
    // exactly AT the end of the posting window (post tick +
    // quantum) is the legal minimum and must fire at its tick, not
    // be rejected or deferred.
    TwoDomainSim t(2);
    Tick fired_at = 0;
    EventFunctionWrapper poster(
        [&] {
            t.sim.callAt(1, t.sim.curTick() + quantum,
                         [&] { fired_at = t.sim.curTick(); });
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 10);

    t.sim.run();
    EXPECT_EQ(fired_at, 10 + quantum);
}

TEST(ParallelEngineTest, MailedCallsFromOneFiringKeepFifoOrder)
{
    // Two calls posted to the same tick from one firing sit in the
    // same outbox and carry the same post tick: they fire in the
    // order they were posted.
    TwoDomainSim t(2);
    std::vector<std::string> log;
    EventFunctionWrapper poster(
        [&] {
            ParallelEngine &eng = *t.sim.engine();
            EventQueue &remote = t.sim.domainQueue(1);
            const Tick at = t.sim.curTick() + 2 * quantum;
            eng.postCall(remote, at, [&] { log.push_back("first"); });
            eng.postCall(remote, at, [&] { log.push_back("second"); });
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 0);

    t.sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"first", "second"}));
}

TEST(ParallelEngineTest, MailedCallFromLaterWindowFiresByTick)
{
    // A call posted one window later but due earlier fires first:
    // the barrier keys each post into the destination's heap; it
    // does not replay the mailboxes in post order.
    TwoDomainSim t(2);
    std::vector<std::string> log;
    EventFunctionWrapper later(
        [&] {
            t.sim.engine()->postCall(t.sim.domainQueue(1),
                                     t.sim.curTick() + quantum,
                                     [&] { log.push_back("later"); });
        },
        "test.later");
    EventFunctionWrapper poster(
        [&] {
            t.sim.engine()->postCall(t.sim.domainQueue(1),
                                     t.sim.curTick() + 3 * quantum,
                                     [&] { log.push_back("earlier"); });
            // Post the second call in the next window.
            t.sim.domainQueue(0).schedule(
                &later, t.sim.curTick() + quantum);
        },
        "test.poster");
    t.sim.domainQueue(0).schedule(&poster, 0);

    t.sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"later", "earlier"}));
}

TEST(ParallelEngineTest, MutualPostsInSameQuantum)
{
    // Both domains post to each other inside the same window, for
    // several rounds: a ping-pong that keeps both heaps non-empty
    // and both mailbox directions full every barrier. Each side
    // must see every message, exactly one quantum apart.
    constexpr int rounds = 16;
    TwoDomainSim t(2);
    std::vector<Tick> fired0, fired1;

    // Each hop re-posts to the other domain until its round count
    // runs out. Declared as std::functions so the lambdas can
    // reference each other.
    std::function<void(int)> hop0, hop1;
    hop0 = [&](int left) {
        fired0.push_back(t.sim.curTick());
        if (left > 0) {
            t.sim.callAt(1, t.sim.curTick() + quantum,
                         [&, left] { hop1(left - 1); });
        }
    };
    hop1 = [&](int left) {
        fired1.push_back(t.sim.curTick());
        if (left > 0) {
            t.sim.callAt(0, t.sim.curTick() + quantum,
                         [&, left] { hop0(left - 1); });
        }
    };

    // Symmetric kick-off: both domains start a chain at tick 0, so
    // in every window each domain both executes and receives.
    EventFunctionWrapper start0([&] { hop0(rounds); },
                                "test.start0");
    EventFunctionWrapper start1([&] { hop1(rounds); },
                                "test.start1");
    t.sim.domainQueue(0).schedule(&start0, 0);
    t.sim.domainQueue(1).schedule(&start1, 0);

    t.sim.run();

    // Chain A fires on domain 0 at even hops, chain B at odd hops
    // (and vice versa on domain 1), so each domain fires at every
    // multiple of the quantum up to the round count.
    ASSERT_EQ(fired0.size(), static_cast<std::size_t>(rounds + 1));
    ASSERT_EQ(fired1.size(), static_cast<std::size_t>(rounds + 1));
    for (int i = 0; i <= rounds; ++i) {
        EXPECT_EQ(fired0[i], static_cast<Tick>(i) * quantum);
        EXPECT_EQ(fired1[i], static_cast<Tick>(i) * quantum);
    }
}

TEST(ParallelEngineTest, ThreadCountDoesNotChangePingPong)
{
    // The same mutual-post workload must produce identical fire
    // ticks for one worker and four (domain count clamps four down
    // to two) — the in-process slice of the determinism contract.
    auto run = [](unsigned threads) {
        TwoDomainSim t(threads);
        std::vector<Tick> fired;
        std::function<void(int)> hop;
        hop = [&](int left) {
            fired.push_back(t.sim.curTick());
            if (left > 0) {
                unsigned dst = left % 2;
                t.sim.callAt(dst, t.sim.curTick() + 2 * quantum,
                             [&, left] { hop(left - 1); });
            }
        };
        EventFunctionWrapper start([&] { hop(12); }, "test.start");
        t.sim.domainQueue(0).schedule(&start, 7);
        t.sim.run();
        return fired;
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(ParallelEngineTest, ThousandDomainsDrainInDestSourceFifoOrder)
{
    // One window of a 1000-domain engine touches a handful of
    // domain pairs: three sources post to domain 3, and domain 42
    // posts to three destinations. Every call lands on its
    // destination at its tick; calls due at one tick fire by post
    // tick (domain 5 posts first, then 17, then 900) and, within a
    // source, in FIFO order.
    constexpr unsigned domains = 1000;
    constexpr unsigned sink = 3;
    constexpr Tick at = 10 + 2 * quantum;

    auto run = [](unsigned threads) {
        Simulation sim;
        for (unsigned d = 1; d < domains; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);
        ParallelEngine &eng = *sim.engine();
        EventQueue &q = sim.domainQueue(sink);

        std::vector<std::string> fired;
        auto note = [&](const std::string &what) {
            const EventQueue *cur = par::currentQueue();
            fired.push_back(what + "@" +
                            std::to_string(cur->domainId()) + "/" +
                            std::to_string(sim.curTick()));
        };
        auto post = [&](const std::vector<std::string> &names) {
            for (const std::string &n : names)
                eng.postCall(q, at, [&note, n] { note(n); });
        };

        EventFunctionWrapper from900([&] { post({"a900", "b900"}); },
                                     "test.from900");
        EventFunctionWrapper from5([&] { post({"a5", "b5"}); },
                                   "test.from5");
        // One source, FIFO.
        EventFunctionWrapper from17(
            [&] { post({"a17", "b17", "c17", "d17"}); },
            "test.from17");
        // Domain 42 fans out to three destinations; fired is
        // written by one domain per window, so the three calls
        // fire one window apart.
        EventFunctionWrapper from42(
            [&] {
                eng.postCall(sim.domainQueue(999), at + 2 * quantum,
                             [&] { note("call"); });
                eng.postCall(sim.domainQueue(0), at + 3 * quantum,
                             [&] { note("call"); });
                eng.postCall(sim.domainQueue(500), at + 4 * quantum,
                             [&] { note("call"); });
            },
            "test.from42");
        sim.domainQueue(900).schedule(&from900, 12);
        sim.domainQueue(5).schedule(&from5, 10);
        sim.domainQueue(17).schedule(&from17, 11);
        sim.domainQueue(42).schedule(&from42, 10);
        sim.run();

        if (prof::compiledIn) {
            std::uint64_t sent = 0;
            std::uint64_t received = 0;
            for (unsigned dom = 0; dom < domains; ++dom) {
                sent += eng.mailboxSent(dom);
                received += eng.mailboxReceived(dom);
            }
            EXPECT_EQ(sent, 11u);
            EXPECT_EQ(received, 11u);
            EXPECT_EQ(eng.mailboxSent(900), 2u);
            EXPECT_EQ(eng.mailboxSent(5), 2u);
            EXPECT_EQ(eng.mailboxSent(17), 4u);
            EXPECT_EQ(eng.mailboxSent(42), 3u);
            EXPECT_EQ(eng.mailboxReceived(sink), 8u);
            EXPECT_EQ(eng.mailboxReceived(999), 1u);
            EXPECT_EQ(eng.mailboxReceived(0), 1u);
            EXPECT_EQ(eng.mailboxReceived(500), 1u);
        }
        return fired;
    };

    const std::string t = "@3/" + std::to_string(at);
    const std::vector<std::string> expected{
        "a5" + t,   "b5" + t,   "a17" + t,  "b17" + t,
        "c17" + t,  "d17" + t,  "a900" + t, "b900" + t,
        "call@999/" + std::to_string(at + 2 * quantum),
        "call@0/" + std::to_string(at + 3 * quantum),
        "call@500/" + std::to_string(at + 4 * quantum),
    };
    EXPECT_EQ(run(1), expected);
    EXPECT_EQ(run(4), expected);
}

TEST(ParallelEngineTest, OversubscribedWorkersMatchOneWorker)
{
    // Sixteen domains on eight workers, two domains each. A token
    // hops to another domain every quantum, so nearly every one of
    // the thousands of windows holds one event and ends in a
    // barrier that most workers reach with nothing done: the
    // window barrier's arrive / complete / release cycle at its
    // tightest. Each odd domain also holds one far-future event,
    // so it stalls (pending work past the horizon) until that
    // fires; even domains sit empty between token visits. Output
    // and every engine counter must match the one-worker run.
    constexpr unsigned domains = 16;
    constexpr int hops = 3000;

    auto run = [](unsigned threads) {
        Simulation sim;
        for (unsigned d = 1; d < domains; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        // fired[d] is written only from domain d's own windows.
        Outcome out;
        out.fired.resize(domains);
        std::function<void(unsigned, int)> hop = [&](unsigned d,
                                                     int left) {
            out.fired[d].push_back(sim.curTick());
            if (left > 0) {
                const unsigned next = (d + 5) % domains;
                sim.callAt(next, sim.curTick() + quantum,
                           [&hop, next, left] { hop(next, left - 1); });
            }
        };
        EventFunctionWrapper start([&] { hop(0, hops); },
                                   "test.start");
        sim.domainQueue(0).schedule(&start, 0);
        std::vector<std::unique_ptr<EventFunctionWrapper>> lone;
        for (unsigned d = 1; d < domains; d += 2) {
            lone.push_back(std::make_unique<EventFunctionWrapper>(
                [&out, &sim, d] {
                    out.fired[d].push_back(sim.curTick());
                },
                "test.lone"));
            sim.domainQueue(d).schedule(lone.back().get(),
                                        d * 150 * quantum + quantum / 2);
        }
        sim.run();

        const ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.threads(), threads);
        out.counters = engineCounters(eng);
        if (prof::compiledIn) {
            EXPECT_GE(eng.windowsSynced(),
                      static_cast<std::uint64_t>(hops));
            for (unsigned d = 0; d < domains; ++d) {
                if (d % 2 == 0)
                    EXPECT_EQ(eng.stallWindows(d), 0u) << d;
                else
                    EXPECT_GT(eng.stallWindows(d), 0u) << d;
            }
        }
        out.stats = statsDump(sim);
        return out;
    };

    const Outcome one = run(1);
    const Outcome eight = run(8);
    std::size_t fires = 0;
    for (const std::vector<Tick> &f : one.fired)
        fires += f.size();
    EXPECT_EQ(fires, static_cast<std::size_t>(hops + 1 + domains / 2));
    EXPECT_EQ(one.fired, eight.fired);
    EXPECT_EQ(one.counters, eight.counters);
    EXPECT_EQ(one.stats, eight.stats);
}

TEST(ParallelEngineTest, NarrowWindowsRunInline)
{
    // Three domains on three workers: no window can have more
    // runnable domains than workers, so after the first window
    // (which every worker starts on its own share) the worker that
    // closes it runs every later window inline and every event
    // fires on that one thread. Three tokens hop round the ring
    // with uneven delays, so windows hold one, two or three
    // runnable domains. Output and every engine counter must match
    // the one-worker run.
    constexpr unsigned domains = 3;
    constexpr int hops = 400;

    auto run = [](unsigned threads) {
        Simulation sim;
        for (unsigned d = 1; d < domains; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        // fired[d] and later[d] are written only from domain d's
        // own windows; later[d] holds the thread ids of the fires
        // after the first window, which ends at the quantum.
        Outcome out;
        out.fired.resize(domains);
        std::vector<std::vector<std::thread::id>> later(domains);
        std::function<void(unsigned, int)> hop = [&](unsigned d,
                                                     int left) {
            out.fired[d].push_back(sim.curTick());
            if (sim.curTick() >= quantum)
                later[d].push_back(std::this_thread::get_id());
            if (left > 0) {
                const unsigned next = (d + 1) % domains;
                const Tick delay = quantum + (left * (d + 2) % 7) * 40;
                sim.callAt(next, sim.curTick() + delay,
                           [&hop, next, left] { hop(next, left - 1); });
            }
        };
        std::vector<std::unique_ptr<EventFunctionWrapper>> starts;
        for (unsigned d = 0; d < domains; ++d) {
            starts.push_back(std::make_unique<EventFunctionWrapper>(
                [&hop, d] { hop(d, hops); }, "test.start"));
            sim.domainQueue(d).schedule(starts.back().get(), d * 40);
        }
        sim.run();

        const ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.threads(), threads);
        out.counters = engineCounters(eng);
        out.stats = statsDump(sim);
        for (const std::vector<std::thread::id> &ids : later)
            out.threads.insert(ids.begin(), ids.end());
        return out;
    };

    const Outcome one = run(1);
    const Outcome three = run(3);
    std::size_t fires = 0;
    for (const std::vector<Tick> &f : one.fired)
        fires += f.size();
    EXPECT_EQ(fires, static_cast<std::size_t>(domains * (hops + 1)));
    EXPECT_EQ(three.threads.size(), 1u);
    EXPECT_EQ(one.fired, three.fired);
    EXPECT_EQ(one.counters, three.counters);
    EXPECT_EQ(one.stats, three.stats);
}

TEST(ParallelEngineTest, WideAndNarrowWindowsInterleave)
{
    // Sixteen domains on four workers. A token fires alone in its
    // window (run inline by one worker) and posts one event to
    // every domain a quantum later, which makes the next window
    // wide (sixteen runnable domains, fanned out), plus the token's
    // next hop a quantum after that. Each wide event posts one echo
    // to its neighbour, landing in the following wide window. So
    // windows alternate narrow / wide, and cross-domain posts are
    // made from both kinds. Output and every engine counter must
    // match the one-worker run, and the wide windows must really
    // run on several threads.
    constexpr unsigned domains = 16;
    constexpr int rounds = 150;

    auto run = [](unsigned threads) {
        Simulation sim;
        for (unsigned d = 1; d < domains; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        Outcome out;
        out.fired.resize(domains);
        // Thread ids of the wide events, per domain: each vector is
        // written only from its domain's windows.
        std::vector<std::vector<std::thread::id>> wide(domains);
        std::function<void(unsigned, bool)> busy = [&](unsigned d,
                                                       bool echo) {
            out.fired[d].push_back(sim.curTick());
            wide[d].push_back(std::this_thread::get_id());
            if (!echo) {
                const unsigned next = (d + 1) % domains;
                sim.callAt(next, sim.curTick() + 2 * quantum,
                           [&busy, next] { busy(next, true); });
            }
        };
        std::function<void(unsigned, int)> token = [&](unsigned d,
                                                       int left) {
            out.fired[d].push_back(sim.curTick());
            if (left == 0)
                return;
            const Tick at = sim.curTick() + quantum;
            for (unsigned x = 0; x < domains; ++x)
                sim.callAt(x, at, [&busy, x] { busy(x, false); });
            const unsigned next = (d + 3) % domains;
            sim.callAt(next, at + quantum,
                       [&token, next, left] { token(next, left - 1); });
        };
        EventFunctionWrapper start([&] { token(0, rounds); },
                                   "test.start");
        sim.domainQueue(0).schedule(&start, 0);
        sim.run();

        const ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.threads(), threads);
        out.counters = engineCounters(eng);
        out.stats = statsDump(sim);
        for (const std::vector<std::thread::id> &ids : wide)
            out.threads.insert(ids.begin(), ids.end());
        return out;
    };

    const Outcome one = run(1);
    const Outcome four = run(4);
    std::size_t fires = 0;
    for (const std::vector<Tick> &f : one.fired)
        fires += f.size();
    // rounds + 1 token fires, each but the last spawning sixteen
    // wide events and their sixteen echoes.
    EXPECT_EQ(fires, static_cast<std::size_t>(rounds + 1 +
                                              rounds * domains * 2));
    EXPECT_EQ(one.threads.size(), 1u);
    EXPECT_GT(four.threads.size(), 1u);
    EXPECT_EQ(one.fired, four.fired);
    EXPECT_EQ(one.counters, four.counters);
    EXPECT_EQ(one.stats, four.stats);
}

TEST(ParallelEngineTest, ConcurrentOnlyInFannedOutWindows)
{
    // par::concurrent gates only synchronization, so it must be
    // true exactly in fanned-out windows: the first window of a run
    // and every wide one, never an inline window, never at one
    // worker and never outside run(). The same shape as
    // WideAndNarrowWindowsInterleave; here each narrow token
    // releases the packets the last wide window allocated and
    // allocates one per domain, which the next wide window's events
    // release on their workers. Every hand-off between the locked
    // and the unlocked pool and refcount paths goes through the
    // window barrier, so the live count and the pool's free list
    // must come back to where they started.
    constexpr unsigned domains = 16;
    constexpr int rounds = 100;

    // Warm the pool past the run's peak (two packets per domain),
    // so every allocation below recycles a block.
    {
        std::vector<PacketPtr> warm;
        for (unsigned i = 0; i < 4 * domains; ++i)
            warm.push_back(Packet::makeRequest(MemCmd::ReadReq, 0, 4));
    }

    auto run = [](unsigned threads) {
        const std::uint64_t live = Packet::liveCount();
        const std::size_t free_blocks = Packet::pool().freeBlocks();
        EXPECT_FALSE(par::concurrent);

        Simulation sim;
        for (unsigned d = 1; d < domains; ++d)
            sim.addDomain();
        sim.setupParallel(threads, quantum);

        // Flag readings per domain, each vector written only from
        // its domain's windows; the token's first fire is in the
        // run's first window, later ones in inline windows.
        std::vector<std::vector<bool>> wide(domains);
        std::vector<bool> first_token;
        std::vector<bool> narrow;
        std::vector<PacketPtr> from_narrow(domains);
        std::vector<PacketPtr> from_wide(domains);
        std::function<void(unsigned, bool)> busy = [&](unsigned d,
                                                       bool echo) {
            wide[d].push_back(par::concurrent);
            if (echo)
                return;
            from_narrow[d] = nullptr;
            from_wide[d] = Packet::makeRequest(MemCmd::WriteReq, d, 4);
            const unsigned next = (d + 1) % domains;
            sim.callAt(next, sim.curTick() + 2 * quantum,
                       [&busy, next] { busy(next, true); });
        };
        std::function<void(unsigned, int)> token = [&](unsigned d,
                                                       int left) {
            (sim.curTick() < quantum ? first_token : narrow)
                .push_back(par::concurrent);
            for (unsigned x = 0; x < domains; ++x) {
                from_wide[x] = nullptr;
                if (left > 0) {
                    from_narrow[x] =
                        Packet::makeRequest(MemCmd::ReadReq, x, 4);
                }
            }
            if (left == 0)
                return;
            const Tick at = sim.curTick() + quantum;
            for (unsigned x = 0; x < domains; ++x)
                sim.callAt(x, at, [&busy, x] { busy(x, false); });
            const unsigned next = (d + 3) % domains;
            sim.callAt(next, at + quantum,
                       [&token, next, left] { token(next, left - 1); });
        };
        EventFunctionWrapper start([&] { token(0, rounds); },
                                   "test.start");
        sim.domainQueue(0).schedule(&start, 0);
        sim.run();
        EXPECT_FALSE(par::concurrent);

        const bool fanned = threads > 1;
        EXPECT_EQ(first_token, std::vector<bool>{fanned});
        EXPECT_EQ(narrow, std::vector<bool>(rounds, false));
        for (const std::vector<bool> &flags : wide) {
            // One plain and one echo event per round, each domain.
            EXPECT_EQ(flags, std::vector<bool>(2 * rounds, fanned));
        }
        EXPECT_EQ(Packet::liveCount(), live);
        EXPECT_EQ(Packet::pool().freeBlocks(), free_blocks);
    };

    run(1);
    run(4);
}

TEST(ParallelEngineDeathTest, SubQuantumCrossDomainPostPanics)
{
    // A cross-domain arrival inside the current window means the
    // link's flight latency was below the quantum — the
    // conservative guarantee is broken and audit builds must say
    // so at the first occurrence, not corrupt causality silently.
    if (!auditEnabled)
        GTEST_SKIP() << "audit disabled in this build";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    EXPECT_DEATH(
        {
            TwoDomainSim t(1);
            EventFunctionWrapper poster(
                [&] {
                    t.sim.callAt(1, t.sim.curTick() + quantum / 2,
                                 [] {});
                },
                "test.poster");
            t.sim.domainQueue(0).schedule(&poster, 0);
            t.sim.run();
        },
        "inside the window");
}

TEST(ParallelEngineDeathTest, SecondThreadInNarrowWindowPanics)
{
    // A narrow window runs unlocked on the barrier holder alone, so
    // a pool operation from any other thread there is a data race
    // the window barrier does not order; audit builds must name it.
    if (!auditEnabled)
        GTEST_SKIP() << "audit disabled in this build";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    EXPECT_DEATH(
        {
            TwoDomainSim t(2);
            // Two domains never outnumber two workers, so every
            // window after the first runs inline.
            EventFunctionWrapper first([] {}, "test.first");
            EventFunctionWrapper intruder(
                [] {
                    std::thread other([] {
                        (void)Packet::makeRequest(MemCmd::ReadReq, 0,
                                                  4);
                    });
                    other.join();
                },
                "test.intruder");
            t.sim.domainQueue(0).schedule(&first, 0);
            t.sim.domainQueue(1).schedule(&intruder, 3 * quantum);
            t.sim.run();
        },
        "unlocked pool allocate off the barrier holder's thread");
}
