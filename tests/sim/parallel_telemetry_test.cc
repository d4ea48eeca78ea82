/**
 * @file
 * Unit tests for the parallel engine's flight recorder (ISSUE 10,
 * DESIGN.md §14), driven through a two-domain Simulation: the
 * deterministic counters (windows, per-domain events, stall
 * classification, mailbox matrix) must record real traffic, agree
 * with the simulated history, survive a stats dump, zero on a
 * registry epoch reset, and accumulate again afterwards.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"

using namespace pciesim;

namespace
{

constexpr Tick quantum = 100;

/** A Simulation partitioned into two labelled domains with the
 *  engine attached; nothing scheduled yet. */
struct TwoDomainSim
{
    explicit TwoDomainSim(unsigned threads)
    {
        unsigned d1 = sim.addDomain("nic0");
        EXPECT_EQ(d1, 1u);
        sim.setupParallel(threads, quantum);
    }

    Simulation sim;
};

/** Kick off a ping-pong of @p rounds hops starting on domain 0 at
 *  @p at; every hop posts to the OTHER domain, so each one is
 *  exactly one cross-domain mailbox operation. */
struct PingPong
{
    PingPong(TwoDomainSim &t, int rounds, Tick at = 0)
        : start([this, &t, rounds] { hop(t, rounds, 0); },
                "test.start")
    {
        t.sim.domainQueue(0).schedule(&start, at);
    }

    void hop(TwoDomainSim &t, int left, unsigned cur)
    {
        ++fires;
        if (left > 0) {
            t.sim.callAt(1 - cur, t.sim.curTick() + quantum,
                         [this, &t, left, cur] {
                             hop(t, left - 1, 1 - cur);
                         });
        }
    }

    int fires = 0;
    EventFunctionWrapper start;
};

} // namespace

TEST(ParallelTelemetryTest, RecordsWindowsEventsAndMailboxTraffic)
{
    constexpr int rounds = 8;
    TwoDomainSim t(2);
    PingPong pp(t, rounds);
    t.sim.run();
    ASSERT_EQ(pp.fires, rounds + 1);

    ParallelEngine &eng = *t.sim.engine();
    // One window per quantum hop (plus the kick-off window).
    EXPECT_GE(eng.windowsSynced(), static_cast<std::uint64_t>(rounds));
    // Every fire executed on some domain's queue inside a window.
    std::uint64_t events = 0;
    for (unsigned d = 0; d < eng.numDomains(); ++d)
        events += eng.domainEvents(d);
    EXPECT_GE(events, static_cast<std::uint64_t>(rounds + 1));

    // rounds hops, each one mailboxed cross-domain exactly once —
    // both directions carry traffic and the totals balance.
    std::uint64_t sent = 0, received = 0;
    for (unsigned d = 0; d < eng.numDomains(); ++d) {
        sent += eng.mailboxSent(d);
        received += eng.mailboxReceived(d);
    }
    EXPECT_EQ(sent, static_cast<std::uint64_t>(rounds));
    EXPECT_EQ(sent, received);
    EXPECT_GT(eng.mailboxSent(0), 0u);
    EXPECT_GT(eng.mailboxSent(1), 0u);
    EXPECT_GT(eng.mailboxReceived(0), 0u);
    EXPECT_GT(eng.mailboxReceived(1), 0u);

    // Perfectly alternating load: imbalance stays near 1.
    EXPECT_GE(eng.loadImbalance(), 1.0);
    EXPECT_LT(eng.loadImbalance(), 2.0);

    // Wall-derived quantities read 0 without --profile.
    EXPECT_EQ(eng.syncOverheadFraction(), 0.0);

    EXPECT_EQ(eng.domainLabel(0), "host");
    EXPECT_EQ(eng.domainLabel(1), "nic0");
}

TEST(ParallelTelemetryTest, StallWindowsClassifyLookaheadStarvation)
{
    // Domain 0 works every window; domain 1 holds one far-future
    // event, so until it fires every window leaves domain 1 with
    // pending work beyond the horizon and nothing executed. The
    // counts are pinned to what the engine recorded when it still
    // entered every domain in every window: 11 windows, domain 1
    // stalls in the 5 before its event and is active in 1.
    for (unsigned threads : {1u, 2u}) {
        TwoDomainSim t(threads);
        int busy = 0, far = 0;
        std::function<void(int)> churn = [&](int left) {
            ++busy;
            if (left > 0) {
                t.sim.callAt(0, t.sim.curTick() + quantum,
                             [&churn, left] { churn(left - 1); });
            }
        };
        EventFunctionWrapper start([&] { churn(10); }, "test.start");
        EventFunctionWrapper lone([&] { ++far; }, "test.lone");
        t.sim.domainQueue(0).schedule(&start, 0);
        t.sim.domainQueue(1).schedule(&lone, 5 * quantum);

        t.sim.run();
        EXPECT_EQ(busy, 11);
        EXPECT_EQ(far, 1);

        ParallelEngine &eng = *t.sim.engine();
        EXPECT_EQ(eng.windowsSynced(), 11u);
        EXPECT_EQ(eng.domainEvents(0), 11u);
        EXPECT_EQ(eng.activeWindows(0), 11u);
        EXPECT_EQ(eng.stallWindows(0), 0u);
        EXPECT_EQ(eng.domainEvents(1), 1u);
        EXPECT_EQ(eng.activeWindows(1), 1u);
        EXPECT_EQ(eng.stallWindows(1), 5u);
    }
}

TEST(ParallelTelemetryTest, CountersSurviveDumpAndResetEpoch)
{
    TwoDomainSim t(2);
    PingPong pp(t, 6);
    t.sim.run();

    ParallelEngine &eng = *t.sim.engine();
    const std::uint64_t windows = eng.windowsSynced();
    const std::uint64_t sent = eng.mailboxSent(0) + eng.mailboxSent(1);
    ASSERT_GT(windows, 0u);
    ASSERT_GT(sent, 0u);

    // A dump is a read: nothing may consume the counters.
    std::ostringstream os;
    t.sim.statsRegistry().dumpJson(os, t.sim.curTick());
    EXPECT_NE(os.str().find("system.parallel.domainEvents"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"nic0\""), std::string::npos);
    EXPECT_EQ(eng.windowsSynced(), windows);
    EXPECT_EQ(eng.mailboxSent(0) + eng.mailboxSent(1), sent);

    // Epoch roll: registered telemetry zeroes with the registry.
    t.sim.statsRegistry().resetAll();
    EXPECT_EQ(eng.windowsSynced(), 0u);
    for (unsigned d = 0; d < eng.numDomains(); ++d) {
        EXPECT_EQ(eng.domainEvents(d), 0u);
        EXPECT_EQ(eng.stallWindows(d), 0u);
        EXPECT_EQ(eng.mailboxSent(d), 0u);
        EXPECT_EQ(eng.mailboxReceived(d), 0u);
    }

    // ...and the next run accumulates from zero, not from the
    // pre-reset totals.
    PingPong again(t, 4, t.sim.curTick() + quantum);
    t.sim.run();
    EXPECT_EQ(again.fires, 5);
    EXPECT_GT(eng.windowsSynced(), 0u);
    EXPECT_LT(eng.windowsSynced(), windows + 4);
    EXPECT_EQ(eng.mailboxSent(0) + eng.mailboxSent(1), 4u);
}

TEST(ParallelTelemetryTest, IdleDomainsOnlyClassifyTheirWindow)
{
    // One window, bounded at its own horizon: domain 0 works
    // inside it, domain 1's only event lies past it, domain 2 is
    // empty. The busy domain counts an active window; the one with
    // work past the horizon counts a stall and nothing else; the
    // empty one counts neither.
    for (unsigned threads : {1u, 3u}) {
        Simulation sim;
        sim.addDomain("far");
        sim.addDomain("empty");
        sim.setupParallel(threads, quantum);
        int fires = 0;
        EventFunctionWrapper near([&] { ++fires; }, "test.near");
        EventFunctionWrapper far([&] { ++fires; }, "test.far");
        sim.domainQueue(0).schedule(&near, 10);
        sim.domainQueue(1).schedule(&far, 3 * quantum);

        sim.run(quantum - 1);
        ASSERT_EQ(fires, 1);
        const ParallelEngine &eng = *sim.engine();
        EXPECT_EQ(eng.windowsSynced(), 1u);
        EXPECT_EQ(eng.domainEvents(0), 1u);
        EXPECT_EQ(eng.activeWindows(0), 1u);
        EXPECT_EQ(eng.stallWindows(0), 0u);
        EXPECT_EQ(eng.domainEvents(1), 0u);
        EXPECT_EQ(eng.activeWindows(1), 0u);
        EXPECT_EQ(eng.stallWindows(1), 1u);
        EXPECT_EQ(eng.domainEvents(2), 0u);
        EXPECT_EQ(eng.activeWindows(2), 0u);
        EXPECT_EQ(eng.stallWindows(2), 0u);

        // Drained, the far domain runs its one window.
        sim.run();
        EXPECT_EQ(fires, 2);
        EXPECT_EQ(eng.domainEvents(1), 1u);
        EXPECT_EQ(eng.activeWindows(1), 1u);
        EXPECT_EQ(eng.stallWindows(1), 1u);
        EXPECT_EQ(eng.activeWindows(2), 0u);
        EXPECT_EQ(eng.stallWindows(2), 0u);
    }
}

TEST(ParallelTelemetryTest, OneWorkerMeasuresItsCompletionStep)
{
    // With one worker there is no barrier to wait at; the sync
    // cost is the completion step itself (mailbox drain and next
    // window), and it must show up in the estimate rather than
    // read 0.
    if (!prof::compiledIn)
        GTEST_SKIP() << "profiler compiled out";
    prof::reset();
    prof::setEnabled(true);
    prof::setReportTimes(true);
    TwoDomainSim t(1);
    PingPong pp(t, 64);
    t.sim.run();
    const double frac = t.sim.engine()->syncOverheadFraction();
    prof::setEnabled(false);
    prof::reset();
    ASSERT_EQ(pp.fires, 65);
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 1.0);
}
