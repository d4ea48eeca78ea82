/**
 * @file
 * Unit tests for the host-side event profiler (exact counts,
 * sampling, deterministic ordering, owner aggregation, JSON shape)
 * and for StatsDumper's epoch banners and final-flush semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/stats_dumper.hh"

using namespace pciesim;

namespace
{

/** RAII: every test leaves the global profiler state pristine. */
struct ProfGuard
{
    ProfGuard()
    {
        prof::reset();
        prof::setEnabled(true);
    }

    ~ProfGuard()
    {
        prof::setEnabled(false);
        prof::reset();
        prof::setSamplePeriod(64);
        prof::setReportTimes(true);
        prof::setClock(nullptr);
    }
};

/** A fake host clock the tests advance by hand. */
std::uint64_t fakeNs = 0;

std::uint64_t
fakeClock()
{
    return fakeNs;
}

/** A fake host clock that ticks 1 ns per read, so every timed
 *  invocation measures exactly 1 ns. */
std::uint64_t
tickingClock()
{
    return ++fakeNs;
}

/** Fires its named event @p fires times, @p period ticks apart. */
class Ticker : public SimObject
{
  public:
    Ticker(Simulation &sim, const std::string &name, int fires,
           Tick period = 10)
        : SimObject(sim, name), remaining_(fires), period_(period),
          event_([this] { fire(); }, name + ".tick")
    {}

    void startup() override { schedule(event_, period_); }

  private:
    void
    fire()
    {
        if (--remaining_ > 0)
            schedule(event_, period_);
    }

    int remaining_;
    Tick period_;
    EventFunctionWrapper event_;
};

const prof::HotSpot *
findSpot(const std::vector<prof::HotSpot> &spots,
         const std::string &name)
{
    for (const prof::HotSpot &h : spots) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + 1))
        ++n;
    return n;
}

} // namespace

TEST(Profiler, CountsAreExactAndFullyAttributed)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;

    Simulation sim;
    Ticker a(sim, "a", 7);
    Ticker b(sim, "b", 3);
    sim.run();

    EXPECT_EQ(prof::totalEvents(), 10u);
    EXPECT_EQ(prof::attributedEvents(), 10u);
    auto spots = prof::hotSpots();
    const prof::HotSpot *sa = findSpot(spots, "a.tick");
    const prof::HotSpot *sb = findSpot(spots, "b.tick");
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sa->count, 7u);
    EXPECT_EQ(sb->count, 3u);
}

TEST(Profiler, DisabledRecordsNothing)
{
    ProfGuard guard;
    prof::setEnabled(false);

    Simulation sim;
    Ticker a(sim, "a", 5);
    sim.run();

    EXPECT_EQ(prof::totalEvents(), 0u);
    EXPECT_TRUE(prof::hotSpots().empty());
}

TEST(Profiler, SamplePeriodBoundsTimedInvocations)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;
    prof::setClock(tickingClock);
    constexpr int fires = 4000;

    auto profile = [](std::uint64_t period) {
        prof::reset();
        prof::setSamplePeriod(period);
        {
            Simulation sim;
            Ticker a(sim, "a", fires);
            sim.run();
        }
        const auto spots = prof::hotSpots();
        const prof::HotSpot *s = findSpot(spots, "a.tick");
        EXPECT_NE(s, nullptr);
        return s ? *s : prof::HotSpot{};
    };

    // The first call is timed apart; about one in four later calls
    // is timed, at gaps drawn from the name alone, so a rerun
    // times the same calls.
    const prof::HotSpot s = profile(4);
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(fires));
    EXPECT_EQ(s.firstCalls, 1u);
    EXPECT_EQ(s.firstNs, 1u);
    EXPECT_EQ(s.sampledNs, s.sampled);
    EXPECT_NEAR(static_cast<double>(s.sampled), (fires - 1) / 4.0,
                0.1 * fires / 4.0);
    EXPECT_EQ(profile(4).sampled, s.sampled);

    // Period 1 times every call: the first apart, the rest sampled.
    const prof::HotSpot all = profile(1);
    EXPECT_EQ(all.firstNs, 1u);
    EXPECT_EQ(all.sampled, all.count - 1);
    EXPECT_EQ(all.sampledNs, all.sampled);
}

TEST(Profiler, SampledEstimateIsUnbiased)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;
    prof::setClock(fakeClock);

    // Later call k costs 10 * (1 + k % 64) ns, a pattern that
    // repeats with the default sample period; the first call costs
    // 100x their mean. Timing calls 0, 64, 128, ... would price
    // the first call 64 times over and every later one at the
    // pattern's minimum.
    constexpr std::uint64_t calls = 64 * 500;
    constexpr std::uint64_t firstNs = 100 * 325;
    auto profile = [](std::uint64_t period) {
        prof::reset();
        prof::setSamplePeriod(period);
        EventQueue q;
        std::uint64_t k = 0;
        EventFunctionWrapper ev(
            [&] {
                fakeNs += k == 0 ? firstNs : 10 * (1 + k % 64);
                ++k;
            },
            "bias.costed");
        for (std::uint64_t i = 0; i < calls; ++i) {
            q.schedule(&ev, q.curTick() + 1);
            q.step();
        }
        const auto spots = prof::hotSpots();
        const prof::HotSpot *s = findSpot(spots, "bias.costed");
        EXPECT_NE(s, nullptr);
        return s ? *s : prof::HotSpot{};
    };

    const prof::HotSpot exact = profile(1);
    const prof::HotSpot est = profile(64);
    EXPECT_EQ(exact.firstNs, firstNs);
    EXPECT_EQ(est.firstNs, firstNs);
    EXPECT_EQ(est.count, calls);
    ASSERT_GT(est.sampled, 0u);
    EXPECT_NEAR(est.estMs() / exact.estMs(), 1.0, 0.15);
    // Only later calls are sampled: their mean is the pattern's,
    // untouched by the 100x first call.
    EXPECT_NEAR(static_cast<double>(est.sampledNs) /
                    static_cast<double>(est.sampled),
                325.0, 0.15 * 325.0);
}

TEST(Profiler, ReportTimesOffIsByteDeterministic)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;
    prof::setReportTimes(false);

    Simulation sim;
    Ticker bb(sim, "bb", 5);
    Ticker aa(sim, "aa", 5);
    Ticker cc(sim, "cc", 2);
    sim.run();

    auto spots = prof::hotSpots();
    ASSERT_EQ(spots.size(), 3u);
    for (const prof::HotSpot &h : spots) {
        EXPECT_EQ(h.sampledNs, 0u);
        EXPECT_DOUBLE_EQ(h.estMs(), 0.0);
        EXPECT_DOUBLE_EQ(h.avgNs(), 0.0);
    }
    // With times suppressed the sort degrades to count desc, then
    // name asc — a deterministic ordering for golden comparisons.
    EXPECT_EQ(spots[0].name, "aa.tick");
    EXPECT_EQ(spots[1].name, "bb.tick");
    EXPECT_EQ(spots[2].name, "cc.tick");
}

TEST(Profiler, ByOwnerAggregatesOnLastDot)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;
    prof::setReportTimes(false);

    Simulation sim;
    Ticker helper(sim, "helper", 1);
    EventFunctionWrapper ea([] {}, std::string("owner.evA"));
    EventFunctionWrapper eb([] {}, std::string("owner.evB"));
    sim.initialize();
    helper.schedule(ea, 1);
    helper.schedule(eb, 2);
    sim.run();

    auto owners = prof::byOwner();
    const prof::HotSpot *o = findSpot(owners, "owner");
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->count, 2u);
    const prof::HotSpot *h = findSpot(owners, "helper");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
}

TEST(Profiler, WriteJsonTruncatesToTopN)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with PCIESIM_PROFILING=0";
    ProfGuard guard;
    prof::setReportTimes(false);

    Simulation sim;
    Ticker a(sim, "a", 5);
    Ticker b(sim, "b", 3);
    Ticker c(sim, "c", 1);
    sim.run();

    std::ostringstream os;
    prof::writeJson(os, 2);
    std::string out = os.str();
    EXPECT_EQ(countOccurrences(out, "\"name\""), 2u);
    EXPECT_NE(out.find("\"a.tick\""), std::string::npos);
    EXPECT_NE(out.find("\"b.tick\""), std::string::npos);
    EXPECT_EQ(out.find("\"c.tick\""), std::string::npos);
    EXPECT_EQ(out.front(), '[');
    EXPECT_EQ(out.back(), ']');

    std::ostringstream empty;
    prof::reset();
    prof::writeJson(empty, 8);
    EXPECT_EQ(empty.str(), "[]");
}

TEST(Profiler, HotSpotEstimatesScaleSampledTime)
{
    prof::HotSpot h{"x", 100, 10, 1000};
    // 1000 ns across 10 timed calls, scaled to all 100 calls.
    EXPECT_DOUBLE_EQ(h.estMs(), 0.01);
    EXPECT_DOUBLE_EQ(h.avgNs(), 100.0);
    prof::HotSpot unsampled{"y", 100, 0, 0};
    EXPECT_DOUBLE_EQ(unsampled.estMs(), 0.0);
    EXPECT_DOUBLE_EQ(unsampled.avgNs(), 0.0);
    // Each first call counts once at its own time; the 10 timed
    // later calls scale to the 98 later calls.
    prof::HotSpot firsts{"z", 100, 10, 1000, 2, 5000};
    EXPECT_DOUBLE_EQ(firsts.estMs(), (5000 + 9800) / 1e6);
    EXPECT_DOUBLE_EQ(firsts.avgNs(), 148.0);
}

TEST(StatsDumperTest, EpochBannersResetAndFinalFlush)
{
    const std::string path = "profiler_test_dumper.txt";

    Simulation sim;
    stats::Counter fires;
    sim.statsRegistry().add("ticker.fires", &fires,
                            "ticker invocations");
    StatsDumper dumper(sim, "dumper", 100, path);
    int seen = 0;
    EventFunctionWrapper tick(
        [&] {
            ++fires;
            if (++seen < 5)
                sim.eventq().schedule(&tick, sim.curTick() + 30);
        },
        std::string("count.tick"));
    sim.initialize();
    sim.eventq().schedule(&tick, 30);
    sim.run();

    // Epoch 0 fires at tick 100 (3 ticker fires so far, then a
    // reset); epoch 1 at tick 200 finds the queue empty and stops.
    EXPECT_EQ(dumper.epochsDumped(), 2u);
    EXPECT_EQ(fires.value(), 0u);

    // The final flush must not reset: end-of-run readouts survive.
    fires += 42;
    dumper.dumpEpoch(false);
    EXPECT_EQ(dumper.epochsDumped(), 3u);
    EXPECT_EQ(fires.value(), 42u);

    std::string text = slurp(path);
    EXPECT_EQ(
        countOccurrences(text,
                         "---------- Begin Simulation Statistics"),
        3u);
    EXPECT_EQ(
        countOccurrences(text,
                         "---------- End Simulation Statistics"),
        3u);
    EXPECT_NE(text.find("# epoch 0 curTick 100"),
              std::string::npos);
    EXPECT_NE(text.find("# epoch 1 curTick 200"),
              std::string::npos);
    EXPECT_NE(text.find("# epoch 2 curTick 200"),
              std::string::npos);
    std::remove(path.c_str());
}
