/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

class ThrowingLogging : public ::testing::Test
{
  protected:
    void SetUp() override { setLoggingThrows(true); }
    void TearDown() override { setLoggingThrows(false); }
};

using EventQueueDeathTest = ThrowingLogging;

} // namespace

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, ProcessesEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper e1([&] { order.push_back(1); }, "e1");
    EventFunctionWrapper e2([&] { order.push_back(2); }, "e2");
    EventFunctionWrapper e3([&] { order.push_back(3); }, "e3");

    q.schedule(&e2, 200);
    q.schedule(&e3, 300);
    q.schedule(&e1, 100);
    q.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 300u);
    EXPECT_EQ(q.numProcessed(), 3u);
}

TEST(EventQueueTest, SameTickEventsFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");

    q.schedule(&a, 50);
    q.schedule(&b, 50);
    q.schedule(&c, 50);
    q.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, DescheduledEventDoesNotFire)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper e([&] { ++fired; }, "e");
    q.schedule(&e, 10);
    EXPECT_TRUE(e.scheduled());
    q.deschedule(&e);
    EXPECT_FALSE(e.scheduled());
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RescheduleMovesTheEvent)
{
    EventQueue q;
    Tick fired_at = 0;
    EventFunctionWrapper e([&] { fired_at = q.curTick(); }, "e");
    q.schedule(&e, 10);
    q.reschedule(&e, 500);
    q.run();
    EXPECT_EQ(fired_at, 500u);
    EXPECT_EQ(q.numProcessed(), 1u);
}

TEST(EventQueueTest, RescheduleWorksOnUnscheduledEvent)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper e([&] { ++fired; }, "e");
    q.reschedule(&e, 42);
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, RunHonoursHorizon)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper e1([&] { ++fired; }, "e1");
    EventFunctionWrapper e2([&] { ++fired; }, "e2");
    q.schedule(&e1, 100);
    q.schedule(&e2, 1000);

    q.run(500);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 500u);
    EXPECT_TRUE(e2.scheduled());

    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    EventFunctionWrapper e(
        [&] {
            if (++count < 5)
                q.schedule(&e, q.curTick() + 10);
        },
        "self");
    q.schedule(&e, 10);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.curTick(), 50u);
}

TEST(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue q;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    q.schedule(&a, 1);
    q.schedule(&b, 2);
    EXPECT_EQ(q.size(), 2u);
    q.deschedule(&a);
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, DescheduleRescheduleCycleStaysConsistent)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper e([&] { ++fired; }, "e");
    for (int i = 0; i < 10; ++i) {
        q.schedule(&e, 100 + i);
        q.deschedule(&e);
    }
    q.schedule(&e, 200);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 200u);
}

TEST(EventQueueTest, SiblingsStayFifo)
{
    // One firing's children at one tick fire in scheduling order,
    // whatever order they were declared in.
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    EventFunctionWrapper parent(
        [&] {
            q.schedule(&c, 50);
            q.schedule(&a, 50);
            q.schedule(&b, 50);
        },
        "parent");
    q.schedule(&parent, 10);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueueTest, ChildTiesDependOnlyOnTheParentKey)
{
    // The same parent key yields the same child ties on any queue
    // of any domain, which is what makes a partitioned run execute
    // the single queue's order.
    Simulation sim;
    sim.addDomain();
    EventQueue solo;
    std::vector<std::uint64_t> ties[2];
    auto parent_on = [&ties](EventQueue &q, int i) {
        return [&q, &ties, i] {
            ties[i].push_back(q.nextTie());
            ties[i].push_back(q.nextTie());
        };
    };
    EventFunctionWrapper p0(parent_on(sim.domainQueue(1), 0), "p0");
    EventFunctionWrapper p1(parent_on(solo, 1), "p1");
    sim.domainQueue(1).scheduleKeyed(&p0, 40, 30, 12345);
    solo.scheduleKeyed(&p1, 40, 30, 12345);
    sim.domainQueue(1).run();
    solo.run();
    ASSERT_EQ(ties[0].size(), 2u);
    EXPECT_EQ(ties[0], ties[1]);
    // Siblings share the mixed high bits over a rising serial.
    EXPECT_EQ(ties[0][1], ties[0][0] + 1);
}

TEST(EventQueueTest, OutOfEventSchedulesShareTheSimulationCounter)
{
    // Construction, startup and between-run schedules on every
    // queue of one Simulation draw from one counter, so their
    // order does not depend on how the fabric was partitioned.
    Simulation sim;
    sim.addDomain();
    EventQueue &q0 = sim.domainQueue(0);
    EventQueue &q1 = sim.domainQueue(1);
    const std::uint64_t first = q0.nextTie();
    EXPECT_EQ(q1.nextTie(), first + 1);
    EXPECT_EQ(q0.nextTie(), first + 2);

    // schedule() draws from the same counter.
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    q1.schedule(&a, 10);
    q0.schedule(&b, 10);
    EXPECT_EQ(q1.nextTie(), first + 5);
}

TEST_F(EventQueueDeathTest, TooManyChildrenOfOneFiringPanics)
{
    // The sibling serial has 16 bits; the 65536th child of one
    // firing would carry into the mixed parent bits.
    EventQueue q;
    bool threw = false;
    std::uint64_t last = 0;
    EventFunctionWrapper parent(
        [&] {
            for (unsigned i = 0; i < 65535; ++i)
                last = q.nextTie();
            try {
                q.nextTie();
            } catch (const PanicError &) {
                threw = true;
            }
        },
        "parent");
    q.schedule(&parent, 1);
    q.run();
    EXPECT_EQ(last & 0xffff, 0xffffu);
    EXPECT_TRUE(threw);
}

#ifdef PCIESIM_ENABLE_AUDIT
TEST_F(EventQueueDeathTest, EqualKeysOfDistinctEventsPanic)
{
    // After a mix collision two live events could compare equal,
    // and their order would fall to heap insertion order.
    EventQueue q;
    EventFunctionWrapper a([] {}, "a");
    EventFunctionWrapper b([] {}, "b");
    q.scheduleKeyed(&a, 10, 5, 77);
    EXPECT_THROW(q.scheduleKeyed(&b, 10, 5, 77), PanicError);
}
#endif

TEST_F(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    EventFunctionWrapper late([] {}, "late");
    EventFunctionWrapper e([&] { }, "e");
    q.schedule(&e, 100);
    q.run();
    EXPECT_THROW(q.schedule(&late, 50), PanicError);
}

TEST_F(EventQueueDeathTest, DoubleSchedulePanics)
{
    EventQueue q;
    EventFunctionWrapper e([] {}, "e");
    q.schedule(&e, 10);
    EXPECT_THROW(q.schedule(&e, 20), PanicError);
}

TEST_F(EventQueueDeathTest, DescheduleUnscheduledPanics)
{
    EventQueue q;
    EventFunctionWrapper e([] {}, "e");
    EXPECT_THROW(q.deschedule(&e), PanicError);
}
