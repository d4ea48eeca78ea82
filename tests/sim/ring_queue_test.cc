/**
 * @file
 * Unit tests for RingQueue, the FIFO behind the packet queues, the
 * link wires and the TX ring: order across wraparound and growth,
 * element access and iteration, move-only elements, and release of
 * every element it drops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/packet.hh"
#include "sim/ring_queue.hh"

using namespace pciesim;

namespace
{

std::vector<int>
contents(const RingQueue<int> &q)
{
    return {q.begin(), q.end()};
}

PacketPtr
mkPkt(Addr a)
{
    return Packet::makeRequest(MemCmd::ReadReq, a, 4);
}

} // namespace

TEST(RingQueueTest, StartsEmptyWithoutStorage)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 0u);
    EXPECT_EQ(q.begin(), q.end());
}

TEST(RingQueueTest, ReserveRoundsUpToAPowerOfTwo)
{
    RingQueue<int> q;
    q.reserve(5);
    EXPECT_EQ(q.capacity(), 8u);
    q.reserve(3); // never shrinks
    EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingQueueTest, FifoOrderAcrossWraparound)
{
    RingQueue<int> q;
    q.reserve(4);
    int next_in = 0;
    int next_out = 0;
    // Keep two to three elements resident while the head laps the
    // four slots many times; the ring must never grow.
    for (int round = 0; round < 50; ++round) {
        while (q.size() < 3)
            q.push_back(next_in++);
        EXPECT_EQ(q.front(), next_out);
        EXPECT_EQ(q.back(), next_in - 1);
        q.pop_front();
        ++next_out;
    }
    EXPECT_EQ(q.capacity(), 4u);
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(RingQueueTest, GrowthWhileTheHeadIsWrappedKeepsOrder)
{
    RingQueue<int> q;
    q.reserve(4);
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    q.push_back(4);
    q.push_back(5); // the live range now wraps: slots 2,3,0,1
    ASSERT_EQ(q.capacity(), 4u);
    q.push_back(6); // full: grows
    EXPECT_EQ(q.capacity(), 8u);
    q.push_back(7);
    EXPECT_EQ(contents(q), (std::vector<int>{2, 3, 4, 5, 6, 7}));
}

TEST(RingQueueTest, PushOfAnOwnElementSurvivesGrowth)
{
    RingQueue<std::vector<int>> q;
    q.push_back({1, 2, 3});
    ASSERT_EQ(q.size(), q.capacity()); // the next push grows
    q.push_back(q.front());
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q[1], (std::vector<int>{1, 2, 3}));
}

TEST(RingQueueTest, IndexFrontBackAndIterationAgree)
{
    RingQueue<int> q;
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.pop_front();
    for (int i = 3; i < 7; ++i)
        q.push_back(i * 10);
    ASSERT_EQ(q.size(), 6u);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 60);
    std::vector<int> by_index;
    for (std::size_t i = 0; i < q.size(); ++i)
        by_index.push_back(q[i]);
    EXPECT_EQ(by_index, contents(q));
    EXPECT_EQ(by_index, (std::vector<int>{1, 2, 30, 40, 50, 60}));

    // Writes through front(), back(), [] and an iterator land in
    // the element they name.
    q.front() = -1;
    q.back() = -6;
    q[2] = -3;
    *std::find(q.begin(), q.end(), 40) = -4;
    EXPECT_EQ(contents(q), (std::vector<int>{-1, 2, -3, -4, 50, -6}));
    EXPECT_EQ(std::find(q.begin(), q.end(), 99), q.end());
}

TEST(RingQueueTest, HoldsMoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> q;
    for (int i = 0; i < 10; ++i) // grows past the wrapped head
        q.push_back(std::make_unique<int>(i));
    for (int i = 0; i < 5; ++i) {
        std::unique_ptr<int> p = std::move(q.front());
        q.pop_front();
        EXPECT_EQ(*p, i);
    }
    q.emplace_back(new int(10));
    RingQueue<std::unique_ptr<int>> moved = std::move(q);
    EXPECT_TRUE(q.empty());
    ASSERT_EQ(moved.size(), 6u);
    EXPECT_EQ(*moved.front(), 5);
    EXPECT_EQ(*moved.back(), 10);
}

TEST(RingQueueTest, CopyAndSwapKeepOrder)
{
    RingQueue<int> a;
    for (int i = 0; i < 5; ++i)
        a.push_back(i);
    a.pop_front();
    RingQueue<int> b = a;
    EXPECT_EQ(contents(b), contents(a));
    RingQueue<int> c;
    c.push_back(42);
    c.swap(a);
    EXPECT_EQ(contents(a), (std::vector<int>{42}));
    EXPECT_EQ(contents(c), (std::vector<int>{1, 2, 3, 4}));
}

TEST(RingQueueTest, PopReleasesThePacketAtOnce)
{
    const std::uint64_t base = Packet::liveCount();
    RingQueue<PacketPtr> q;
    q.reserve(4);
    for (Addr a = 0; a < 3; ++a)
        q.push_back(mkPkt(a));
    EXPECT_EQ(Packet::liveCount(), base + 3);
    // A slot that kept its reference would hold the packet until a
    // later push overwrote it.
    q.pop_front();
    EXPECT_EQ(Packet::liveCount(), base + 2);
    q.pop_front();
    q.pop_front();
    EXPECT_EQ(Packet::liveCount(), base);
}

TEST(RingQueueTest, ClearAndDestructionReleasePackets)
{
    const std::uint64_t base = Packet::liveCount();
    {
        RingQueue<PacketPtr> q;
        for (Addr a = 0; a < 6; ++a) // grows twice
            q.push_back(mkPkt(a));
        q.pop_front();
        EXPECT_EQ(Packet::liveCount(), base + 5);
        q.clear();
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(Packet::liveCount(), base);

        for (Addr a = 0; a < 3; ++a)
            q.push_back(mkPkt(a));
        EXPECT_EQ(Packet::liveCount(), base + 3);
    }
    EXPECT_EQ(Packet::liveCount(), base);
}
