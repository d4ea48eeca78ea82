/**
 * @file
 * Unit tests for the replay buffer: a link end's TX ring of accepted
 * TLPs, whose transmitted prefix is the replay buffer proper and
 * whose replay cursor marks the next retransmission.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "pcie/replay_buffer.hh"

using namespace pciesim;

namespace
{

PciePkt
tlp(SeqNum seq)
{
    return PciePkt::makeTlp(
        Packet::makeRequest(MemCmd::WriteReq, 0, 64), seq);
}

/** Accept a TLP and transmit it: it joins the replay buffer. */
void
pushSent(ReplayBuffer &rb, SeqNum seq)
{
    rb.push(tlp(seq));
    EXPECT_EQ(rb.sendNew().seq(), seq);
}

} // namespace

TEST(ReplayBufferTest, FillsToCapacity)
{
    ReplayBuffer rb(4);
    EXPECT_TRUE(rb.empty());
    for (SeqNum s = 0; s < 4; ++s) {
        EXPECT_FALSE(rb.full());
        rb.push(tlp(s));
    }
    EXPECT_TRUE(rb.full());
    EXPECT_EQ(rb.size(), 4u);
    EXPECT_EQ(rb.capacity(), 4u);
}

TEST(ReplayBufferTest, AckPurgesUpToAndIncluding)
{
    ReplayBuffer rb(8);
    for (SeqNum s = 0; s < 6; ++s)
        pushSent(rb, s);
    EXPECT_EQ(rb.ack(2), 3u); // purge 0,1,2
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb.front().seq(), 3u);
    EXPECT_EQ(rb.ack(10), 3u); // purge the rest
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.ack(10), 0u); // idempotent
}

TEST(ReplayBufferTest, EntriesStayInSequenceOrder)
{
    ReplayBuffer rb(4);
    rb.push(tlp(5));
    rb.push(tlp(6));
    rb.push(tlp(7));
    SeqNum prev = 0;
    for (std::size_t i = 0; i < rb.size(); ++i) {
        EXPECT_GT(rb[i].seq(), prev);
        prev = rb[i].seq();
    }
}

TEST(ReplayBufferTest, ViolationsPanic)
{
    setLoggingThrows(true);
    ReplayBuffer rb(2);
    rb.push(tlp(3));
    EXPECT_THROW(rb.push(tlp(2)), PanicError); // non-increasing
    EXPECT_THROW(rb.push(tlp(5)), PanicError); // a gap
    EXPECT_THROW(rb.push(PciePkt::makeDllp(DllpType::Ack, 0)),
                 PanicError); // not a TLP
    rb.push(tlp(4));
    EXPECT_THROW(rb.push(tlp(5)), PanicError); // overflow
    EXPECT_THROW(ReplayBuffer(0), PanicError); // zero capacity
    EXPECT_THROW(rb.sendReplay(), PanicError);  // no replay due
    rb.sendNew();
    rb.sendNew();
    EXPECT_THROW(rb.sendNew(), PanicError);     // nothing new
    setLoggingThrows(false);
}

TEST(SeqArithmeticTest, ModularHelpers)
{
    // The DLL sequence space is 12 bits (spec: seq numbers count
    // modulo 4096); comparisons hold as long as the window stays
    // under half the modulus.
    EXPECT_EQ(seqInc(0), 1u);
    EXPECT_EQ(seqInc(4095), 0u);
    EXPECT_EQ(seqDec(0), 4095u);
    EXPECT_EQ(seqDistance(4094, 2), 4u);
    EXPECT_TRUE(seqLt(4094, 2));  // across the wrap
    EXPECT_TRUE(seqLe(2, 2));
    EXPECT_FALSE(seqLt(2, 2));
    EXPECT_FALSE(seqLt(2, 4094)); // 4094 is "behind" 2
    EXPECT_TRUE(seqLe(0, seqModulus / 2 - 1));
    EXPECT_FALSE(seqLe(0, seqModulus / 2));
    // Sequence numbers are clamped into the 12-bit space.
    EXPECT_EQ(seqClamp(4096), 0u);
    EXPECT_EQ(seqInc(8191), 0u);
}

TEST(ReplayBufferTest, SequenceWrapAround)
{
    // Fill across the 4095 -> 0 wrap; order, acking, and the seq
    // audit must all use modular comparisons.
    ReplayBuffer rb(4);
    pushSent(rb, 4094);
    pushSent(rb, 4095);
    pushSent(rb, 0);
    pushSent(rb, 1);
    EXPECT_TRUE(rb.full());

    // ACK 4095 purges the two pre-wrap entries only.
    EXPECT_EQ(rb.ack(4095), 2u);
    ASSERT_EQ(rb.size(), 2u);
    EXPECT_EQ(rb.front().seq(), 0u);

    // ACK 1 (post-wrap) purges the rest.
    EXPECT_EQ(rb.ack(1), 2u);
    EXPECT_TRUE(rb.empty());

    // Refill past the wrap point and ACK across it in one step.
    pushSent(rb, 4095);
    pushSent(rb, 0);
    EXPECT_EQ(rb.ack(0), 2u);
    EXPECT_TRUE(rb.empty());
}

TEST(ReplayBufferTest, WrapViolationsStillPanic)
{
    // Modular order must still reject pushes that go backwards,
    // including "backwards across the wrap".
    setLoggingThrows(true);
    ReplayBuffer rb(4);
    rb.push(tlp(0));
    EXPECT_THROW(rb.push(tlp(4095)), PanicError);
    rb.push(tlp(1));
    EXPECT_THROW(rb.push(tlp(1)), PanicError); // duplicate
    setLoggingThrows(false);
}

TEST(ReplayBufferTest, AckPurgesOnlyTheTransmittedPrefix)
{
    // Accepted TLPs count against the credit bound from the moment
    // they enter the ring, but only transmitted ones are the replay
    // buffer an ACK can purge.
    ReplayBuffer rb(4);
    pushSent(rb, 0);
    rb.push(tlp(1));
    rb.push(tlp(2));
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb.sent(), 1u);
    EXPECT_TRUE(rb.hasNew());
    EXPECT_EQ(rb.ack(2), 1u);
    EXPECT_EQ(rb.sent(), 0u);
    ASSERT_EQ(rb.size(), 2u);
    EXPECT_EQ(rb.front().seq(), 1u);
    EXPECT_EQ(rb.highWater(), 1u);
}

TEST(ReplayBufferTest, AckDuringReplayShiftsTheCursor)
{
    ReplayBuffer rb(4);
    for (SeqNum s = 0; s < 4; ++s)
        pushSent(rb, s);
    EXPECT_FALSE(rb.replaying());
    EXPECT_EQ(rb.cursor(), 4u);

    // A replay resends 0 and 1, then an ACK for 0 lands: one resent
    // entry is purged and the replay goes on at 2.
    rb.rewind();
    EXPECT_TRUE(rb.replaying());
    EXPECT_EQ(rb.sendReplay().seq(), 0u);
    EXPECT_EQ(rb.sendReplay().seq(), 1u);
    EXPECT_EQ(rb.ack(0), 1u);
    EXPECT_EQ(rb.cursor(), 1u);
    EXPECT_EQ(rb.sendReplay().seq(), 2u);

    // An ACK past the cursor leaves the replay at the first entry
    // left.
    EXPECT_EQ(rb.ack(2), 2u);
    EXPECT_EQ(rb.cursor(), 0u);
    EXPECT_EQ(rb.sendReplay().seq(), 3u);
    EXPECT_FALSE(rb.replaying());

    // Stopping a replay parks the cursor at the transmitted end.
    rb.rewind();
    rb.stopReplay();
    EXPECT_FALSE(rb.replaying());
    EXPECT_EQ(rb.cursor(), rb.sent());
    EXPECT_EQ(rb.highWater(), 4u);
}
