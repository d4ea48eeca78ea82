/**
 * @file
 * Unit tests for the PCI-Express link model: serialization timing,
 * the ACK/NAK protocol, replay-buffer throttling, and recovery from
 * refused deliveries (paper Sec. V-C, Fig. 8).
 */

#include <gtest/gtest.h>

#include "../common/test_ports.hh"
#include "dev/dma_engine.hh"
#include "pcie/pcie_link.hh"

using namespace pciesim;
using namespace pciesim::test;
using namespace pciesim::literals;

namespace
{

struct LinkFixture : ::testing::Test
{
    void
    build(const PcieLinkParams &params)
    {
        link = std::make_unique<PcieLink>(sim, "link", params);
        rcSrc.bind(link->upSlave());
        link->upMaster().bind(rcSink);
        link->downMaster().bind(devPio);
        devDma.bind(link->downSlave());
        sim.initialize();
    }

    Simulation sim;
    std::unique_ptr<PcieLink> link;
    RecordingMasterPort rcSrc{"rcSrc"};     //!< RC sends requests
    RecordingSlavePort rcSink{"rcSink",     //!< RC accepts DMA
                              {AddrRange{0x80000000, 0x90000000}}};
    RecordingSlavePort devPio{"devPio",     //!< device PIO target
                              {AddrRange{0x40000000, 0x40001000}}};
    RecordingMasterPort devDma{"devDma"};   //!< device DMA engine
};

} // namespace

TEST_F(LinkFixture, DeliversRequestAfterSerializationAndPropagation)
{
    PcieLinkParams p;
    p.gen = PcieGen::Gen2;
    p.width = 1;
    p.propagationDelay = 1_ns;
    build(p);

    Tick delivered = 0;
    devPio.onRequest = [&](const PacketPtr &) {
        delivered = sim.curTick();
    };
    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x40000000, 64);
    EXPECT_TRUE(rcSrc.sendTimingReq(pkt));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 1u);
    // 84 symbols * 2 ns + 1 ns propagation.
    EXPECT_EQ(delivered, 169_ns);
}

TEST_F(LinkFixture, WiderLinkIsProportionallyFaster)
{
    PcieLinkParams p;
    p.width = 4;
    p.propagationDelay = 1_ns;
    build(p);

    Tick delivered = 0;
    devPio.onRequest = [&](const PacketPtr &) {
        delivered = sim.curTick();
    };
    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    // ceil(84/4) = 21 symbols * 2 ns + 1 ns.
    EXPECT_EQ(delivered, 43_ns);
}

TEST_F(LinkFixture, ResponseTravelsBackUpstream)
{
    PcieLinkParams p;
    build(p);
    devPio.autoRespond = true;

    PacketPtr pkt = Packet::makeRequest(MemCmd::ReadReq,
                                        0x40000000, 64);
    rcSrc.sendTimingReq(pkt);
    sim.run();
    ASSERT_EQ(rcSrc.responses.size(), 1u);
    EXPECT_EQ(rcSrc.responses[0]->cmd(), MemCmd::ReadResp);
}

TEST_F(LinkFixture, DmaRequestsTravelUpstream)
{
    PcieLinkParams p;
    build(p);
    rcSink.autoRespond = true;

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x80000000, 64);
    EXPECT_TRUE(devDma.sendTimingReq(pkt));
    sim.run();
    ASSERT_EQ(rcSink.requests.size(), 1u);
    ASSERT_EQ(devDma.responses.size(), 1u);
}

TEST_F(LinkFixture, BurstStaysInOrder)
{
    PcieLinkParams p;
    p.replayBufferSize = 8;
    build(p);

    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 64 * i, 64)));
    }
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(devPio.requests[i]->addr(), 0x40000000 + 64 * i);
}

TEST_F(LinkFixture, ReplayBufferThrottlesAcceptance)
{
    // Paper Sec. V-C: "the interfaces transmit TLPs as long as
    // their replay buffer has space".
    PcieLinkParams p;
    p.replayBufferSize = 2;
    build(p);
    devPio.refuseRequests = 1000000; // deliveries never succeed

    EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::WriteReq, 0x40000000, 64)));
    EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::WriteReq, 0x40000040, 64)));
    // Third TLP: replay buffer + tx queue hold 2 unACKed already.
    EXPECT_FALSE(rcSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::WriteReq, 0x40000080, 64)));
    EXPECT_GE(link->upstreamIf().txTlps(), 0u);
}

TEST_F(LinkFixture, RefusedDeliveryRecoversThroughReplayTimeout)
{
    PcieLinkParams p;
    build(p);
    devPio.refuseRequests = 1; // refuse exactly the first delivery

    PacketPtr pkt = Packet::makeRequest(MemCmd::WriteReq,
                                        0x40000000, 64);
    rcSrc.sendTimingReq(pkt);
    sim.run();
    // The TLP was refused once, timed out, was replayed, and
    // finally delivered.
    ASSERT_EQ(devPio.requests.size(), 1u);
    EXPECT_EQ(devPio.requestsRefused, 1u);
    EXPECT_GE(link->upstreamIf().timeouts(), 1u);
    EXPECT_GE(link->upstreamIf().replayedTlps(), 1u);
    EXPECT_EQ(link->downstreamIf().deliveryRefusals(), 1u);
    // Recovery took at least one replay-timeout period.
    EXPECT_GE(sim.curTick(), link->replayTimeoutTicks());
}

TEST_F(LinkFixture, PacketBehindRefusalIsDroppedAndReplayedInOrder)
{
    PcieLinkParams p;
    p.replayBufferSize = 4;
    build(p);
    devPio.refuseRequests = 1;

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000040, 64));
    sim.run();
    // Both eventually arrive, in order, despite the first refusal.
    ASSERT_EQ(devPio.requests.size(), 2u);
    EXPECT_EQ(devPio.requests[0]->addr(), 0x40000000u);
    EXPECT_EQ(devPio.requests[1]->addr(), 0x40000040u);
}

TEST_F(LinkFixture, SpuriousReplayDuplicatesAreDiscarded)
{
    // A replay timeout shorter than the ACK turnaround forces
    // retransmission of already-accepted TLPs; the receiver must
    // discard the duplicates and re-ACK.
    PcieLinkParams p;
    p.replayTimeoutScale = 0.05; // timeout << ACK timer period
    p.ackImmediate = false;
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 1u); // delivered exactly once
    EXPECT_GE(link->upstreamIf().timeouts(), 1u);
    // The duplicate counter lives on the receiving side.
    auto &reg = sim.statsRegistry();
    EXPECT_GE(reg.counterValue("link.down.duplicateTlps"), 1u);
}

TEST_F(LinkFixture, AcceptanceResumesViaRetryAfterAck)
{
    PcieLinkParams p;
    p.replayBufferSize = 1;
    build(p);
    devPio.autoRespond = true;

    EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x40000000, 4)));
    EXPECT_FALSE(rcSrc.sendTimingReq(Packet::makeRequest(
        MemCmd::ReadReq, 0x40000004, 4)));
    sim.run();
    // After the ACK frees the replay buffer, the refused sender is
    // retried per the timing protocol.
    EXPECT_GE(rcSrc.reqRetries, 1u);
}

TEST_F(LinkFixture, AckDllpsAreCounted)
{
    PcieLinkParams p;
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    auto &reg = sim.statsRegistry();
    EXPECT_GE(reg.counterValue("link.down.txDllps"), 1u);
    EXPECT_GE(reg.counterValue("link.up.rxDllps"), 1u);
    EXPECT_EQ(reg.counterValue("link.up.txTlps"), 1u);
    EXPECT_EQ(reg.counterValue("link.down.rxTlps"), 1u);
}

TEST_F(LinkFixture, SlavePortRangesPassThroughTheLink)
{
    PcieLinkParams p;
    build(p);
    AddrRangeList up_ranges = link->upSlave().getAddrRanges();
    ASSERT_EQ(up_ranges.size(), 1u);
    EXPECT_EQ(up_ranges.front(),
              (AddrRange{0x40000000, 0x40001000}));
    AddrRangeList down_ranges = link->downSlave().getAddrRanges();
    ASSERT_EQ(down_ranges.size(), 1u);
    EXPECT_EQ(down_ranges.front(),
              (AddrRange{0x80000000, 0x90000000}));
}

TEST_F(LinkFixture, ImmediateAckModeStillDeliversEverything)
{
    PcieLinkParams p;
    p.ackImmediate = true;
    p.replayBufferSize = 4;
    build(p);
    devPio.autoRespond = true;

    for (unsigned i = 0; i < 16; ++i) {
        while (!rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x40000000 + 4 * i, 4))) {
            // Window full: let the simulation make progress.
            sim.runFor(100_ns);
        }
    }
    sim.run();
    EXPECT_EQ(devPio.requests.size(), 16u);
    EXPECT_EQ(rcSrc.responses.size(), 16u);
}

TEST_F(LinkFixture, ScriptedCorruptionRecoversViaNak)
{
    // Corrupt exactly the first TLP toward the device. The receiver
    // must NAK it and the sender must replay immediately - the
    // replay timer never fires.
    PcieLinkParams p;
    p.faults.corruptTlpNumbers = {1};
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 1u); // delivered exactly once
    EXPECT_EQ(link->downstreamIf().crcErrorsTlp(), 1u);
    EXPECT_EQ(link->downstreamIf().naksSent(), 1u);
    EXPECT_EQ(link->upstreamIf().naksReceived(), 1u);
    EXPECT_EQ(link->upstreamIf().replayedTlps(), 1u);
    EXPECT_EQ(link->upstreamIf().timeouts(), 0u);
    // NAK recovery is fast: well under one replay-timeout period.
    EXPECT_LT(sim.curTick(), link->replayTimeoutTicks());
}

TEST_F(LinkFixture, GapAfterCorruptionIsNakedOnce)
{
    // Two TLPs; the first is corrupted so the second arrives out of
    // sequence. Spec NAK_SCHEDULED semantics: one NAK covers the
    // whole loss window, and both TLPs are replayed in order.
    PcieLinkParams p;
    p.faults.corruptTlpNumbers = {1};
    p.replayBufferSize = 4;
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000040, 64));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 2u);
    EXPECT_EQ(devPio.requests[0]->addr(), 0x40000000u);
    EXPECT_EQ(devPio.requests[1]->addr(), 0x40000040u);
    EXPECT_EQ(link->downstreamIf().naksSent(), 1u);
    EXPECT_GE(link->downstreamIf().errorStats().outOfOrderDrops, 1u);
    EXPECT_EQ(link->upstreamIf().timeouts(), 0u);
}

TEST_F(LinkFixture, CorruptedAckFallsBackToReplayTimer)
{
    // Corrupt the first DLLP (the ACK travelling back upstream).
    // DLLPs are not replayed; the sender recovers via the replay
    // timer and the receiver discards the resulting duplicate.
    PcieLinkParams p;
    p.faults.corruptDllpNumbers = {1};
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 1u);
    EXPECT_EQ(link->upstreamIf().crcErrorsDllp(), 1u);
    EXPECT_GE(link->upstreamIf().timeouts(), 1u);
    auto &reg = sim.statsRegistry();
    EXPECT_GE(reg.counterValue("link.down.duplicateTlps"), 1u);
}

TEST_F(LinkFixture, PersistentCorruptionTriggersRetrain)
{
    // Everything on the wire is corrupted for a long window: the
    // same TLP is replayed over and over, REPLAY_NUM rolls over,
    // and the link retrains. When the window ends the TLP finally
    // gets through.
    PcieLinkParams p;
    p.faults.corruptWindowBegin = 0;
    p.faults.corruptWindowEnd = 2_ms;
    p.retrainLatency = 1_us;
    build(p);

    rcSrc.sendTimingReq(Packet::makeRequest(MemCmd::WriteReq,
                                            0x40000000, 64));
    sim.run();
    ASSERT_EQ(devPio.requests.size(), 1u);
    EXPECT_GE(link->errorStats().retrains, 1u);
    EXPECT_GE(link->errorStats().crcErrorsTlp,
              static_cast<std::uint64_t>(p.replayNumThreshold));
    EXPECT_GE(sim.curTick(), 2_ms);
}

TEST_F(LinkFixture, SeqWrapUnderActiveNakRecoversInOrder)
{
    // Corrupt the TLP carrying sequence number 4095 (the 4096th
    // transmission: sendSeq starts at 0). The NAK loss window then
    // straddles the 4095 -> 0 wrap, exercising seqDistance/seqLe
    // modular arithmetic under an active NAK_SCHEDULED: TLPs 0 and
    // 1 arrive out of sequence, the single NAK covers the window,
    // and the replay delivers 4095, 0, 1 in order.
    PcieLinkParams p;
    p.replayBufferSize = 4;
    p.faults.corruptTlpNumbers = {4096};
    build(p);

    constexpr unsigned total = 4100;
    for (unsigned i = 0; i < total; ++i) {
        while (!rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 8 * (i % 512), 8))) {
            sim.runFor(10_us);
        }
    }
    sim.run();

    ASSERT_EQ(devPio.requests.size(), total);
    for (unsigned i = 0; i < total; ++i) {
        ASSERT_EQ(devPio.requests[i]->addr(),
                  0x40000000 + 8 * (i % 512))
            << "out of order at TLP " << i;
    }
    EXPECT_EQ(link->downstreamIf().crcErrorsTlp(), 1u);
    EXPECT_EQ(link->downstreamIf().naksSent(), 1u);
    EXPECT_EQ(link->upstreamIf().naksReceived(), 1u);
    EXPECT_GE(link->upstreamIf().replayedTlps(), 1u);
    // NAK recovery, not the replay timer.
    EXPECT_EQ(link->upstreamIf().timeouts(), 0u);
}

TEST_F(LinkFixture, RetrainWhileReplayInFlightDeliversExactlyOnce)
{
    // Several TLPs sit in the replay buffer while the corruption
    // window outlasts REPLAY_NUM rollovers: retrains fire with a
    // replay literally in flight, repeatedly. When the window ends,
    // every TLP must still arrive exactly once and in order.
    PcieLinkParams p;
    p.replayBufferSize = 4;
    p.retrainLatency = 1_us;
    p.faults.corruptWindowBegin = 0;
    p.faults.corruptWindowEnd = 2_ms;
    build(p);

    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 64 * i, 64)));
    }
    sim.run();

    ASSERT_EQ(devPio.requests.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(devPio.requests[i]->addr(), 0x40000000 + 64 * i);
    EXPECT_GE(link->errorStats().retrains, 1u);
    EXPECT_GE(link->upstreamIf().timeouts(),
              static_cast<std::uint64_t>(p.replayNumThreshold));
    EXPECT_GE(link->upstreamIf().replayedTlps(), 4u);
    EXPECT_GE(sim.curTick(), 2_ms);
}

TEST_F(LinkFixture, RetrainShorterThanATlpKeepsArrivalsInOrder)
{
    // A 1 KiB TLP takes about 4 us on a Gen1 x1 wire, far longer
    // than the 10 ns retrain. NAKed replays roll REPLAY_NUM over
    // while one is still serializing, so the link goes down and
    // comes back up before it has left the sender, and the replay
    // that follows starts with a short TLP. That TLP must not
    // overtake the long one on the wire (deliver() panics on an
    // arrival out of send order), and every TLP must still arrive
    // exactly once, in order.
    PcieLinkParams p;
    p.gen = PcieGen::Gen1;
    p.width = 1;
    p.replayBufferSize = 4;
    p.retrainLatency = 10_ns;
    for (std::uint64_t n = 1; n <= 12; ++n)
        p.faults.corruptTlpNumbers.push_back(n);
    build(p);

    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_TRUE(rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 1024 * i,
            i % 2 == 0 ? 8 : 1024)));
    }
    sim.run();

    ASSERT_EQ(devPio.requests.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(devPio.requests[i]->addr(), 0x40000000 + 1024 * i);
    EXPECT_GE(link->errorStats().retrains, 1u);
    EXPECT_FALSE(link->training());
}

TEST_F(LinkFixture, FaultStatsStayZeroOnCleanLinks)
{
    PcieLinkParams p;
    p.enableNak = true; // NAK protocol on, but nothing to NAK
    build(p);
    devPio.autoRespond = true;

    for (unsigned i = 0; i < 8; ++i) {
        rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::ReadReq, 0x40000000 + 4 * i, 4));
        sim.run();
    }
    EXPECT_EQ(devPio.requests.size(), 8u);
    LinkErrorStats s = link->errorStats();
    EXPECT_EQ(s.crcErrorsTlp, 0u);
    EXPECT_EQ(s.crcErrorsDllp, 0u);
    EXPECT_EQ(s.naksSent, 0u);
    EXPECT_EQ(s.naksReceived, 0u);
    EXPECT_EQ(s.retrains, 0u);
}

TEST(PcieLinkConfig, InvalidParamsAreFatal)
{
    setLoggingThrows(true);
    Simulation sim;
    PcieLinkParams p;
    // The link validates its width before any timing formula runs.
    p.width = 0;
    EXPECT_THROW(PcieLink(sim, "bad", p), FatalError);
    p.width = 64;
    EXPECT_THROW(PcieLink(sim, "bad2", p), FatalError);
    p.width = 1;
    p.replayBufferSize = 0;
    EXPECT_THROW(PcieLink(sim, "bad3", p), FatalError);
    setLoggingThrows(false);
}

TEST_F(LinkFixture, SeqWrapDuringActiveRetrainDeliversInOrder)
{
    // Corrupt every transmission in a wire-ordinal span starting at
    // the TLP that carries sequence number 4095 (the 4096th
    // transmission: sendSeq starts at 0). The head TLP's replays
    // are corrupted too, REPLAY_NUM rolls over, and the retrain
    // fires while the outstanding window straddles the 4095 -> 0
    // wrap. The post-retrain full replay must walk the buffer
    // across the wrap and deliver everything exactly once.
    PcieLinkParams p;
    p.replayBufferSize = 4;
    p.retrainLatency = 1_us;
    for (std::uint64_t n = 4096; n < 4096 + 25; ++n)
        p.faults.corruptTlpNumbers.push_back(n);
    build(p);

    constexpr unsigned total = 4100;
    for (unsigned i = 0; i < total; ++i) {
        while (!rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 8 * (i % 512), 8))) {
            sim.runFor(10_us);
        }
    }
    sim.run();

    ASSERT_EQ(devPio.requests.size(), total);
    for (unsigned i = 0; i < total; ++i) {
        ASSERT_EQ(devPio.requests[i]->addr(),
                  0x40000000 + 8 * (i % 512))
            << "out of order at TLP " << i;
    }
    // The rollover actually retrained the link at the wrap.
    EXPECT_GE(link->errorStats().retrains, 1u);
    EXPECT_GE(link->errorStats().crcErrorsTlp,
              static_cast<std::uint64_t>(p.replayNumThreshold));
    EXPECT_FALSE(link->training());
}

namespace
{

/** A device-side DMA engine harness driving the link's downstream
 *  slave, for timeout-during-retrain scenarios. */
class LinkDmaHarness : public SimObject
{
  public:
    class Port : public MasterPort
    {
      public:
        explicit Port(LinkDmaHarness &h)
            : MasterPort("dmaHarness.port"), h_(h)
        {}

        bool
        recvTimingResp(PacketPtr pkt) override
        {
            return h_.engine->recvResp(pkt);
        }

        void recvReqRetry() override { h_.engine->recvRetry(); }

      private:
        LinkDmaHarness &h_;
    };

    LinkDmaHarness(Simulation &sim, const DmaEngineParams &params)
        : SimObject(sim, "dmaHarness"), port(*this)
    {
        engine = std::make_unique<DmaEngine>(*this, port,
                                             "dmaHarness.dma",
                                             params);
    }

    Port port;
    std::unique_ptr<DmaEngine> engine;
};

} // namespace

TEST(PcieLinkTimeout, CompletionTimeoutFiresWhileLinkIsDown)
{
    // A corruption window outlasting several REPLAY_NUM rollovers
    // keeps the link retraining; the requester's completion
    // watchdog must fire *during* a link-down interval, abort the
    // transfer, and the simulation must drain cleanly (stragglers
    // replayed after the window are dropped as stale).
    Simulation sim;
    PcieLinkParams p;
    p.replayBufferSize = 8;
    p.retrainLatency = 200_us; // long downs: timeouts land inside
    p.faults.corruptWindowBegin = 0;
    p.faults.corruptWindowEnd = 2_ms;
    auto link = std::make_unique<PcieLink>(sim, "link", p);
    RecordingMasterPort rcSrc{"rcSrc"};
    RecordingSlavePort rcSink{"rcSink",
                              {AddrRange{0x80000000, 0x90000000}}};
    RecordingSlavePort devPio{"devPio",
                              {AddrRange{0x40000000, 0x40001000}}};
    rcSrc.bind(link->upSlave());
    link->upMaster().bind(rcSink);
    link->downMaster().bind(devPio);
    rcSink.autoRespond = true;

    DmaEngineParams ep;
    ep.completionTimeout = 300_us;
    LinkDmaHarness h(sim, ep);
    h.port.bind(link->downSlave());
    sim.initialize();

    bool done = false;
    bool down_at_timeout = false;
    h.engine->setTimeoutHook(
        [&] { down_at_timeout = link->training(); });
    h.engine->startRead(0x80000000, 512, [&] { done = true; });
    sim.run();

    // The watchdog aborted the transfer while the link was down.
    EXPECT_TRUE(done);
    EXPECT_EQ(h.engine->completionTimeouts(), 1u);
    EXPECT_TRUE(down_at_timeout);
    EXPECT_GE(link->errorStats().retrains, 1u);
    EXPECT_FALSE(h.engine->busy());
    EXPECT_FALSE(link->training());
    // Whatever the post-window replay delivered arrived after the
    // abort and was discarded without a protocol violation.
    EXPECT_GE(sim.curTick(), 2_ms);
}

namespace
{

/**
 * Replay-cursor cases. The far end refuses every delivery, so it
 * never acknowledges anything; the test plays its DLLPs into the
 * near end with recvFromWire() at chosen ticks. Four TLPs leave back
 * to back from tick 0 and are all sent before the replay timer,
 * armed by the first, fires at tau; the timeout replay then resends
 * one TLP per wire time from tau. The replay buffer holds 8, so a
 * refusal of a fifth TLP comes from the replay rule alone.
 */
struct ReplayCursorFixture : LinkFixture
{
    void
    start(PcieLinkParams p)
    {
        p.replayBufferSize = 8;
        build(p);
        devPio.refuseRequests = 1 << 30;
        for (unsigned i = 0; i < 4; ++i)
            ASSERT_TRUE(send(i));
        wire = serializationTime(p.gen, p.width, 64 + overhead::tlpTotal);
        tau = link->replayTimeoutTicks();
        ASSERT_LT(4 * wire, tau);
    }

    bool
    send(unsigned i)
    {
        return rcSrc.sendTimingReq(Packet::makeRequest(
            MemCmd::WriteReq, 0x40000000 + 64 * i, 64));
    }

    void
    dllpAt(Tick when, DllpType type, SeqNum seq)
    {
        sim.callAt(0, when, [this, type, seq] {
            up().recvFromWire(PciePkt::makeDllp(type, seq));
        });
    }

    LinkInterface &up() { return link->upstreamIf(); }

    Tick wire = 0;
    Tick tau = 0;
};

} // namespace

TEST_F(ReplayCursorFixture, AckMidReplayResumesAtFirstUnackedTlp)
{
    start({});
    // ACK 1 lands while TLP 0 is being resent.
    dllpAt(tau + wire / 2, DllpType::Ack, 1);
    sim.run(tau + wire / 2 - 1);
    EXPECT_EQ(up().timeouts(), 1u);
    EXPECT_EQ(up().replayedTlps(), 1u);
    EXPECT_EQ(up().replayDepth(), 4u);
    EXPECT_FALSE(send(4)); // a replay closes acceptance

    sim.run(tau + wire / 2 + 1);
    // TLPs 0 (already resent) and 1 (not yet) are purged.
    EXPECT_EQ(up().replayDepth(), 2u);
    EXPECT_EQ(up().ackLatency().samples(), 2u);
    EXPECT_EQ(rcSrc.reqRetries, 0u);

    // The replay goes on at TLP 2, the first unacknowledged: 2 at
    // tau + wire and 3 at tau + 2 wire, and then it has drained.
    sim.run(tau + 2 * wire - 1);
    EXPECT_EQ(up().replayedTlps(), 2u);
    EXPECT_EQ(rcSrc.reqRetries, 0u);
    sim.run(tau + 2 * wire + 1);
    EXPECT_EQ(up().replayedTlps(), 3u); // 0, 2, 3
    EXPECT_EQ(rcSrc.reqRetries, 1u);    // acceptance reopens
    EXPECT_TRUE(send(4));

    // The new TLP follows the replay as a first transmission.
    sim.run(tau + 3 * wire + 1);
    EXPECT_EQ(up().txTlps(), 4u + 3u + 1u);
    EXPECT_EQ(up().replayedTlps(), 3u);
    EXPECT_EQ(up().replayDepth(), 3u);
}

TEST_F(ReplayCursorFixture, NakMidReplayRestartsAtOldestUnackedTlp)
{
    start({});
    // NAK 0 lands while TLP 1 is being resent: it acknowledges TLP
    // 0 and demands a replay of the rest from the start.
    dllpAt(tau + wire + wire / 2, DllpType::Nak, 0);
    sim.run(tau + wire + wire / 2 + 1);
    EXPECT_EQ(up().naksReceived(), 1u);
    EXPECT_EQ(up().replayedTlps(), 2u);
    EXPECT_EQ(up().replayDepth(), 3u);
    EXPECT_FALSE(send(4));

    // TLP 1 goes out again once the wire frees, then 2 and 3.
    sim.run(tau + 4 * wire - 1);
    EXPECT_EQ(up().replayedTlps(), 4u);
    EXPECT_EQ(rcSrc.reqRetries, 0u);
    sim.run(tau + 4 * wire + 1);
    EXPECT_EQ(up().replayedTlps(), 5u); // 0, 1, then 1, 2, 3
    EXPECT_EQ(rcSrc.reqRetries, 1u);
    EXPECT_EQ(up().timeouts(), 1u);
    EXPECT_EQ(up().replayDepth(), 3u);
}

TEST_F(ReplayCursorFixture, GoDownMidReplayThenComeUpReplaysEverything)
{
    // Corrupting every DLLP toward the near end keeps the far end's
    // own NAKs out and turns the NAK machinery on. REPLAY_NUM 2 is
    // reached by the NAK below: the timeout replay counts 1.
    PcieLinkParams p;
    for (std::uint64_t n = 1; n <= 64; ++n)
        p.faults.corruptDllpNumbers.push_back(n);
    p.replayNumThreshold = 2;
    p.retrainLatency = 1_us;
    start(p);

    // A NAK that acknowledges nothing lands while TLP 0 is being
    // resent: the second replay of the same head retrains the link.
    dllpAt(tau + wire / 2, DllpType::Nak, seqDec(0));
    sim.run(tau + wire / 2 + 1);
    EXPECT_TRUE(link->training());
    EXPECT_EQ(up().retrains(), 1u);
    EXPECT_EQ(up().replayedTlps(), 1u);
    EXPECT_EQ(up().replayDepth(), 4u);
    // Down, the replay is dropped: nothing is due, so acceptance is
    // open, but nothing is sent.
    EXPECT_TRUE(send(4));

    const Tick up_at = tau + wire / 2 + p.retrainLatency;
    sim.run(up_at - 1);
    EXPECT_EQ(up().txTlps(), 5u);
    EXPECT_EQ(up().replayDepth(), 4u);

    // Up again, every transmitted TLP is replayed from the oldest,
    // and acceptance reopens only when that replay drains.
    sim.run(up_at + 1);
    EXPECT_FALSE(link->training());
    EXPECT_FALSE(send(5));
    sim.run(up_at + 3 * wire - 1);
    EXPECT_EQ(up().replayedTlps(), 4u);
    EXPECT_EQ(rcSrc.reqRetries, 0u);
    sim.run(up_at + 3 * wire + 1);
    EXPECT_EQ(up().replayedTlps(), 5u); // 0, then 0, 1, 2, 3
    EXPECT_EQ(rcSrc.reqRetries, 1u);

    // TLP 4, accepted while down, goes out after the replay.
    sim.run(up_at + 4 * wire + 1);
    EXPECT_EQ(up().txTlps(), 4u + 5u + 1u);
    EXPECT_EQ(up().replayDepth(), 5u);
}
