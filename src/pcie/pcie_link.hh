/**
 * @file
 * The PCI-Express link model (paper Sec. V-C, Fig. 8): two
 * unidirectional serializing links plus a link interface at each
 * end implementing a simplified data link layer - sequence numbers,
 * a bounded replay buffer, ACK DLLPs, a replay timer with the
 * spec timeout formula, and an ACK timer at 1/3 of it.
 *
 * Transmission priority (paper Sec. V-C):
 *   1. ACK DLLPs (a NAK ahead of an ACK)   2. retransmitted TLPs
 *   3. new TLPs.
 *
 * Each interface keeps its TLPs in one TX ring (replay_buffer.hh),
 * allocated once at replayBufferSize: accepted TLPs enter at its
 * tail, the transmitted prefix is the replay buffer, and a replay
 * cursor inside that prefix marks the next retransmission. A replay
 * rewinds the cursor and an ACK pops the acknowledged front; no TLP
 * is copied between queues. The ring keeps the only retained copy;
 * the wire gets its own (UnidirectionalLink::send() takes the packet
 * by value), and that is the copy a fault corrupts.
 *
 * Backpressure semantics: an interface accepts a TLP from its
 * external ports only while the TX ring has room and no replay is
 * due - accepted plus unacknowledged TLPs never exceed the replay
 * buffer's capacity (source throttling). A TLP whose delivery is
 * refused by the far end's connected port is dropped there and
 * recovered by the sender's replay timeout - exactly the mechanism
 * behind the paper's x8 congestion results.
 *
 * Fault recovery (DESIGN.md §7): with fault injection (or
 * enableNak) configured, the interfaces additionally run the spec
 * ACK/NAK machinery - LCRC-failed and out-of-sequence TLPs are
 * NAKed (one outstanding NAK per loss window), a NAK triggers an
 * immediate replay, and REPLAY_NUM replays of the same TLP bring
 * the link down for a retrain. With faults disabled the legacy
 * replay-timeout-only model above is bit-identical.
 *
 * Training (DESIGN.md §12): the upstream end owns the retrain and
 * the degradation ladder. The two ends talk about them only through
 * messages that take the link's lookahead, like any DLLP, so the
 * ends may live in different domains: the downstream end reports a
 * REPLAY_NUM rollover or a ladder-counted error upstream, and the
 * upstream end sends "down" and "up at Gen g xw" downstream. Each
 * end keeps its own copy of the operating point and timer periods.
 */

#ifndef PCIESIM_PCIE_PCIE_LINK_HH
#define PCIESIM_PCIE_PCIE_LINK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "pci/aer.hh"
#include "pcie/fault_injector.hh"
#include "pcie/pcie_pkt.hh"
#include "pcie/pcie_timing.hh"
#include "pcie/replay_buffer.hh"
#include "sim/invariant.hh"
#include "sim/ring_queue.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

/** Configuration for a PcieLink. */
struct PcieLinkParams
{
    PcieGen gen = PcieGen::Gen2;
    /** Number of lanes (1..32). */
    unsigned width = 1;
    /** Signal propagation delay per direction. */
    Tick propagationDelay = nanoseconds(1);
    /** MaxPayloadSize used in the replay-timer formula; the paper
     *  sets it to the cache-line size. */
    unsigned maxPayload = 64;
    /** Replay buffer capacity per interface (paper default 4). */
    std::size_t replayBufferSize = 4;
    /** Send ACKs immediately instead of on the ACK timer. */
    bool ackImmediate = false;
    /**
     * Multiplier on the spec replay-timeout formula. The formula's
     * InternalDelay term (receiver/transmitter internal processing)
     * is zero in the paper's model; real devices add hundreds of
     * symbol times. A scale > 1 approximates that without a
     * separate InternalDelay parameter.
     */
    double replayTimeoutScale = 1.0;
    /** Fault injection applied to both directions of the link. */
    FaultInjectorParams faults;
    /**
     * Run the NAK/retrain recovery machinery even with no faults
     * configured. It is forced on whenever faults are enabled; off
     * by default so the fault-free model recovers by replay
     * timeout alone, unchanged.
     */
    bool enableNak = false;
    /** Replays of the same TLP that trigger a link retrain. */
    unsigned replayNumThreshold = 4;
    /** Time the link stays down during a retrain. */
    Tick retrainLatency = microseconds(1);
    /**
     * Link errors within degradeWindow that trigger a downtrain —
     * one speed Gen at a time, then width halving — so a noisy link
     * degrades gracefully instead of livelocking in replay.
     * 0 disables link degradation (the default; bit-identical to
     * the pre-degradation model).
     */
    unsigned degradeThreshold = 0;
    /** Window over which errors count toward degradation. */
    Tick degradeWindow = microseconds(100);
    /**
     * Base back-off before an upconfigure attempt restores one
     * ladder step; doubled per consecutive degradation and jittered
     * by a seeded RNG so repeated attempts desynchronise.
     */
    Tick upconfigureDelay = milliseconds(1);
};

/**
 * Conservative lookahead of a link with parameters @p lp: the
 * smallest possible flight time of anything the wire carries. The
 * shortest transfer is a DLLP (8 symbols), so no event can cross
 * the link in less than its serialization time at the link's own
 * gen and width plus the propagation delay. The synchronization
 * quantum of a partitioned topology is the minimum lookahead over
 * its links, and every message between the two ends of a link
 * (training, ladder errors) takes exactly this long.
 */
inline Tick
linkLookahead(const PcieLinkParams &lp)
{
    return serializationTime(lp.gen, lp.width, overhead::dllpTotal) +
           lp.propagationDelay;
}

/**
 * Error/recovery counters of one link interface, or (summed) of a
 * whole link - the uniform accessor integration tests and benches
 * use to query any link of a topology.
 */
struct LinkErrorStats
{
    std::uint64_t txTlps = 0;
    std::uint64_t replayedTlps = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t deliveryRefusals = 0;
    std::uint64_t acceptRefusals = 0;
    std::uint64_t duplicateTlps = 0;
    std::uint64_t outOfOrderDrops = 0;
    std::uint64_t crcErrorsTlp = 0;
    std::uint64_t crcErrorsDllp = 0;
    std::uint64_t naksSent = 0;
    std::uint64_t naksReceived = 0;
    std::uint64_t retrains = 0;
    std::uint64_t degradations = 0;
    std::uint64_t upconfigures = 0;

    LinkErrorStats &
    operator+=(const LinkErrorStats &o)
    {
        txTlps += o.txTlps;
        replayedTlps += o.replayedTlps;
        timeouts += o.timeouts;
        deliveryRefusals += o.deliveryRefusals;
        acceptRefusals += o.acceptRefusals;
        duplicateTlps += o.duplicateTlps;
        outOfOrderDrops += o.outOfOrderDrops;
        crcErrorsTlp += o.crcErrorsTlp;
        crcErrorsDllp += o.crcErrorsDllp;
        naksSent += o.naksSent;
        naksReceived += o.naksReceived;
        retrains += o.retrains;
        degradations += o.degradations;
        upconfigures += o.upconfigures;
        return *this;
    }
};

class PcieLink;

/**
 * One direction of the link: serializes a PciePkt for its wire time
 * and delivers it to the sink interface after propagation.
 *
 * In a partitioned simulation the two ends can live in different
 * link domains (PcieLink::setDownstreamDomain): send() then runs on
 * the source domain and delivery on the sink domain, with the
 * in-flight queue as the only shared state and the delivery event
 * posted through the engine's mailbox. A mutex guards the queue on
 * cut wires in fanned-out windows only: in a narrow window one
 * thread runs both ends, and the window barrier orders every
 * hand-off. A retrain never clears the queue or cuts a packet
 * short: a transmission in progress when its sender goes down
 * finishes serializing (the wire stays busy until then, so each
 * wire's arrivals stay in send order), and the sink decides at each
 * arrival whether the packet was lost (LinkInterface::lostOnWire),
 * so neither end touches the other's state.
 */
class UnidirectionalLink
{
  public:
    UnidirectionalLink(PcieLink &link, const std::string &name,
                       bool toward_upstream);

    const std::string &name() const { return name_; }

    /** Bind the source (sender) and sink (receiver) domains. */
    void
    setQueues(EventQueue *src, EventQueue *sink)
    {
        srcQueue_ = src;
        sinkQueue_ = sink;
        cross_ = src != sink;
    }

    /** Earliest tick a new packet may start serializing. */
    Tick freeAt() const { return busyUntil_; }
    bool busy(Tick now) const { return busyUntil_ > now; }

    /** Accumulated wire-occupied ticks (utilization numerator). */
    Tick busyTicks() const { return busyTicks_; }

    /** Begin transmitting @p pkt at the sender's operating point,
     *  @p symbol_time ticks per symbol on @p width lanes; panics
     *  when busy. The wire keeps this copy: the fault injector
     *  corrupts it, never the sender's. */
    void send(PciePkt pkt, Tick symbol_time, unsigned width);

    /** Attach the fault state for this direction. */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

  private:
    void deliver();

    PcieLink &link_;
    std::string name_;
    bool towardUpstream_;
    FaultInjector *faults_ = nullptr;
    /** Sender domain (send() runs here); busyUntil_ is its state. */
    EventQueue *srcQueue_ = nullptr;
    /** Sink domain; deliverEvent_ lives in this queue. */
    EventQueue *sinkQueue_ = nullptr;
    /** The two ends live in different domains. */
    bool cross_ = false;
    Tick busyUntil_ = 0;
    Tick busyTicks_ = 0;

    /** One packet on the wire. The delivery event can be armed for
     *  this arrival either by the send's schedule-if-earlier
     *  (mailboxed on a cut wire) or by the sink rearming after the
     *  previous delivery — on a cut wire, whichever the wall clock
     *  happens to order first — so the arming key is fixed at send
     *  time and carried here, keeping the heap order a pure
     *  function of simulated history. */
    struct InFlight
    {
        Tick arrive;
        Tick keyOrder;
        std::uint64_t keyTie;
        PciePkt pkt;
    };
    RingQueue<InFlight> inFlight_;
    /** Guards inFlight_; taken on cut wires only, and there only
     *  in fanned-out engine windows (par::concurrent), the only
     *  time sender and sink can run on different threads at once. */
    std::mutex inFlightMu_;
    MemberEventWrapper<UnidirectionalLink,
                       &UnidirectionalLink::deliver> deliverEvent_;
};

/**
 * The TX + RX logic at one end of the link (Fig. 8).
 *
 * External connection points: extMaster() delivers requests into
 * the adjacent component and receives its responses; extSlave()
 * accepts requests from it and delivers responses to it.
 */
class LinkInterface
{
  public:
    LinkInterface(PcieLink &link, const std::string &name,
                  bool is_upstream);

    MasterPort &extMaster();
    SlavePort &extSlave();

    /** @{ Hooks called by the owning PcieLink. */
    void setTxLink(UnidirectionalLink *tx) { txLink_ = tx; }
    void setPeer(LinkInterface *peer) { peer_ = peer; }
    void recvFromWire(const PciePkt &pkt);
    void registerStats();
    /** @} */

    /** @{ Introspection for tests and benches. */
    std::uint64_t txTlps() const { return txTlps_.value(); }
    std::uint64_t replayedTlps() const { return replayedTlps_.value(); }
    std::uint64_t timeouts() const { return timeouts_.value(); }
    std::uint64_t deliveryRefusals() const
    {
        return deliveryRefusals_.value();
    }
    std::uint64_t crcErrorsTlp() const { return crcErrorsTlp_.value(); }
    std::uint64_t
    crcErrorsDllp() const
    {
        return crcErrorsDllp_.value();
    }
    std::uint64_t naksSent() const { return naksSent_.value(); }
    std::uint64_t naksReceived() const { return naksReceived_.value(); }
    std::uint64_t retrains() const { return retrains_.value(); }
    std::uint64_t acceptRefusals() const
    {
        return acceptRefusals_.value();
    }

    /**
     * Simulated ticks this interface spent refusing new TLPs for
     * lack of replay-buffer credit (closed intervals: first refusal
     * to the retry notification that reopened acceptance). The
     * fabric roll-up (DESIGN.md §14) sums this across links.
     */
    Tick creditStallTicks() const
    {
        return static_cast<Tick>(creditStallTicks_.value());
    }

    /** TLPs currently resident in the replay buffer: transmitted
     *  and unacknowledged (sampler). */
    std::size_t replayDepth() const { return txRing_.sent(); }

    /**
     * Whether an arrival sent at tick @p sent is lost: this end is
     * down, or it went down after the packet left the sender (the
     * packet was on the wire then).
     */
    bool lostOnWire(Tick sent) const
    {
        return down_ || sent < downAt_;
    }

    /** Per-hop TLP latency (inject to delivery), in ticks. */
    const stats::Histogram &hopLatency() const { return hopLatency_; }

    /** TLP inject-to-ACK-purge latency, in ticks. */
    const stats::Histogram &ackLatency() const { return ackLatency_; }

    /** Every counter of this interface in one struct. */
    LinkErrorStats errorStats() const;
    /** @} */

    PCIESIM_AUDIT_ONLY(
    /** @{
     * Test hooks (audit builds only): force an illegal NAK
     * bookkeeping state and re-run the audit, so the audit death
     * tests can prove the invariants fire.
     */
    void
    corruptNakStateForAuditTest()
    {
        nakPending_ = true;
        nakScheduled_ = false;
        auditNakState();
    }

    void
    corruptReplayNumForAuditTest()
    {
        replayNum_ = 1000;
        auditNakState();
    }
    /** @} */)

  private:
    class ExtMasterPort;
    class ExtSlavePort;

    /** Accept a TLP from an external port. */
    bool acceptTlp(const PacketPtr &pkt);

    /** Whether a new TLP can be accepted right now. */
    bool canAcceptTlp() const;

    /** Try to start a transmission if the wire is free. */
    void tryTransmit();
    void scheduleTx();

    void processAck(SeqNum seq);
    void processNak(SeqNum seq);
    void processTlp(const PciePkt &pkt);

    void scheduleAckDllp(bool immediate);
    void ackTimerFired();
    void replayTimerFired();
    void startReplayTimer();

    /** Issue protocol retries after replay-buffer space frees. */
    void notifyExternalRetry();

    /** Whether the NAK/retrain machinery is active on this link. */
    bool nakEnabled() const { return nakEnabled_; }

    /** RX: queue a NAK for a loss (one per loss window). */
    void scheduleNak();

    /** TX: count a replay of the head TLP; may start a retrain. */
    void noteReplayInitiated();

    /** @{ Training, called by the owning PcieLink on this end's
     *  own domain. goDown() stops this end (idempotent); comeUp()
     *  resumes it at the operating point the upstream end chose. */
    void goDown();
    void comeUp(PcieGen gen, unsigned width);
    void setOperatingPoint(PcieGen gen, unsigned width);
    /** @} */

    /** Audit builds: NAK bookkeeping and REPLAY_NUM invariants. */
    void auditNakState() const;

    PcieLink &link_;
    std::string name_;
    bool isUpstream_;
    /** The domain queue this interface's events and clock live on
     *  (the owning link's queue, until setDownstreamDomain() moves
     *  the downstream end). */
    EventQueue *homeQueue_ = nullptr;

    /** @{ Operating point, the symbol time and the timer periods
     *  derived from it. */
    PcieGen gen_;
    unsigned width_;
    Tick symbolTime_ = 0;
    Tick replayTimeout_ = 0;
    Tick ackPeriod_ = 0;
    /** @} */
    /** @{ Training state: down, the tick this end last went down,
     *  and (downstream end) the last retrain whose "up" arrived. */
    bool down_ = false;
    Tick downAt_ = 0;
    std::uint64_t upEpoch_ = 0;
    /** @} */
    UnidirectionalLink *txLink_ = nullptr;
    LinkInterface *peer_ = nullptr;

    std::unique_ptr<ExtMasterPort> extMaster_;
    std::unique_ptr<ExtSlavePort> extSlave_;

    /** Accepted, unacknowledged TLPs; its transmitted prefix is
     *  the replay buffer (replay_buffer.hh). */
    ReplayBuffer txRing_;
    /** Next sequence number to assign (TX). */
    SeqNum sendSeq_ = 0;
    /** Next sequence number expected (RX). */
    SeqNum recvSeq_ = 0;
    /** Coalesced pending ACK. */
    bool ackPending_ = false;
    SeqNum ackSeq_ = 0;

    /** NAK machinery active (faults configured or enableNak). */
    bool nakEnabled_ = false;
    /** NAK DLLP queued for transmission. */
    bool nakPending_ = false;
    SeqNum nakSeq_ = 0;
    /** NAK_SCHEDULED: a loss window is open; at most one NAK is
     *  sent per window (cleared when the expected TLP arrives). */
    bool nakScheduled_ = false;
    /** REPLAY_NUM: consecutive replays of the same head TLP. */
    unsigned replayNum_ = 0;
    SeqNum replayHeadSeq_ = 0;
    bool replayHeadValid_ = false;

    bool wantReqRetry_ = false;
    bool wantRespRetry_ = false;

    /** A credit-stall interval is open: the first refusal has been
     *  seen and acceptance has not resumed since. */
    bool creditStalled_ = false;
    Tick creditStallStart_ = 0;

    MemberEventWrapper<LinkInterface,
                       &LinkInterface::tryTransmit> txEvent_;
    MemberEventWrapper<LinkInterface,
                       &LinkInterface::ackTimerFired> ackTimerEvent_;
    MemberEventWrapper<LinkInterface,
                       &LinkInterface::replayTimerFired> replayTimerEvent_;

    stats::Counter txTlps_;
    stats::Counter txDllps_;
    stats::Counter rxTlps_;
    stats::Counter rxDllps_;
    stats::Counter replayedTlps_;
    stats::Counter timeouts_;
    stats::Counter duplicateTlps_;
    stats::Counter outOfOrderDrops_;
    stats::Counter deliveryRefusals_;
    stats::Counter acceptRefusals_;
    stats::Counter creditStallTicks_;
    stats::Counter crcErrorsTlp_;
    stats::Counter crcErrorsDllp_;
    stats::Counter naksSent_;
    stats::Counter naksReceived_;
    stats::Counter retrains_;
    stats::Histogram hopLatency_;
    stats::Histogram ackLatency_;
    /** @{ Dump-time formulas (stats v2). */
    stats::Formula replayFraction_;
    stats::Formula replayHighWater_;
    /** @} */

    friend class PcieLink;
};

/**
 * A full PCI-Express link: upstream interface + downstream
 * interface + two unidirectional links.
 *
 * Wiring convention: the upstream interface faces the root complex
 * or a switch downstream port; the downstream interface faces a
 * device or a switch upstream port.
 */
class PcieLink : public SimObject
{
  public:
    PcieLink(Simulation &sim, const std::string &name,
             const PcieLinkParams &params = {});
    ~PcieLink() override;

    /** @{ Upstream-side connection points (toward the RC). */
    MasterPort &upMaster();
    SlavePort &upSlave();
    /** @} */

    /** @{ Downstream-side connection points (toward the device). */
    MasterPort &downMaster();
    SlavePort &downSlave();
    /** @} */

    void init() override;

    const PcieLinkParams &params() const { return params_; }

    /** The replay timeout at the upstream end's operating point. */
    Tick
    replayTimeoutTicks() const
    {
        return upstreamIf_->replayTimeout_;
    }

    /** The ACK timer period at the upstream end's operating point. */
    Tick ackPeriodTicks() const { return upstreamIf_->ackPeriod_; }

    LinkInterface &upstreamIf() { return *upstreamIf_; }
    LinkInterface &downstreamIf() { return *downstreamIf_; }

    /**
     * Split the link across two link domains (DESIGN.md §10): the
     * upstream interface runs on the link's own queue (the link is
     * built in its upstream end's domain), the downstream interface
     * on @p down_q. The link's lookahead becomes the conservative
     * lookahead between the two domains, so it must be at least the
     * engine's quantum.
     */
    void setDownstreamDomain(EventQueue &down_q);

    /** The lookahead of this link (linkLookahead()). */
    Tick lookahead() const { return lookahead_; }

    /** Whether the upstream end is down, retraining. */
    bool training() const { return upstreamIf_->down_; }

    /** @{ Current operating point, as the upstream end sees it —
     *  params() values until the degradation ladder (DESIGN.md §12)
     *  steps them down. */
    PcieGen currentGen() const { return upstreamIf_->gen_; }
    unsigned currentWidth() const { return upstreamIf_->width_; }
    bool degraded() const;
    /** @} */

    /**
     * Upward error signalling: the sink receives every ERR_COR /
     * ERR_NONFATAL / ERR_FATAL message this link generates, tagged
     * with the AER status bit and the detecting end. Wired by the
     * system builder toward the root complex; unset, errors stay
     * local to the link counters (the pre-AER behaviour).
     */
    using ErrorSink = std::function<void(
        ErrSeverity sev, std::uint32_t aer_bit, bool at_upstream_end)>;
    void setErrorSink(ErrorSink sink) { errorSink_ = std::move(sink); }

    /** Summed error/recovery counters of both interfaces. */
    LinkErrorStats errorStats() const;

    /** @{
     * Fabric roll-up hooks (DESIGN.md §14): raw occupancy and
     * credit-stall totals the topology builder aggregates into
     * "system.fabric.*" formulas.
     */
    /** Busy ticks per wire direction ("up" carries device -> RC). */
    Tick wireUpBusyTicks() const;
    Tick wireDownBusyTicks() const;
    /** Credit-stall ticks summed over both interfaces. */
    Tick creditStallTicks() const;
    /** Accept refusals summed over both interfaces. */
    std::uint64_t acceptRefusals() const;
    /** @} */

    /** @{ Per-direction fault state (tests, benches). The
     *  "toward upstream" wire carries device -> RC traffic. */
    FaultInjector &faultsTowardUpstream() { return *faultsToUp_; }
    FaultInjector &faultsTowardDownstream() { return *faultsToDown_; }
    /** @} */

  private:
    friend class UnidirectionalLink;
    friend class LinkInterface;

    /** REPLAY_NUM exhaustion at @p initiator: the upstream end
     *  retrains at once; the downstream end goes down and asks the
     *  upstream end, one lookahead away, to retrain. */
    void requestRetrain(LinkInterface &initiator);
    /** Upstream end: take the link down (counted at @p initiator,
     *  when given). Timers stop, "down" goes to the downstream end,
     *  and the link comes back after retrainLatency with a full
     *  replay. */
    void startRetrain(LinkInterface *initiator);
    void retrainDone();

    /** Run @p fn on @p end's domain one lookahead from now: the
     *  only way one end acts on the other. */
    void sendToEnd(LinkInterface &end, std::function<void()> fn);

    /** Escalate one error detected at @p end: sink + degradation
     *  ladder. */
    void reportLinkError(LinkInterface &end, ErrSeverity sev,
                         std::uint32_t bit);
    /** @{ Degradation ladder (DESIGN.md §12), upstream end. */
    void noteErrorForDegradation();
    bool canDegrade() const;
    void degradeRetrain();
    void upconfigureTimerFired();
    void scheduleUpconfigure();
    /** @} */

    PcieLinkParams params_;
    Tick lookahead_ = 0;
    /** Retrains started; numbers the "down"/"up" message pairs. */
    std::uint64_t trainings_ = 0;
    /** @{ Degradation state. */
    ErrorSink errorSink_;
    Tick errWindowStart_ = 0;
    unsigned errInWindow_ = 0;
    bool degradePending_ = false;
    bool upconfigurePending_ = false;
    /** Consecutive degradations since the last full restore; feeds
     *  the exponential upconfigure back-off. */
    unsigned consecutiveDegrades_ = 0;
    Rng degradeRng_;
    stats::Counter degradations_;
    stats::Counter upconfigures_;
    stats::Formula currentGenStat_;
    stats::Formula currentWidthStat_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::degradeRetrain> degradeEvent_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::upconfigureTimerFired>
        upconfigureEvent_;
    /** @} */
    std::unique_ptr<FaultInjector> faultsToUp_;
    std::unique_ptr<FaultInjector> faultsToDown_;
    std::unique_ptr<LinkInterface> upstreamIf_;
    std::unique_ptr<LinkInterface> downstreamIf_;
    std::unique_ptr<UnidirectionalLink> toUpstream_;
    std::unique_ptr<UnidirectionalLink> toDownstream_;
    /** Wire-occupancy fraction per direction, evaluated at dump. */
    stats::Formula wireUpUtilization_;
    stats::Formula wireDownUtilization_;
    MemberEventWrapper<PcieLink,
                       &PcieLink::retrainDone> retrainDoneEvent_;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_PCIE_LINK_HH
