#include "pcie_link.hh"

#include <algorithm>

#include "pci/config_regs.hh"
#include "sim/invariant.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace pciesim
{

using trace::Flag;

#if PCIESIM_TRACING
namespace
{

/** Wire-occupancy span label: packet kind plus sequence number. */
std::string
pktLabel(const PciePkt &pkt)
{
    if (pkt.isTlp())
        return "TLP " + std::to_string(pkt.seq());
    return (pkt.dllpType() == DllpType::Ack ? "Ack " : "Nak ") +
           std::to_string(pkt.seq());
}

} // namespace
#endif

//
// UnidirectionalLink
//

UnidirectionalLink::UnidirectionalLink(PcieLink &link,
                                       const std::string &name,
                                       bool toward_upstream)
    : link_(link), name_(name), towardUpstream_(toward_upstream),
      srcQueue_(&link.eventq()), sinkQueue_(&link.eventq()),
      deliverEvent_(this, name + ".deliverEvent")
{}

void
UnidirectionalLink::send(PciePkt pkt, Tick symbol_time, unsigned width)
{
    Tick now = srcQueue_->curTick();
    panicIf(busy(now), "unidirectional link transmit while busy");

    // Serialize at the sender's operating point: after a
    // degradation the same packet occupies the wire longer.
    Tick wire = stripedTime(pkt.wireSymbols(), width, symbol_time);
    busyUntil_ = now + wire;
    busyTicks_ += wire;
    Tick arrive = busyUntil_ + link_.params().propagationDelay;

    // Fault injection corrupts this wire copy only: the sender's
    // TX-ring copy stays intact for the retransmission.
    if (faults_ != nullptr && faults_->enabled() &&
        faults_->corruptsNext(pkt, now)) {
        pkt.markCorrupted();
    }

    // Wire occupancy as a known-duration span: one Perfetto row
    // per direction shows the link's serialization schedule.
    TRACE_COMPLETE(Flag::Link, now, wire, name_, pktLabel(pkt),
                   pkt.corrupted() ? " (corrupted)" : "");

    // The delivery key is fixed now, by the send, and travels with
    // the packet: the delivery event is armed for this arrival
    // either below or by the sink's rearm in deliver(), and both
    // must use the same key. On a cut wire which of the two runs
    // first is a wall-clock race.
    const Tick key_order = srcQueue_->curTick();
    const std::uint64_t key_tie = srcQueue_->nextTie();
    {
        std::unique_lock<std::mutex> lock(inFlightMu_,
                                          std::defer_lock);
        if (cross_ && par::concurrent)
            lock.lock();
        inFlight_.emplace_back(arrive, key_order, key_tie, std::move(pkt));
    }
    // Schedule-if-earlier is idempotent under monotone per-wire
    // arrival times. Mid-window, a cut wire's sender must not touch
    // the delivery event (the sink domain owns it), so it posts
    // through the mailbox.
    if (cross_ && par::engineActive) {
        link_.sim().engine()->postScheduleEarliest(*sinkQueue_,
                                                   deliverEvent_,
                                                   arrive, key_order,
                                                   key_tie);
    } else {
        sinkQueue_->scheduleEarliestKeyed(&deliverEvent_, arrive,
                                          key_order, key_tie);
    }
}

void
UnidirectionalLink::deliver()
{
    InFlight arrival = [this] {
        std::unique_lock<std::mutex> lock(inFlightMu_,
                                          std::defer_lock);
        if (cross_ && par::concurrent)
            lock.lock();
        panicIf(inFlight_.empty(),
                "link delivery with nothing in flight");
        InFlight front = std::move(inFlight_.front());
        inFlight_.pop_front();
        if (!inFlight_.empty()) {
            // Rearm for the next arrival with the key assigned at
            // its send; a pending mailboxed schedule-if-earlier for
            // the same packet carries the same key and degrades to
            // a no-op.
            const InFlight &next = inFlight_.front();
            sinkQueue_->scheduleEarliestKeyed(&deliverEvent_,
                                              next.arrive,
                                              next.keyOrder,
                                              next.keyTie);
        }
        return front;
    }();

    panicIf(arrival.arrive != sinkQueue_->curTick(), "link '", name_,
            "' delivering a packet due at ", arrival.arrive,
            " at tick ", sinkQueue_->curTick(),
            " (arrivals out of send order)");
    LinkInterface &sink = towardUpstream_ ? link_.upstreamIf()
                                          : link_.downstreamIf();
    // A retrain loses what is on the wire. The sink, the only end
    // that may look, drops it here on arrival.
    if (sink.lostOnWire(arrival.keyOrder))
        return;
    sink.recvFromWire(arrival.pkt);
}

//
// LinkInterface ports
//

class LinkInterface::ExtMasterPort : public MasterPort
{
  public:
    ExtMasterPort(LinkInterface &iface, const std::string &name)
        : MasterPort(name), iface_(iface)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        // A response entering the link is just another TLP.
        return iface_.acceptTlp(pkt);
    }

    void
    recvReqRetry() override
    {
        // The link does not hold refused deliveries; recovery is by
        // replay timeout (paper Sec. V-C). Ignore.
    }

  private:
    LinkInterface &iface_;
};

class LinkInterface::ExtSlavePort : public SlavePort
{
  public:
    ExtSlavePort(LinkInterface &iface, const std::string &name)
        : SlavePort(name), iface_(iface)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return iface_.acceptTlp(pkt);
    }

    void
    recvRespRetry() override
    {
        // See ExtMasterPort::recvReqRetry.
    }

    AddrRangeList
    getAddrRanges() const override
    {
        // The link is transparent: it reaches whatever sits behind
        // the far interface's master port.
        return iface_.peer_->extMaster().peer().getAddrRanges();
    }

  private:
    LinkInterface &iface_;
};

//
// LinkInterface
//

LinkInterface::LinkInterface(PcieLink &link, const std::string &name,
                             bool is_upstream)
    : link_(link), name_(name), isUpstream_(is_upstream),
      homeQueue_(&link.eventq()),
      txRing_(link.params().replayBufferSize),
      nakEnabled_(link.params().enableNak ||
                  link.params().faults.enabled()),
      txEvent_(this, name + ".txEvent"),
      ackTimerEvent_(this, name + ".ackTimer"),
      replayTimerEvent_(this, name + ".replayTimer")
{
    extMaster_ = std::make_unique<ExtMasterPort>(*this,
                                                 name + ".extMaster");
    extSlave_ = std::make_unique<ExtSlavePort>(*this,
                                               name + ".extSlave");
    setOperatingPoint(link.params().gen, link.params().width);
}

void
LinkInterface::setOperatingPoint(PcieGen gen, unsigned width)
{
    const PcieLinkParams &p = link_.params();
    gen_ = gen;
    width_ = width;
    symbolTime_ = symbolTime(gen);
    replayTimeout_ = static_cast<Tick>(
        static_cast<double>(replayTimeout(gen, width, p.maxPayload)) *
        p.replayTimeoutScale);
    ackPeriod_ = ackTimerPeriod(gen, width, p.maxPayload);
}

MasterPort &
LinkInterface::extMaster()
{
    return *extMaster_;
}

SlavePort &
LinkInterface::extSlave()
{
    return *extSlave_;
}

void
LinkInterface::registerStats()
{
    auto &reg = link_.statsRegistry();
    using stats::Unit;
    reg.add(name_ + ".txTlps", &txTlps_,
            "TLPs transmitted (including replays)", Unit::Count);
    reg.add(name_ + ".txDllps", &txDllps_, "DLLPs transmitted",
            Unit::Count);
    reg.add(name_ + ".rxTlps", &rxTlps_, "TLPs received",
            Unit::Count);
    reg.add(name_ + ".rxDllps", &rxDllps_, "DLLPs received",
            Unit::Count);
    reg.add(name_ + ".replayedTlps", &replayedTlps_,
            "TLP retransmissions", Unit::Count);
    reg.add(name_ + ".timeouts", &timeouts_, "replay timer timeouts",
            Unit::Count);
    reg.add(name_ + ".duplicateTlps", &duplicateTlps_,
            "received duplicate TLPs discarded", Unit::Count);
    reg.add(name_ + ".outOfOrderDrops", &outOfOrderDrops_,
            "TLPs dropped behind a refused delivery", Unit::Count);
    reg.add(name_ + ".deliveryRefusals", &deliveryRefusals_,
            "TLPs refused by the connected port (dropped, replayed)",
            Unit::Count);
    reg.add(name_ + ".acceptRefusals", &acceptRefusals_,
            "TLPs refused from external ports (replay buffer full)",
            Unit::Count);
    reg.add(name_ + ".creditStallTicks", &creditStallTicks_,
            "ticks spent refusing TLPs for lack of replay-buffer "
            "credit (closed stall intervals)",
            Unit::Tick);
    reg.add(name_ + ".crcErrorsTlp", &crcErrorsTlp_,
            "received TLPs discarded for LCRC failure", Unit::Count);
    reg.add(name_ + ".crcErrorsDllp", &crcErrorsDllp_,
            "received DLLPs discarded for CRC failure", Unit::Count);
    reg.add(name_ + ".naksSent", &naksSent_, "NAK DLLPs sent",
            Unit::Count);
    reg.add(name_ + ".naksReceived", &naksReceived_,
            "NAK DLLPs received", Unit::Count);
    reg.add(name_ + ".retrains", &retrains_,
            "link retrains initiated by this interface", Unit::Count);
    reg.add(name_ + ".hopLatency", &hopLatency_,
            "TLP inject-to-delivery latency across this hop (ticks)",
            Unit::Tick);
    reg.add(name_ + ".ackLatency", &ackLatency_,
            "TLP inject-to-ACK-purge latency (ticks)", Unit::Tick);

    // Dump-time formulas over the counters above (stats v2).
    replayFraction_ = [this] {
        std::uint64_t tx = txTlps_.value();
        return tx == 0 ? 0.0
                       : static_cast<double>(replayedTlps_.value()) /
                             static_cast<double>(tx);
    };
    reg.add(name_ + ".replayFraction", &replayFraction_,
            "replayed / transmitted TLPs on this interface",
            Unit::Ratio);
    replayHighWater_ = [this] {
        return static_cast<double>(txRing_.highWater());
    };
    reg.add(name_ + ".replayHighWater", &replayHighWater_,
            "deepest replay-buffer occupancy reached", Unit::Count);
}

LinkErrorStats
LinkInterface::errorStats() const
{
    LinkErrorStats s;
    s.txTlps = txTlps_.value();
    s.replayedTlps = replayedTlps_.value();
    s.timeouts = timeouts_.value();
    s.deliveryRefusals = deliveryRefusals_.value();
    s.acceptRefusals = acceptRefusals_.value();
    s.duplicateTlps = duplicateTlps_.value();
    s.outOfOrderDrops = outOfOrderDrops_.value();
    s.crcErrorsTlp = crcErrorsTlp_.value();
    s.crcErrorsDllp = crcErrorsDllp_.value();
    s.naksSent = naksSent_.value();
    s.naksReceived = naksReceived_.value();
    s.retrains = retrains_.value();
    return s;
}

bool
LinkInterface::canAcceptTlp() const
{
    // Source throttling: the replay buffer bounds the TLPs that may
    // be in flight, accepted ones included; retransmission pauses
    // new acceptance (paper Sec. V-C).
    return !txRing_.replaying() && !txRing_.full();
}

bool
LinkInterface::acceptTlp(const PacketPtr &pkt)
{
    if (!canAcceptTlp()) {
        ++acceptRefusals_;
        if (!creditStalled_) {
            creditStalled_ = true;
            creditStallStart_ = homeQueue_->curTick();
        }
        if (pkt->isRequest())
            wantReqRetry_ = true;
        else
            wantRespRetry_ = true;
        return false;
    }
    PciePkt tlp = PciePkt::makeTlp(pkt, sendSeq_);
    tlp.setInjectTick(homeQueue_->curTick());
    TRACE_MSG(Flag::Tlp, homeQueue_->curTick(), name_, "inject seq ",
              sendSeq_, " ", pkt->toString());
    // The ring's bound is the credit rule (replay_buffer.hh) and
    // its audit the credit accounting.
    txRing_.push(std::move(tlp));
    sendSeq_ = seqInc(sendSeq_);
    scheduleTx();
    return true;
}

void
LinkInterface::scheduleTx()
{
    if (down_ || txEvent_.scheduled())
        return;
    if (!ackPending_ && !nakPending_ && !txRing_.replaying() &&
        !txRing_.hasNew()) {
        return;
    }
    Tick when = std::max(homeQueue_->curTick(), txLink_->freeAt());
    homeQueue_->schedule(&txEvent_, when);
}

void
LinkInterface::tryTransmit()
{
    Tick now = homeQueue_->curTick();
    if (txLink_->busy(now)) {
        scheduleTx();
        return;
    }

    // Priority: DLLPs (NAK ahead of ACK - it carries the same
    // acknowledgement plus the replay demand), then
    // retransmissions, then new TLPs (paper Sec. V-C).
    if (nakPending_) {
        auditNakState();
        nakPending_ = false;
        ++txDllps_;
        ++naksSent_;
        txLink_->send(PciePkt::makeDllp(DllpType::Nak, nakSeq_),
                      symbolTime_, width_);
    } else if (ackPending_) {
        ackPending_ = false;
        ++txDllps_;
        txLink_->send(PciePkt::makeDllp(DllpType::Ack, ackSeq_),
                      symbolTime_, width_);
    } else if (txRing_.replaying()) {
        // The entry stays resident until an ACK purges it; the wire
        // gets a copy.
        ++txTlps_;
        ++replayedTlps_;
        txLink_->send(txRing_.sendReplay(), symbolTime_, width_);
        startReplayTimer();
        if (!txRing_.replaying())
            notifyExternalRetry(); // acceptance may resume
    } else if (txRing_.hasNew()) {
        ++txTlps_;
        txLink_->send(txRing_.sendNew(), symbolTime_, width_);
        startReplayTimer();
    } else {
        return;
    }
    scheduleTx();
}

void
LinkInterface::startReplayTimer()
{
    if (!replayTimerEvent_.scheduled()) {
        homeQueue_->schedule(&replayTimerEvent_,
                             homeQueue_->curTick() + replayTimeout_);
    }
}

void
LinkInterface::replayTimerFired()
{
    if (txRing_.sent() == 0)
        return;

    ++timeouts_;
    TRACE_MSG(Flag::Replay, homeQueue_->curTick(), name_,
              "replay timeout; replaying ", txRing_.sent(),
              " TLPs from seq ", txRing_.front().seq());
    link_.reportLinkError(*this, ErrSeverity::Correctable,
                          cfg::aerCorReplayTimerTimeout);
    if (nakEnabled()) {
        noteReplayInitiated();
        if (down_)
            return;
    }
    // Retransmit every unacknowledged TLP in sequence order; new
    // TLP acceptance halts until the replay drains (paper Sec. V-C).
    txRing_.rewind();
    startReplayTimer();
    scheduleTx();
}

void
LinkInterface::recvFromWire(const PciePkt &pkt)
{
    if (pkt.corrupted()) {
        // LCRC/CRC check failed: discard. A corrupted TLP opens a
        // loss window and is NAKed; a corrupted DLLP has no
        // recovery DLLP of its own - the sender's replay timer
        // covers the lost acknowledgement (spec; DESIGN.md §7).
        TRACE_MSG(Flag::Replay, homeQueue_->curTick(), name_,
                  "CRC error, dropping ", pktLabel(pkt));
        if (pkt.isTlp()) {
            ++crcErrorsTlp_;
            link_.reportLinkError(*this, ErrSeverity::Correctable,
                                  cfg::aerCorBadTlp);
            if (nakEnabled())
                scheduleNak();
        } else {
            ++crcErrorsDllp_;
            link_.reportLinkError(*this, ErrSeverity::Correctable,
                                  cfg::aerCorBadDllp);
        }
        return;
    }
    if (pkt.isDllp()) {
        ++rxDllps_;
        if (pkt.dllpType() == DllpType::Ack)
            processAck(pkt.seq());
        else
            processNak(pkt.seq());
    } else {
        ++rxTlps_;
        processTlp(pkt);
    }
}

void
LinkInterface::processAck(SeqNum seq)
{
    // The purge also drops acknowledged entries from a replay in
    // progress, which resumes at the first one left (spec: purge
    // before replaying).
    Tick now = homeQueue_->curTick();
    std::size_t purged = txRing_.ack(
        seq, [&](const PciePkt &p) {
            ackLatency_.sample(now - p.injectTick());
        });
    if (purged > 0) {
        // Forward progress: REPLAY_NUM restarts (spec).
        replayNum_ = 0;
        replayHeadValid_ = false;
    }

    // An ACK must purge everything at or below its sequence number;
    // anything acknowledged left resident would be replayed as a
    // duplicate after the next timeout.
    PCIESIM_AUDIT(txRing_.sent() == 0 || !seqLe(txRing_.front().seq(), seq),
                  "link '", name_, "' ack ", seq,
                  " left acknowledged TLP ", txRing_.front().seq(),
                  " resident");

    // Reset the replay timer; restart only while TLPs remain
    // unacknowledged (paper Sec. V-C). reschedule() re-keys an armed
    // timer in place and draws its tie where schedule() would, so
    // the timer's key, and the event order, match a deschedule and
    // a fresh schedule.
    if (txRing_.sent() > 0) {
        homeQueue_->reschedule(&replayTimerEvent_,
                               homeQueue_->curTick() + replayTimeout_);
    } else if (replayTimerEvent_.scheduled()) {
        homeQueue_->deschedule(&replayTimerEvent_);
    }

    notifyExternalRetry();
    scheduleTx();
}

void
LinkInterface::processNak(SeqNum seq)
{
    ++naksReceived_;
    TRACE_MSG(Flag::Replay, homeQueue_->curTick(), name_,
              "NAK received for seq ", seq, ", replaying");
    // A NAK acknowledges every TLP through its sequence number and
    // demands an immediate replay of the rest (spec; this is the
    // fast path that beats the replay timer).
    Tick now = homeQueue_->curTick();
    std::size_t purged = txRing_.ack(
        seq, [&](const PciePkt &p) {
            ackLatency_.sample(now - p.injectTick());
        });
    if (purged > 0) {
        replayNum_ = 0;
        replayHeadValid_ = false;
    }
    if (replayTimerEvent_.scheduled())
        homeQueue_->deschedule(&replayTimerEvent_);

    if (txRing_.sent() > 0) {
        noteReplayInitiated();
        if (down_)
            return;
        txRing_.rewind();
        startReplayTimer();
    }
    notifyExternalRetry();
    scheduleTx();
}

void
LinkInterface::processTlp(const PciePkt &pkt)
{
    if (pkt.seq() == recvSeq_) {
        // The expected TLP closes any open loss window: a later
        // loss may schedule a fresh NAK (NAK_SCHEDULED semantics).
        nakScheduled_ = false;
        const PacketPtr &tlp = pkt.tlp();
        bool delivered = tlp->isRequest()
            ? extMaster_->sendTimingReq(tlp)
            : extSlave_->sendTimingResp(tlp);
        if (delivered) {
            hopLatency_.sample(homeQueue_->curTick() - pkt.injectTick());
            TRACE_MSG(Flag::Tlp, homeQueue_->curTick(), name_,
                      "deliver seq ", pkt.seq());
            ackSeq_ = recvSeq_;
            recvSeq_ = seqInc(recvSeq_);
            scheduleAckDllp(link_.params().ackImmediate);
        } else {
            // The connected port refused; no ACK is generated and
            // the sender's replay timeout recovers the TLP
            // (paper Sec. V-C).
            ++deliveryRefusals_;
        }
    } else if (seqLt(pkt.seq(), recvSeq_)) {
        // Duplicate from a spurious replay: discard and re-ACK
        // immediately so the sender purges its replay buffer.
        ++duplicateTlps_;
        ackSeq_ = seqDec(recvSeq_);
        scheduleAckDllp(true);
    } else {
        // A gap: an earlier TLP was lost on the wire or its
        // delivery was refused (no ACK was generated), and this
        // later TLP was already in flight. Drop it; with the NAK
        // machinery a NAK requests the replay immediately,
        // otherwise the sender's replay timeout resends everything
        // from the missing sequence number in order.
        ++outOfOrderDrops_;
        if (nakEnabled())
            scheduleNak();
    }
}

void
LinkInterface::scheduleNak()
{
    if (nakScheduled_)
        return; // one outstanding NAK per loss window
    nakScheduled_ = true;
    nakPending_ = true;
    nakSeq_ = seqDec(recvSeq_);
    TRACE_MSG(Flag::Replay, homeQueue_->curTick(), name_,
              "loss window opened; NAK scheduled for seq ", nakSeq_);
    // The NAK acknowledges everything before the loss; a pending
    // ACK carrying the same information is subsumed by it.
    if (ackPending_ && seqLe(ackSeq_, nakSeq_))
        ackPending_ = false;
    auditNakState();
    scheduleTx();
}

void
LinkInterface::noteReplayInitiated()
{
    // REPLAY_NUM: count consecutive replays of the same
    // head-of-buffer TLP; when the threshold is hit the link
    // itself is suspect and goes down for a retrain (spec).
    SeqNum head = txRing_.front().seq();
    if (replayHeadValid_ && head == replayHeadSeq_) {
        ++replayNum_;
    } else {
        replayHeadValid_ = true;
        replayHeadSeq_ = head;
        replayNum_ = 1;
    }
    auditNakState();
    if (replayNum_ >= link_.params().replayNumThreshold) {
        // REPLAY_NUM rollover: the link itself is suspect. The spec
        // reports this as a correctable rollover plus an
        // uncorrectable (non-fatal) DLL protocol error when the
        // retrain it forces keeps failing; the model reports both
        // on the rollover.
        link_.reportLinkError(*this, ErrSeverity::Correctable,
                              cfg::aerCorReplayRollover);
        link_.reportLinkError(*this, ErrSeverity::NonFatal,
                              cfg::aerUncDlpError);
        link_.requestRetrain(*this);
    }
}

void
LinkInterface::goDown()
{
    if (down_)
        return;
    down_ = true;
    downAt_ = homeQueue_->curTick();
    // This end is down: timers stop, queued DLLPs and
    // retransmissions are lost, and arrivals in flight are dropped
    // as they land (lostOnWire()). A packet still serializing
    // finishes on the wire, and nothing new is sent before it has.
    // Unacknowledged and accepted TLPs stay in the TX ring; both go
    // out again when the end comes up.
    if (txEvent_.scheduled())
        homeQueue_->deschedule(&txEvent_);
    if (ackTimerEvent_.scheduled())
        homeQueue_->deschedule(&ackTimerEvent_);
    if (replayTimerEvent_.scheduled())
        homeQueue_->deschedule(&replayTimerEvent_);
    txRing_.stopReplay();
    ackPending_ = false;
    nakPending_ = false;
    nakScheduled_ = false;
    replayNum_ = 0;
    replayHeadValid_ = false;
}

void
LinkInterface::comeUp(PcieGen gen, unsigned width)
{
    setOperatingPoint(gen, width);
    down_ = false;
    if (txRing_.sent() > 0) {
        txRing_.rewind();
        startReplayTimer();
    }
    notifyExternalRetry();
    scheduleTx();
}

void
LinkInterface::auditNakState() const
{
#ifdef PCIESIM_ENABLE_AUDIT
    PCIESIM_AUDIT(!nakPending_ || nakScheduled_,
                  "link '", name_, "' has a NAK queued outside a "
                  "loss window (more than one NAK per window)");
    PCIESIM_AUDIT(replayNum_ <= link_.params().replayNumThreshold,
                  "link '", name_, "' REPLAY_NUM ", replayNum_,
                  " exceeds the retrain threshold ",
                  link_.params().replayNumThreshold);
#endif
}

void
LinkInterface::scheduleAckDllp(bool immediate)
{
    if (immediate) {
        if (ackTimerEvent_.scheduled())
            homeQueue_->deschedule(&ackTimerEvent_);
        ackPending_ = true;
        scheduleTx();
    } else if (!ackTimerEvent_.scheduled() && !ackPending_) {
        homeQueue_->schedule(&ackTimerEvent_,
                             homeQueue_->curTick() + ackPeriod_);
    }
}

void
LinkInterface::ackTimerFired()
{
    ackPending_ = true;
    scheduleTx();
}

void
LinkInterface::notifyExternalRetry()
{
    if (!canAcceptTlp())
        return;
    if (creditStalled_) {
        creditStalled_ = false;
        creditStallTicks_ +=
            homeQueue_->curTick() - creditStallStart_;
    }
    if (wantReqRetry_) {
        wantReqRetry_ = false;
        extSlave_->sendRetryReq();
    }
    if (wantRespRetry_ && canAcceptTlp()) {
        wantRespRetry_ = false;
        extMaster_->sendRetryResp();
    }
}

//
// PcieLink
//

PcieLink::PcieLink(Simulation &sim, const std::string &name,
                   const PcieLinkParams &params)
    : SimObject(sim, name), params_(params),
      degradeRng_(params.faults.seed ^ 0x64656772616465ULL),
      degradeEvent_(this, name + ".degradeRetrain"),
      upconfigureEvent_(this, name + ".upconfigureTimer"),
      retrainDoneEvent_(this, name + ".retrainDone")
{
    fatalIf(params_.width == 0 || params_.width > 32,
            "link '", name, "': width must be 1..32");
    fatalIf(params_.replayBufferSize == 0,
            "link '", name, "': replay buffer needs >= 1 entry");
    fatalIf(params_.replayNumThreshold == 0,
            "link '", name, "': REPLAY_NUM threshold must be >= 1");
    lookahead_ = linkLookahead(params_);

    // Distinct salts give the two directions independent fault
    // streams from the one configured seed.
    faultsToUp_ = std::make_unique<FaultInjector>(params_.faults,
                                                  params_.gen, 0);
    faultsToDown_ = std::make_unique<FaultInjector>(params_.faults,
                                                    params_.gen, 1);

    upstreamIf_ = std::make_unique<LinkInterface>(*this, name + ".up",
                                                  true);
    downstreamIf_ = std::make_unique<LinkInterface>(*this,
                                                    name + ".down",
                                                    false);
    toUpstream_ = std::make_unique<UnidirectionalLink>(
        *this, name + ".wireUp", true);
    toDownstream_ = std::make_unique<UnidirectionalLink>(
        *this, name + ".wireDown", false);
    toUpstream_->setFaultInjector(faultsToUp_.get());
    toDownstream_->setFaultInjector(faultsToDown_.get());

    upstreamIf_->setTxLink(toDownstream_.get());
    downstreamIf_->setTxLink(toUpstream_.get());
    upstreamIf_->setPeer(downstreamIf_.get());
    downstreamIf_->setPeer(upstreamIf_.get());
}

PcieLink::~PcieLink() = default;

MasterPort &
PcieLink::upMaster()
{
    return upstreamIf_->extMaster();
}

SlavePort &
PcieLink::upSlave()
{
    return upstreamIf_->extSlave();
}

MasterPort &
PcieLink::downMaster()
{
    return downstreamIf_->extMaster();
}

SlavePort &
PcieLink::downSlave()
{
    return downstreamIf_->extSlave();
}

void
PcieLink::init()
{
    upstreamIf_->registerStats();
    downstreamIf_->registerStats();

    // Wire utilization: occupied ticks over elapsed ticks, per
    // direction, evaluated when the registry dumps.
    wireUpUtilization_ = [this] {
        Tick now = curTick();
        return now == 0 ? 0.0
                        : static_cast<double>(
                              toUpstream_->busyTicks()) /
                              static_cast<double>(now);
    };
    wireDownUtilization_ = [this] {
        Tick now = curTick();
        return now == 0 ? 0.0
                        : static_cast<double>(
                              toDownstream_->busyTicks()) /
                              static_cast<double>(now);
    };
    statsRegistry().add(name() + ".wireUp.utilization",
                        &wireUpUtilization_,
                        "device->RC wire occupancy fraction",
                        stats::Unit::Ratio);
    statsRegistry().add(name() + ".wireDown.utilization",
                        &wireDownUtilization_,
                        "RC->device wire occupancy fraction",
                        stats::Unit::Ratio);

    // Degradation-ladder stats exist only when the ladder is armed,
    // keeping fault-free stats dumps bit-identical to the
    // pre-degradation goldens.
    if (params_.degradeThreshold > 0) {
        statsRegistry().add(name() + ".degradations", &degradations_,
                            "downtrain steps taken (Gen, then width)",
                            stats::Unit::Count);
        statsRegistry().add(name() + ".upconfigures", &upconfigures_,
                            "ladder steps restored after back-off",
                            stats::Unit::Count);
        currentGenStat_ = [this] {
            return static_cast<double>(
                static_cast<unsigned>(currentGen()));
        };
        statsRegistry().add(name() + ".currentGen", &currentGenStat_,
                            "operating speed generation at dump time",
                            stats::Unit::Count);
        currentWidthStat_ = [this] {
            return static_cast<double>(currentWidth());
        };
        statsRegistry().add(name() + ".currentWidth",
                            &currentWidthStat_,
                            "operating lane width at dump time",
                            stats::Unit::Count);
    }

    fatalIf(!upMaster().isBound() || !upSlave().isBound() ||
            !downMaster().isBound() || !downSlave().isBound(),
            "link '", name(), "' has unbound ports");
}

void
PcieLink::setDownstreamDomain(EventQueue &down_q)
{
    downstreamIf_->homeQueue_ = &down_q;
    // Each wire's sender is the interface at the opposite end of
    // its direction: wireUp carries downstream->upstream traffic.
    toUpstream_->setQueues(&down_q, &eventq());
    toDownstream_->setQueues(&eventq(), &down_q);
}

void
PcieLink::sendToEnd(LinkInterface &end, std::function<void()> fn)
{
    // Anything one end tells the other crosses the wire, so it takes
    // at least the lookahead: a keyed message at every thread count.
    sim().callAt(end.homeQueue_->domainId(),
                 sim().curTick() + lookahead_, std::move(fn));
}

LinkErrorStats
PcieLink::errorStats() const
{
    LinkErrorStats s = upstreamIf_->errorStats();
    s += downstreamIf_->errorStats();
    s.degradations = degradations_.value();
    s.upconfigures = upconfigures_.value();
    return s;
}

bool
PcieLink::degraded() const
{
    return currentGen() != params_.gen ||
           currentWidth() != params_.width;
}

Tick
PcieLink::wireUpBusyTicks() const
{
    return toUpstream_->busyTicks();
}

Tick
PcieLink::wireDownBusyTicks() const
{
    return toDownstream_->busyTicks();
}

Tick
PcieLink::creditStallTicks() const
{
    return upstreamIf_->creditStallTicks() +
           downstreamIf_->creditStallTicks();
}

std::uint64_t
PcieLink::acceptRefusals() const
{
    return upstreamIf_->acceptRefusals() +
           downstreamIf_->acceptRefusals();
}

void
PcieLink::reportLinkError(LinkInterface &end, ErrSeverity sev,
                          std::uint32_t bit)
{
    TRACE_MSG(Flag::Link, end.homeQueue_->curTick(), name(),
              errSeverityName(sev), " detected at the ",
              end.isUpstream_ ? "upstream" : "downstream",
              " end (AER bit 0x", bit, ")");
    // The ladder counts errors at the upstream end, which owns it;
    // one seen downstream reaches it one lookahead later.
    if (params_.degradeThreshold > 0) {
        if (end.isUpstream_)
            noteErrorForDegradation();
        else
            sendToEnd(*upstreamIf_,
                      [this] { noteErrorForDegradation(); });
    }
    if (errorSink_)
        errorSink_(sev, bit, end.isUpstream_);
}

void
PcieLink::noteErrorForDegradation()
{
    if (params_.degradeThreshold == 0)
        return;
    Tick now = curTick();
    if (now - errWindowStart_ > params_.degradeWindow) {
        errWindowStart_ = now;
        errInWindow_ = 0;
    }
    if (++errInWindow_ < params_.degradeThreshold)
        return;
    // Sustained error rate: step the ladder down. The window
    // restarts so the degraded link gets a fresh chance before the
    // next step.
    errWindowStart_ = now;
    errInWindow_ = 0;
    if (!canDegrade() || degradePending_)
        return;
    degradePending_ = true;
    // The step is applied at the end of a retrain; piggy-back on a
    // retrain already in progress, otherwise force one. The forcing
    // event keeps the downtrain off this call stack - errors are
    // detected deep inside TLP processing.
    if (!training() && !degradeEvent_.scheduled())
        eventq().schedule(&degradeEvent_, now);
}

bool
PcieLink::canDegrade() const
{
    return currentGen() != PcieGen::Gen1 || currentWidth() > 1;
}

void
PcieLink::degradeRetrain()
{
    if (training())
        return; // retrainDone() applies the pending step
    startRetrain(upstreamIf_.get());
}

void
PcieLink::scheduleUpconfigure()
{
    if (upconfigureEvent_.scheduled())
        eventq().deschedule(&upconfigureEvent_);
    // Exponential back-off per consecutive degradation, jittered by
    // the seeded RNG so repeated attempts don't phase-lock with the
    // workload; fully deterministic for a fixed seed.
    unsigned shift = std::min(consecutiveDegrades_ - 1, 4u);
    Tick backoff = params_.upconfigureDelay << shift;
    Tick jitter = params_.upconfigureDelay == 0
        ? 0
        : degradeRng_.next() % (params_.upconfigureDelay / 4 + 1);
    eventq().schedule(&upconfigureEvent_,
                      curTick() + backoff + jitter);
}

void
PcieLink::upconfigureTimerFired()
{
    if (!degraded() || degradePending_ || upconfigurePending_)
        return;
    if (errInWindow_ > 0 &&
        curTick() - errWindowStart_ <= params_.degradeWindow) {
        // The window is not clean yet; back off again without
        // deepening the ladder.
        scheduleUpconfigure();
        return;
    }
    upconfigurePending_ = true;
    if (!training())
        startRetrain(upstreamIf_.get());
}

void
PcieLink::requestRetrain(LinkInterface &initiator)
{
    if (initiator.isUpstream_) {
        startRetrain(&initiator);
        return;
    }
    // The downstream end enters recovery on its own and asks the
    // upstream end, which owns training, to run the retrain. A
    // retrain already under way there answers the request.
    ++initiator.retrains_;
    initiator.goDown();
    sendToEnd(*upstreamIf_, [this] { startRetrain(nullptr); });
}

void
PcieLink::startRetrain(LinkInterface *initiator)
{
    if (training())
        return;
    if (initiator != nullptr)
        ++initiator->retrains_;
    TRACE_SPAN_BEGIN(Flag::Retrain, curTick(), name(),
                     "retrain (initiated by ",
                     initiator != nullptr ? initiator->name_
                                          : downstreamIf_->name_,
                     ")");
    // The link is down. This end stops now and the downstream end
    // one lookahead later; each loses what is on its incoming wire.
    // The replay buffers recover the TLPs; lost DLLP state is
    // rebuilt from the duplicate re-ACK path after the replay.
    const std::uint64_t epoch = ++trainings_;
    upstreamIf_->goDown();
    sendToEnd(*downstreamIf_, [this, epoch] {
        // An "up" that overtook this "down" (retrainLatency 0)
        // already finished this retrain.
        if (epoch > downstreamIf_->upEpoch_)
            downstreamIf_->goDown();
    });
    eventq().schedule(&retrainDoneEvent_,
                      curTick() + params_.retrainLatency);
}

void
PcieLink::retrainDone()
{
    TRACE_SPAN_END(Flag::Retrain, curTick(), name());
    // The ladder moves only across a retrain: the link comes back
    // up at the new operating point (DESIGN.md §12).
    PcieGen gen = currentGen();
    unsigned width = currentWidth();
    if (degradePending_) {
        degradePending_ = false;
        if (gen != PcieGen::Gen1)
            gen = static_cast<PcieGen>(static_cast<unsigned>(gen) - 1);
        else if (width > 1)
            width /= 2;
        ++degradations_;
        ++consecutiveDegrades_;
        upstreamIf_->setOperatingPoint(gen, width);
        TRACE_MSG(Flag::Retrain, curTick(), name(), "degraded to Gen",
                  static_cast<unsigned>(gen), " x", width);
        inform("link '", name(), "': degraded to Gen",
               static_cast<unsigned>(gen), " x", width,
               " after sustained errors");
        scheduleUpconfigure();
    } else if (upconfigurePending_) {
        upconfigurePending_ = false;
        if (width < params_.width)
            width *= 2;
        else if (gen != params_.gen)
            gen = static_cast<PcieGen>(static_cast<unsigned>(gen) + 1);
        ++upconfigures_;
        upstreamIf_->setOperatingPoint(gen, width);
        TRACE_MSG(Flag::Retrain, curTick(), name(),
                  "upconfigured to Gen", static_cast<unsigned>(gen),
                  " x", width);
        if (degraded())
            scheduleUpconfigure();
        else
            consecutiveDegrades_ = 0;
    }
    // Both ends come up at the chosen operating point: this one
    // now, the downstream end when "up" reaches it.
    upstreamIf_->comeUp(gen, width);
    const std::uint64_t epoch = trainings_;
    sendToEnd(*downstreamIf_, [this, epoch, gen, width] {
        downstreamIf_->upEpoch_ = epoch;
        downstreamIf_->comeUp(gen, width);
    });
}

} // namespace pciesim
