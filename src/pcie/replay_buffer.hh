/**
 * @file
 * The TX ring of a PCI-Express link interface, whose transmitted
 * prefix is the replay buffer (paper Sec. V-C).
 *
 * The ring holds every TLP the interface accepted and the far end
 * has not acknowledged, in sequence-number order, and is allocated
 * once at the replay buffer's capacity. Two boundaries split it:
 *
 *   [0, cursor)      transmitted, not due again
 *   [cursor, sent)   transmitted, due for retransmission (a replay)
 *   [sent, size)     accepted, not yet transmitted
 *
 * [0, sent) is the replay buffer proper. An ACK purges acknowledged
 * TLPs from its front, a replay (timeout, NAK, link up) rewinds the
 * cursor to 0 instead of copying the entries, and taking the link
 * down parks the cursor at sent. The credit rule is the ring's
 * bound: a link end accepts a TLP only while the ring has room and
 * no replay is in progress, so accepted plus unacknowledged TLPs
 * never exceed the replay buffer's capacity (source throttling).
 */

#ifndef PCIESIM_PCIE_REPLAY_BUFFER_HH
#define PCIESIM_PCIE_REPLAY_BUFFER_HH

#include <algorithm>

#include "pcie/pcie_pkt.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/ring_queue.hh"

namespace pciesim
{

/**
 * Bounded ring of accepted, unacknowledged TLPs with a replay
 * cursor. In audit builds every mutation re-verifies the ring
 * invariant (sim/invariant.hh): cursor <= sent <= size <= capacity,
 * with consecutive sequence numbers.
 */
class ReplayBuffer
{
  public:
    /** @param capacity Maximum resident TLPs (paper sweeps 1..4). */
    explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity)
    {
        panicIf(capacity == 0, "replay buffer needs capacity >= 1");
        ring_.reserve(capacity);
    }

    /** No credit left: accepted plus unacknowledged TLPs fill it. */
    bool full() const { return ring_.size() >= capacity_; }
    bool empty() const { return ring_.empty(); }
    /** Accepted, unacknowledged TLPs, transmitted or not. */
    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Transmitted, unacknowledged TLPs: the replay buffer depth. */
    std::size_t sent() const { return sent_; }
    /** Next entry a replay retransmits (== sent() when idle). */
    std::size_t cursor() const { return cursor_; }
    /** A replay has entries left to retransmit. */
    bool replaying() const { return cursor_ < sent_; }
    /** Accepted TLPs wait for their first transmission. */
    bool hasNew() const { return sent_ < ring_.size(); }

    /** Deepest transmitted prefix ever reached (a congestion
     *  fingerprint: high water at capacity means source throttling
     *  engaged). */
    std::size_t highWater() const { return highWater_; }

    /** Entry @p i in sequence order; 0 is the oldest. */
    const PciePkt &operator[](std::size_t i) const { return ring_[i]; }
    const PciePkt &front() const { return ring_.front(); }

    /** Accept a TLP; it takes the next sequence number. */
    void
    push(PciePkt pkt)
    {
        panicIf(!pkt.isTlp(), "only TLPs enter the replay buffer");
        panicIf(full(), "replay buffer overflow");
        panicIf(!ring_.empty() && seqInc(ring_.back().seq()) != pkt.seq(),
                "replay buffer sequence numbers must be consecutive");
        ring_.push_back(std::move(pkt));
        auditRing();
    }

    /** Transmit the oldest untransmitted TLP: it joins the replay
     *  buffer. @return the entry, which stays resident. */
    const PciePkt &
    sendNew()
    {
        panicIf(replaying() || !hasNew(),
                "new TLP sent during a replay or with none queued");
        const PciePkt &pkt = ring_[sent_];
        cursor_ = ++sent_;
        highWater_ = std::max(highWater_, sent_);
        auditRing();
        return pkt;
    }

    /** Retransmit the entry at the cursor and advance it. */
    const PciePkt &
    sendReplay()
    {
        panicIf(!replaying(), "replay sent with none due");
        const PciePkt &pkt = ring_[cursor_++];
        auditRing();
        return pkt;
    }

    /** Start a replay of every transmitted TLP, oldest first. */
    void
    rewind()
    {
        cursor_ = 0;
        auditRing();
    }

    /** Drop the rest of a replay in progress. */
    void
    stopReplay()
    {
        cursor_ = sent_;
        auditRing();
    }

    /**
     * Process an ACK: drop every transmitted TLP at or (modularly)
     * before @p acked in the 12-bit sequence order, invoking
     * @p on_purge with each before it is dropped — the link
     * interface samples its ACK-latency histogram from the entries'
     * inject ticks. A replay in progress resumes at the first
     * entry left.
     * @return number of purged entries.
     */
    template <typename Fn>
    std::size_t
    ack(SeqNum acked, Fn &&on_purge)
    {
        std::size_t purged = 0;
        while (purged < sent_ && seqLe(ring_.front().seq(), acked)) {
            on_purge(ring_.front());
            ring_.pop_front();
            ++purged;
        }
        sent_ -= purged;
        cursor_ = std::max(cursor_, purged) - purged;
        auditRing();
        return purged;
    }

    std::size_t
    ack(SeqNum acked)
    {
        return ack(acked, [](const PciePkt &) {});
    }

    PCIESIM_AUDIT_ONLY(
    /** @{
     * Test hooks (audit builds only): corrupt the ring and re-run
     * the audit, so invariant_test can prove it fires. Rewrite
     * entry @p i with sequence number @p seq, or move the cursor
     * past the transmitted prefix.
     */
    void
    corruptSeqForAuditTest(std::size_t i, SeqNum seq)
    {
        ring_[i] = PciePkt::makeTlp(ring_[i].tlp(), seq);
        auditRing();
    }

    void
    corruptCursorForAuditTest()
    {
        cursor_ = sent_ + 1;
        auditRing();
    }
    /** @} */)

  private:
    /** Audit builds: boundaries, capacity and a full sweep of the
     *  sequence numbers. */
    void
    auditRing() const
    {
#ifdef PCIESIM_ENABLE_AUDIT
        PCIESIM_AUDIT(cursor_ <= sent_ && sent_ <= ring_.size() &&
                          ring_.size() <= capacity_,
                      "TX ring boundaries out of order: cursor ",
                      cursor_, ", sent ", sent_, ", size ", ring_.size(),
                      ", capacity ", capacity_);
        for (std::size_t i = 1; i < ring_.size(); ++i) {
            PCIESIM_AUDIT(seqInc(ring_[i - 1].seq()) == ring_[i].seq(),
                          "replay buffer seq order broken at entry ",
                          i, " (", ring_[i - 1].seq(), " then ",
                          ring_[i].seq(), ")");
        }
#endif
    }

    std::size_t capacity_;
    RingQueue<PciePkt> ring_;
    std::size_t sent_ = 0;
    std::size_t cursor_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_REPLAY_BUFFER_HH
