/**
 * @file
 * The PCIe error-message reporter: routes ERR_COR / ERR_NONFATAL /
 * ERR_FATAL messages from detecting agents toward the root complex
 * with a modelled propagation latency (DESIGN.md §12).
 *
 * Error messages are posted TLPs travelling upstream out-of-band of
 * the data path; each is a keyed message (Simulation::callAt) to the
 * root's (domain 0) event queue, so a detector running on any link
 * domain reports without touching root-side state, and the root
 * side alone paces the deliveries.
 */

#ifndef PCIESIM_PCIE_ERR_REPORTER_HH
#define PCIESIM_PCIE_ERR_REPORTER_HH

#include <cstdint>
#include <functional>

#include "pci/aer.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace pciesim
{

/** One PCIe error message on its way to the root complex. */
struct ErrMsg
{
    ErrSeverity sev = ErrSeverity::Correctable;
    /** The AER status bit the detector latched. */
    std::uint32_t aerBit = 0;
    /** Requester id (Bdf::key()) of the detecting agent. */
    std::uint16_t sourceId = 0;
};

/**
 * Delivers error messages to the root-side sink after a fixed
 * reporting latency, one per latency at most, in arrival order.
 */
class ErrReporter : public SimObject
{
  public:
    ErrReporter(Simulation &sim, const std::string &name,
                Tick delivery_latency);

    void init() override;

    /** The root-side consumer; runs on the reporter's home queue. */
    void
    setSink(std::function<void(const ErrMsg &)> sink)
    {
        sink_ = std::move(sink);
    }

    /**
     * Post one error message toward the root from the calling
     * domain. It arrives after the reporting latency, or after
     * @p path, the detector's lookahead to the root, if that is
     * longer.
     */
    void report(const ErrMsg &msg, Tick path);

    /** Messages delivered so far, by severity (tests/benches). */
    std::uint64_t delivered(ErrSeverity sev) const;

  private:
    /** A message reaches the root: deliver it now, or queue it
     *  behind the previous delivery's pacing slot. */
    void arrive(const ErrMsg &msg);
    void deliver();

    Tick deliveryLatency_;
    std::function<void(const ErrMsg &)> sink_;
    /** Arrived messages waiting for their delivery slot. */
    RingQueue<ErrMsg> pending_;
    /** Earliest tick of the next delivery: the last one plus the
     *  latency. */
    Tick nextFree_ = 0;
    stats::Vector deliveredBySev_;
    MemberEventWrapper<ErrReporter, &ErrReporter::deliver>
        deliverEvent_;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_ERR_REPORTER_HH
