/**
 * @file
 * The PCIe error-message reporter: routes ERR_COR / ERR_NONFATAL /
 * ERR_FATAL messages from detecting agents toward the root complex
 * with a modelled propagation latency (DESIGN.md §12).
 *
 * Error messages are posted TLPs travelling upstream out-of-band of
 * the data path; the model delivers them as deferred callbacks on
 * the root's (domain 0) event queue, so a detector running on any
 * link domain may report without touching root-side state directly.
 */

#ifndef PCIESIM_PCIE_ERR_REPORTER_HH
#define PCIESIM_PCIE_ERR_REPORTER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "pci/aer.hh"
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
 * Collects error messages and delivers them to the root-side sink
 * after a fixed reporting latency, in arrival order.
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

    /** Post one error message toward the root. Safe to call from
     *  any link domain. */
    void report(const ErrMsg &msg);

    /** Messages delivered so far, by severity (tests/benches). */
    std::uint64_t delivered(ErrSeverity sev) const;

  private:
    void deliver();

    Tick deliveryLatency_;
    std::function<void(const ErrMsg &)> sink_;
    /** Messages in flight; pendingMu_ guards them for a
     *  cross-domain report() in a fanned-out engine window. */
    std::deque<ErrMsg> pending_;
    std::mutex pendingMu_;
    stats::Vector deliveredBySev_;
    MemberEventWrapper<ErrReporter, &ErrReporter::deliver>
        deliverEvent_;
};

} // namespace pciesim

#endif // PCIESIM_PCIE_ERR_REPORTER_HH
