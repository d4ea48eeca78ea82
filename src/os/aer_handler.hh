/**
 * @file
 * Kernel-side AER service: the software half of the error
 * containment pipeline (DESIGN.md §12). The platform raises a
 * dedicated interrupt line when the root complex latches an error
 * message; this handler runs as kernel software — it reads the root
 * error status block through real configuration cycles, logs and
 * clears it, and for FATAL errors drives the recovery sequence:
 * notify drivers of the surprise removal, poll for the device to
 * return, reset the function, release the fabric containment, and
 * let the drivers resume their workloads.
 */

#ifndef PCIESIM_OS_AER_HANDLER_HH
#define PCIESIM_OS_AER_HANDLER_HH

#include <functional>
#include <vector>

#include "os/kernel.hh"
#include "pci/aer.hh"

namespace pciesim
{

/**
 * A driver that can survive a surprise removal of its device.
 * surpriseRemove() is called when the kernel learns of the removal
 * (the in-flight request is lost); resumeAfterReset() after the
 * function has been reset and the fabric path re-opened.
 */
class AerRecoveryClient
{
  public:
    virtual ~AerRecoveryClient() = default;
    virtual void surpriseRemove(Bdf bdf) = 0;
    virtual void resumeAfterReset(Bdf bdf) = 0;
};

/** Configuration for an AerHandler. */
struct AerHandlerParams
{
    /** Platform interrupt line the root error block asserts. Kept
     *  below the enumerator's INTx range (first_irq = 32). */
    unsigned irqLine = 30;
    /** IRQ entry to root-status read (handler prologue). */
    Tick handlerDelay = nanoseconds(800);
    /** Fatal receipt to first reset attempt (driver teardown,
     *  pciehp coordination). */
    Tick resetDelay = microseconds(10);
    /** Presence re-poll period while the slot reads all-ones. */
    Tick pollDelay = microseconds(10);
    /** Give up recovery after this many presence polls. */
    unsigned maxPolls = 1000;
};

/**
 * The kernel's AER interrupt handler and recovery engine.
 * Construct only on AER-enabled configurations: its stats are
 * registered in the kernel's registry at construction.
 *
 * The root's error status block is read in place. Every other
 * function is reached through a config transaction over the
 * ConfigRoute, which runs it on the function's own queue and
 * answers on the handler's, so the handler never touches a device's
 * registers from another domain.
 */
class AerHandler
{
  public:
    /** One visit to a function's configuration space; returns the
     *  value the transaction reads back. */
    using ConfigOp = std::function<std::uint32_t()>;
    /** Runs a ConfigOp against the function at a Bdf and hands its
     *  result to a continuation on the handler's queue (wired by
     *  the builder: each leg takes at least the lookahead between
     *  the root and the function). */
    using ConfigRoute =
        std::function<void(Bdf, ConfigOp,
                           std::function<void(std::uint32_t)>)>;

    AerHandler(Kernel &kernel, Bdf root_bdf, ConfigRoute route,
               const AerHandlerParams &params = {});

    /** Register a driver to coordinate recovery with. */
    void addClient(AerRecoveryClient *client);

    /** Deassert the platform AER line (wired by the builder). */
    void setIrqAck(std::function<void()> ack)
    {
        irqAck_ = std::move(ack);
    }

    /** Re-open the fabric path to @p bdf after its reset (wired by
     *  the builder to the switch containment release). */
    void setReleaseHook(std::function<void(Bdf)> hook)
    {
        releaseHook_ = std::move(hook);
    }

    /** @{ Introspection for tests/benches. */
    std::uint64_t irqsServiced() const { return aerIrqs_.value(); }
    std::uint64_t functionResets() const
    {
        return funcResets_.value();
    }
    std::uint64_t errorsSeen(ErrSeverity sev) const
    {
        return errsSeen_[static_cast<std::size_t>(sev)].value();
    }
    /** @} */

  private:
    void handleIrq();
    void serviceRootStatus();
    /** Log an uncorrectable error read back from @p victim; on
     *  FATAL, start the driver teardown and the reset. */
    void uncorrectableRead(Bdf victim, bool fatal,
                           std::uint32_t unc_status);
    /** Presence poll number @p polls of a fatal victim. */
    void resetFunction(Bdf victim, unsigned polls);
    /** The victim answered: save its command enables, FLR it and
     *  restore them, then resume. */
    void presenceRead(Bdf victim, unsigned polls, std::uint32_t vendor);
    void resetDone(Bdf victim, unsigned polls);

    Kernel &kernel_;
    Bdf rootBdf_;
    ConfigRoute configRoute_;
    AerHandlerParams params_;
    std::function<void()> irqAck_;
    std::function<void(Bdf)> releaseHook_;
    std::vector<AerRecoveryClient *> clients_;
    /** Masks re-entry while the (deferred) service is running. */
    bool inProgress_ = false;

    stats::Counter aerIrqs_;
    stats::Vector errsSeen_;
    stats::Counter funcResets_;
};

} // namespace pciesim

#endif // PCIESIM_OS_AER_HANDLER_HH
