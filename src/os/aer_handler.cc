#include "aer_handler.hh"

#include "pci/config_regs.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace pciesim
{

namespace
{

Bdf
decodeSourceId(std::uint16_t id)
{
    Bdf bdf;
    bdf.bus = static_cast<std::uint8_t>(id >> 8);
    bdf.dev = static_cast<std::uint8_t>((id >> 3) & 0x1f);
    bdf.fn = static_cast<std::uint8_t>(id & 0x7);
    return bdf;
}

} // namespace

AerHandler::AerHandler(Kernel &kernel, Bdf root_bdf,
                       ConfigRoute route,
                       const AerHandlerParams &params)
    : kernel_(kernel), rootBdf_(root_bdf),
      configRoute_(std::move(route)), params_(params)
{
    errsSeen_.init(3);
    errsSeen_.subname(0, "cor");
    errsSeen_.subname(1, "nonfatal");
    errsSeen_.subname(2, "fatal");
    auto &reg = kernel_.statsRegistry();
    reg.add("system.aerHandler.irqs", &aerIrqs_,
            "AER interrupts serviced");
    reg.add("system.aerHandler.errsSeen", &errsSeen_,
            "root-latched errors the kernel observed, by severity");
    reg.add("system.aerHandler.funcResets", &funcResets_,
            "function-level resets performed during recovery");
    kernel_.registerIrqHandler(params_.irqLine,
                               [this] { handleIrq(); });
}

void
AerHandler::addClient(AerRecoveryClient *client)
{
    clients_.push_back(client);
}

void
AerHandler::handleIrq()
{
    if (inProgress_)
        return;
    inProgress_ = true;
    ++aerIrqs_;
    kernel_.defer(params_.handlerDelay,
                  [this] { serviceRootStatus(); });
}

void
AerHandler::serviceRootStatus()
{
    // Read and W1C-clear the root error status block through
    // configuration cycles, as aer_irq()/aer_isr() do.
    const unsigned base = cfg::extendedCapBase;
    std::uint32_t status =
        kernel_.configRead(rootBdf_, base + cfg::aerRootErrStatus, 4);
    std::uint32_t source =
        kernel_.configRead(rootBdf_, base + cfg::aerErrSourceId, 4);
    kernel_.configWrite(rootBdf_, base + cfg::aerRootErrStatus, 4,
                        status);
    if (irqAck_)
        irqAck_();
    inProgress_ = false;

    const bool cor = status & cfg::aerRootCorReceived;
    const bool nonfatal = status & cfg::aerRootNonFatalReceived;
    const bool fatal = status & cfg::aerRootFatalReceived;
    if (cor)
        ++errsSeen_[0];
    if (nonfatal)
        ++errsSeen_[1];
    if (fatal)
        ++errsSeen_[2];

    if (cor) {
        // Log-and-clear: correctable errors were already handled by
        // hardware; software just clears the source's status.
        Bdf src = decodeSourceId(source & 0xffff);
        configRoute_(
            src,
            [this, src] {
                const unsigned reg =
                    cfg::extendedCapBase + cfg::aerCorrStatus;
                std::uint32_t dev_status =
                    kernel_.configRead(src, reg, 4);
                kernel_.configWrite(src, reg, 4, dev_status);
                return dev_status;
            },
            [](std::uint32_t) {});
    }
    if (nonfatal || fatal) {
        // Non-fatal: the status is cleared in the same visit and
        // the requester already degraded the failed op locally.
        Bdf victim = decodeSourceId((source >> 16) & 0xffff);
        configRoute_(
            victim,
            [this, victim, fatal] {
                const unsigned reg =
                    cfg::extendedCapBase + cfg::aerUncorrStatus;
                std::uint32_t unc_status =
                    kernel_.configRead(victim, reg, 4);
                if (!fatal)
                    kernel_.configWrite(victim, reg, 4, unc_status);
                return unc_status;
            },
            [this, victim, fatal](std::uint32_t unc_status) {
                uncorrectableRead(victim, fatal, unc_status);
            });
    }
}

void
AerHandler::uncorrectableRead(Bdf victim, bool fatal,
                              std::uint32_t unc_status)
{
    inform("aer: ", fatal ? "FATAL" : "non-fatal", " error from ",
           victim.toString(), ", uncorrectable status 0x", std::hex,
           unc_status, std::dec);
    TRACE_MSG(trace::Flag::Rc, kernel_.curTick(), "system.aerHandler",
              fatal ? "fatal" : "nonfatal", " error from ",
              victim.toString());
    if (!fatal)
        return;
    // Fatal: the link below the victim is down. Tear the drivers'
    // in-flight work down now, then reset once the device answers
    // configuration cycles again.
    for (AerRecoveryClient *c : clients_)
        c->surpriseRemove(victim);
    kernel_.defer(params_.resetDelay,
                  [this, victim] { resetFunction(victim, 0); });
}

void
AerHandler::resetFunction(Bdf victim, unsigned polls)
{
    configRoute_(
        victim,
        [this, victim] {
            return kernel_.configRead(victim, cfg::vendorId, 2);
        },
        [this, victim, polls](std::uint32_t vendor) {
            presenceRead(victim, polls, vendor);
        });
}

void
AerHandler::presenceRead(Bdf victim, unsigned polls,
                         std::uint32_t vendor)
{
    if (vendor == 0xffff) {
        if (polls >= params_.maxPolls) {
            warn("aer: giving up recovery of ", victim.toString(),
                 " after ", polls, " presence polls");
            return;
        }
        kernel_.defer(params_.pollDelay, [this, victim, polls] {
            resetFunction(victim, polls + 1);
        });
        return;
    }

    // pci_save_state / FLR / pci_restore_state: preserve the
    // command enables across the reset so the function keeps
    // decoding its BARs and mastering the bus.
    configRoute_(
        victim,
        [this, victim] {
            std::uint32_t command =
                kernel_.configRead(victim, cfg::command, 2);
            PciFunction *fn = kernel_.pciHost().lookup(victim);
            panicIf(fn == nullptr, "aer: reset target ",
                    victim.toString(),
                    " is not in the PCI registry");
            fn->functionLevelReset();
            kernel_.configWrite(victim, cfg::command, 2, command);
            return command;
        },
        [this, victim, polls](std::uint32_t) {
            resetDone(victim, polls);
        });
}

void
AerHandler::resetDone(Bdf victim, unsigned polls)
{
    ++funcResets_;
    inform("aer: reset ", victim.toString(), " after ", polls,
           " presence polls; resuming drivers");

    if (releaseHook_)
        releaseHook_(victim);
    for (AerRecoveryClient *c : clients_)
        c->resumeAfterReset(victim);
}

} // namespace pciesim
