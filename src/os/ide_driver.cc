#include "ide_driver.hh"

#include "sim/logging.hh"

namespace pciesim
{

void
IdeDriver::probe(Kernel &kernel, const EnumeratedFunction &fn)
{
    kernel_ = &kernel;
    panicIf(fn.bars.size() <= ide::barBmdma ||
            fn.bars[ide::barCmd].empty() ||
            fn.bars[ide::barBmdma].empty(),
            "IDE probe: device is missing its I/O BARs");
    cmdBase_ = fn.bars[ide::barCmd].start();
    ctrlBase_ = fn.bars[ide::barCtrl].start();
    bmBase_ = fn.bars[ide::barBmdma].start();
    irqLine_ = fn.irqLine;
    bdf_ = fn.bdf;

    // One single-entry PRD table, reused for every command.
    prdAddr_ = kernel.allocDma(8, 8);

    if (params_.trackRecovery) {
        auto &reg = kernel.statsRegistry();
        reg.add(statsName_ + ".recoveries", &recoveries_,
                "commands reissued after a surprise removal");
        reg.add(statsName_ + ".lostRequests", &lostRequests_,
                "in-flight commands lost to surprise removals");
        reg.add(statsName_ + ".recoveryLatency", &recoveryLatency_,
                "surprise-removal to command-reissue latency "
                "(ticks)", stats::Unit::Tick);
    }

    kernel.registerIrqHandler(irqLine_, [this] { handleIrq(); });
    probed_ = true;
    inform("ide: probed disk at ", fn.bdf.toString(), ", cmd=0x",
           std::hex, cmdBase_, " bmdma=0x", bmBase_, std::dec,
           " irq=", irqLine_);
}

void
IdeDriver::read(Addr buf_addr, std::uint64_t bytes,
                std::function<void()> done)
{
    panicIf(!probed_, "IDE read before probe");
    panicIf(busy_, "IDE driver supports one request at a time");
    panicIf(bytes == 0 || bytes % ide::sectorSize != 0,
            "IDE read length must be a sector multiple");

    busy_ = true;
    bufAddr_ = buf_addr;
    bytesLeft_ = bytes;
    nextLba_ = 0;
    onDone_ = std::move(done);
    issueCommand();
}

void
IdeDriver::issueCommand()
{
    // A single PRD entry addresses at most 64 KB, so commands are
    // capped at 128 sectors (the classic IDE DMA limit).
    std::uint64_t cmd_bytes = std::min<std::uint64_t>(
        bytesLeft_, 128ULL * ide::sectorSize);
    unsigned sectors =
        static_cast<unsigned>(cmd_bytes / ide::sectorSize);
    ++commandsIssued_;

    // Snapshot the command so it can be reissued if the device
    // surprise-vanishes while it is in flight.
    curCmdBuf_ = bufAddr_;
    curCmdBytes_ = cmd_bytes;
    curCmdLba_ = nextLba_;

    // Build the single PRD entry covering this command's buffer
    // (functional write: the table lives in kernel DMA memory and
    // the disk fetches it over the interconnect).
    std::uint64_t prd =
        (bufAddr_ & 0xffffffffULL) |
        (static_cast<std::uint64_t>(cmd_bytes & 0xffff) << 32) |
        (0x8000ULL << 48); // end-of-table flag
    kernel_->memWrite<std::uint64_t>(prdAddr_, prd);

    Kernel &k = *kernel_;
    // Program the BMDMA PRD pointer, the taskfile, the command, and
    // finally start the engine - the same MMIO sequence the real
    // driver performs.
    k.mmioWrite(bmBase_ + ide::regBmPrdAddr, 4, prdAddr_, [] {});
    k.mmioWrite(cmdBase_ + ide::regSectorCount, 1, sectors & 0xff,
                [] {});
    k.mmioWrite(cmdBase_ + ide::regLbaLow, 1, nextLba_ & 0xff, [] {});
    k.mmioWrite(cmdBase_ + ide::regLbaMid, 1, (nextLba_ >> 8) & 0xff,
                [] {});
    k.mmioWrite(cmdBase_ + ide::regLbaHigh, 1,
                (nextLba_ >> 16) & 0xff, [] {});
    k.mmioWrite(cmdBase_ + ide::regCommand, 1, ide::cmdReadDma, [] {});
    k.mmioWrite(bmBase_ + ide::regBmCommand, 1,
                ide::bmStart | ide::bmWriteToMemory, [] {});

    bufAddr_ += cmd_bytes;
    bytesLeft_ -= cmd_bytes;
    nextLba_ += sectors;
}

void
IdeDriver::surpriseRemove(Bdf bdf)
{
    if (bdf != bdf_ || removed_)
        return;
    removed_ = true;
    removedAt_ = kernel_->curTick();
    if (busy_)
        ++lostRequests_;
    // Any half-run ISR is moot: the device that would have cleared
    // the interrupt condition no longer exists.
    irqInProgress_ = false;
    inform("ide: disk ", bdf.toString(), " surprise-removed with ",
           busy_ ? "a command" : "no command", " in flight");
}

void
IdeDriver::resumeAfterReset(Bdf bdf)
{
    if (bdf != bdf_ || !removed_)
        return;
    removed_ = false;
    if (!busy_)
        return;
    // Rewind to the lost command and reissue it; the reset device
    // is reprogrammed from scratch by the normal issue sequence.
    bufAddr_ = curCmdBuf_;
    bytesLeft_ += curCmdBytes_;
    nextLba_ = curCmdLba_;
    ++recoveries_;
    recoveryLatency_.sample(kernel_->curTick() - removedAt_);
    inform("ide: resuming after reset of ", bdf.toString(),
           ", reissuing lba=", curCmdLba_);
    issueCommand();
}

void
IdeDriver::handleIrq()
{
    if (irqInProgress_ || removed_)
        return;
    irqInProgress_ = true;

    // Interrupt service: read BMDMA status, clear it, read the
    // drive status register (which deasserts INTx).
    Kernel &k = *kernel_;
    k.mmioRead(bmBase_ + ide::regBmStatus, 1, [this,
                                               &k](std::uint64_t v) {
        if ((v & 0xff) == 0xff) {
            // All-ones: the device is gone (or the read aborted).
            irqInProgress_ = false;
            return;
        }
        if (!(v & ide::bmStatusIntr)) {
            irqInProgress_ = false;
            return; // spurious / shared line
        }
        k.mmioWrite(bmBase_ + ide::regBmStatus, 1, ide::bmStatusIntr,
                    [] {});
        k.mmioWrite(bmBase_ + ide::regBmCommand, 1, 0, [] {});
        k.mmioRead(cmdBase_ + ide::regCommand, 1,
                   [this](std::uint64_t) {
            // Block-layer completion and queue restart time.
            kernel_->defer(params_.perCommandOverhead, [this] {
                if (removed_)
                    return; // recovery owns the state machine now
                irqInProgress_ = false;
                if (bytesLeft_ > 0) {
                    issueCommand();
                } else {
                    busy_ = false;
                    if (onDone_) {
                        auto cb = std::move(onDone_);
                        onDone_ = nullptr;
                        cb();
                    }
                }
            });
        });
    });
}

} // namespace pciesim
