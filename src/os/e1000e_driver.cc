#include "e1000e_driver.hh"

#include "pci/capability.hh"
#include "pci/config_regs.hh"
#include "sim/logging.hh"

namespace pciesim
{

void
E1000eDriver::probe(Kernel &kernel, const EnumeratedFunction &fn)
{
    kernel_ = &kernel;
    bound_ = true;
    panicIf(fn.bars.empty() || fn.bars[0].empty(),
            "e1000e probe: BAR0 was not assigned");
    mmioBase_ = fn.bars[0].start();
    irqLine_ = fn.irqLine;
    bdf_ = fn.bdf;

    if (params_.trackRecovery) {
        auto &reg = kernel.statsRegistry();
        reg.add("system.e1000eDriver.recoveries", &recoveries_,
                "frames retransmitted after a surprise removal");
        reg.add("system.e1000eDriver.lostRequests", &lostRequests_,
                "in-flight frames lost to surprise removals");
    }

    // Interrupt setup, the way pci_enable_msix()/pci_enable_msi()
    // behave: write the enable bit, read it back; the device
    // hard-wires it to zero (paper Sec. IV), so fall back to INTx.
    PciFunction *dev = kernel.pciHost().lookup(fn.bdf);
    panicIf(dev == nullptr, "e1000e probe: function vanished");

    unsigned msix = CapabilityWalker::find(dev->config(),
                                           cfg::capIdMsix);
    if (msix != 0) {
        std::uint32_t ctrl = kernel.configRead(fn.bdf, msix + 2, 2);
        kernel.configWrite(fn.bdf, msix + 2, 2, ctrl | 0x8000);
        std::uint32_t rb = kernel.configRead(fn.bdf, msix + 2, 2);
        sawMsixDisabled_ = (rb & 0x8000) == 0;
    }
    unsigned msi = CapabilityWalker::find(dev->config(),
                                          cfg::capIdMsi);
    if (msi != 0) {
        std::uint32_t ctrl = kernel.configRead(fn.bdf, msi + 2, 2);
        kernel.configWrite(fn.bdf, msi + 2, 2, ctrl | 0x0001);
        std::uint32_t rb = kernel.configRead(fn.bdf, msi + 2, 2);
        sawMsiDisabled_ = (rb & 0x0001) == 0;
    }

    if (params_.preferMsi && msi != 0 && !sawMsiDisabled_) {
        // MSI available: program the message address and data, and
        // take completions as in-band message TLPs.
        unsigned vector = kernel.allocMsiVector();
        kernel.configWrite(fn.bdf, msi + 4, 4,
                           params_.msiAddress & 0xffffffff);
        kernel.configWrite(fn.bdf, msi + 8, 4,
                           params_.msiAddress >> 32);
        kernel.configWrite(fn.bdf, msi + 12, 2, vector);
        usingMsi_ = true;
        usingLegacyIrq_ = false;
        kernel.registerIrqHandler(vector, [this] { handleIrq(); });
    } else {
        if (msi != 0 && !sawMsiDisabled_) {
            // Tested writable but INTx preferred: disable again.
            std::uint32_t ctrl =
                kernel.configRead(fn.bdf, msi + 2, 2);
            kernel.configWrite(fn.bdf, msi + 2, 2, ctrl & ~0x0001u);
        }
        usingLegacyIrq_ = sawMsiDisabled_ && sawMsixDisabled_;
        kernel.registerIrqHandler(irqLine_, [this] { handleIrq(); });
    }

    // Allocate rings and buffers in DMA memory.
    txRing_ = kernel.allocDma(params_.txRingSize * nicreg::descSize,
                              128);
    rxRing_ = kernel.allocDma(params_.rxRingSize * nicreg::descSize,
                              128);
    txBuf_ = kernel.allocDma(16384, 64);
    rxBufs_ = kernel.allocDma(
        static_cast<std::uint64_t>(params_.rxRingSize) *
            params_.rxBufferSize, 64);

    configureMac();
}

void
E1000eDriver::configureMac()
{
    Kernel &k = *kernel_;
    // Reset the MAC and wait for the reset bit to clear.
    k.mmioWrite(mmioBase_ + nicreg::ctrl, 4, nicreg::ctrlRst, [] {});
    k.mmioRead(mmioBase_ + nicreg::ctrl, 4, [this,
                                             &k](std::uint64_t) {
        // Read the MAC address from the EEPROM (3 words).
        auto read_word = [this, &k](unsigned addr,
                                    std::function<void(std::uint16_t)>
                                        cb) {
            k.mmioWrite(mmioBase_ + nicreg::eerd, 4,
                        nicreg::eerdStart | (addr << 8), [] {});
            k.mmioRead(mmioBase_ + nicreg::eerd, 4,
                       [cb](std::uint64_t v) {
                cb(static_cast<std::uint16_t>(v >> 16));
            });
        };
        read_word(0, [this, read_word](std::uint16_t w0) {
            mac_ = w0;
            read_word(1, [this, read_word](std::uint16_t w1) {
                mac_ |= static_cast<std::uint64_t>(w1) << 16;
                read_word(2, [this](std::uint16_t w2) {
                    mac_ |= static_cast<std::uint64_t>(w2) << 32;

                    Kernel &k = *kernel_;
                    // Check link state, program rings, enable.
                    k.mmioRead(mmioBase_ + nicreg::status, 4,
                               [this](std::uint64_t s) {
                        linkUp_ = (s & nicreg::statusLu) != 0;
                    });
                    k.mmioWrite(mmioBase_ + nicreg::tdbal, 4,
                                txRing_ & 0xffffffff, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::tdbah, 4,
                                txRing_ >> 32, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::tdlen, 4,
                                params_.txRingSize * nicreg::descSize,
                                [] {});
                    k.mmioWrite(mmioBase_ + nicreg::tdh, 4, 0, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::tdt, 4, 0, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::rdbal, 4,
                                rxRing_ & 0xffffffff, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::rdbah, 4,
                                rxRing_ >> 32, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::rdlen, 4,
                                params_.rxRingSize * nicreg::descSize,
                                [] {});
                    k.mmioWrite(mmioBase_ + nicreg::rdh, 4, 0, [] {});

                    replenishRx();

                    k.mmioWrite(mmioBase_ + nicreg::ims, 4,
                                nicreg::icrTxdw | nicreg::icrRxt0,
                                [] {});
                    k.mmioWrite(mmioBase_ + nicreg::tctl, 4,
                                nicreg::ctlEn, [] {});
                    k.mmioWrite(mmioBase_ + nicreg::rctl, 4,
                                nicreg::ctlEn, [this] {
                        probed_ = true;
                        inform("e1000e: probe complete, legacy irq ",
                               irqLine_);
                        if (onReady_) {
                            auto cb = std::move(onReady_);
                            onReady_ = nullptr;
                            cb();
                        }
                    });
                });
            });
        });
    });
}

void
E1000eDriver::replenishRx()
{
    // Fill every RX descriptor but one (head == tail means empty),
    // writing the buffer addresses functionally into the ring.
    Kernel &k = *kernel_;
    unsigned fill = params_.rxRingSize - 1;
    for (unsigned i = 0; i < fill; ++i) {
        Addr desc = rxRing_ + static_cast<Addr>(i) * nicreg::descSize;
        std::uint64_t buf =
            rxBufs_ + static_cast<Addr>(i) * params_.rxBufferSize;
        k.memWrite<std::uint64_t>(desc, buf);
        k.memWrite<std::uint64_t>(desc + 8, 0);
    }
    rxTail_ = fill;
    k.mmioWrite(mmioBase_ + nicreg::rdt, 4, rxTail_, [] {});
}

void
E1000eDriver::sendFrame(unsigned len, std::function<void()> done)
{
    panicIf(!probed_, "e1000e send before probe completed");
    Kernel &k = *kernel_;

    // Build a legacy TX descriptor at the tail (functional ring
    // write), then ring the doorbell with a timed MMIO write.
    Addr desc = txRing_ + static_cast<Addr>(txTail_) *
                              nicreg::descSize;
    std::uint64_t d0 = txBuf_;
    std::uint64_t d1 =
        static_cast<std::uint64_t>(len & 0xffff) |
        (static_cast<std::uint64_t>(nicreg::txCmdEop |
                                    nicreg::txCmdRs) << 24);
    k.memWrite<std::uint64_t>(desc, d0);
    k.memWrite<std::uint64_t>(desc + 8, d1);

    txTail_ = (txTail_ + 1) % params_.txRingSize;
    txDone_.push_back(std::move(done));
    txLens_.push_back(len);
    ++framesSent_;
    k.mmioWrite(mmioBase_ + nicreg::tdt, 4, txTail_, [] {});
}

void
E1000eDriver::surpriseRemove(Bdf bdf)
{
    if (bdf != bdf_ || removed_)
        return;
    removed_ = true;
    lostRequests_ += static_cast<std::uint64_t>(txDone_.size());
    inform("e1000e: NIC ", bdf.toString(), " surprise-removed with ",
           txDone_.size(), " frames in flight");
}

void
E1000eDriver::resumeAfterReset(Bdf bdf)
{
    if (bdf != bdf_ || !removed_)
        return;
    removed_ = false;

    // The reset device comes back with empty rings: rewind the
    // software indices, reinitialise the MAC (the same sequence as
    // probe; onReady_ is already spent so it will not re-fire), and
    // retransmit the frames whose completions were lost.
    RingQueue<std::function<void()>> pending_done;
    RingQueue<unsigned> pending_lens;
    pending_done.swap(txDone_);
    pending_lens.swap(txLens_);
    txTail_ = 0;
    txHeadSw_ = 0;
    rxTail_ = 0;
    rxHeadSw_ = 0;

    recoveries_ += static_cast<std::uint64_t>(pending_done.size());
    inform("e1000e: resuming after reset of ", bdf.toString(),
           ", retransmitting ", pending_done.size(), " frames");

    setOnReady([this, pending_done = std::move(pending_done),
                pending_lens = std::move(pending_lens)]() mutable {
        while (!pending_done.empty()) {
            sendFrame(pending_lens.front(),
                      std::move(pending_done.front()));
            pending_lens.pop_front();
            pending_done.pop_front();
        }
    });
    configureMac();
}

void
E1000eDriver::handleIrq()
{
    if (removed_)
        return;
    Kernel &k = *kernel_;
    // Read ICR (clears causes and deasserts INTx).
    k.mmioRead(mmioBase_ + nicreg::icr, 4, [this,
                                            &k](std::uint64_t icr) {
        if (icr & nicreg::icrTxdw) {
            // Reclaim completed TX descriptors by their DD bits.
            while (!txDone_.empty()) {
                Addr desc = txRing_ + static_cast<Addr>(txHeadSw_) *
                                          nicreg::descSize;
                std::uint8_t sta =
                    kernel_->memRead<std::uint8_t>(desc + 12);
                if (!(sta & nicreg::staDd))
                    break;
                kernel_->memWrite<std::uint8_t>(desc + 12, 0);
                txHeadSw_ = (txHeadSw_ + 1) % params_.txRingSize;
                auto cb = std::move(txDone_.front());
                txDone_.pop_front();
                txLens_.pop_front();
                if (cb)
                    cb();
            }
        }
        if (icr & nicreg::icrRxt0) {
            // Harvest received frames by their DD status bits.
            while (true) {
                Addr desc = rxRing_ + static_cast<Addr>(rxHeadSw_) *
                                          nicreg::descSize;
                std::uint8_t sta =
                    kernel_->memRead<std::uint8_t>(desc + 12);
                if (!(sta & nicreg::staDd))
                    break;
                std::uint16_t len =
                    kernel_->memRead<std::uint16_t>(desc + 8);
                kernel_->memWrite<std::uint8_t>(desc + 12, 0);
                rxHeadSw_ = (rxHeadSw_ + 1) % params_.rxRingSize;
                ++framesReceived_;
                if (onReceive_)
                    onReceive_(len);
            }
            // Return the harvested descriptors to the hardware.
            unsigned new_tail =
                (rxHeadSw_ + params_.rxRingSize - 1) %
                params_.rxRingSize;
            if (new_tail != rxTail_) {
                rxTail_ = new_tail;
                k.mmioWrite(mmioBase_ + nicreg::rdt, 4, rxTail_,
                            [] {});
            }
        }
    });
}

} // namespace pciesim
