#include "nic_8254x.hh"

#include "pci/capability.hh"
#include "pci/config_regs.hh"

namespace pciesim
{

namespace
{

PciDeviceParams
makeDeviceParams(const NicParams &params)
{
    PciDeviceParams p;
    p.vendorId = cfg::vendorIntel;
    // Device ID 0x10d3 invokes the e1000e driver's probe function
    // (paper Sec. IV).
    p.deviceId = cfg::device8254xPcie;
    p.classCode = cfg::classNetworkEthernet;
    p.interruptPin = 1;
    p.pioLatency = params.pioLatency;
    // BAR0: 128 KB memory-mapped register space; BAR2: 32 B of
    // I/O-mapped registers (unused by the driver model, exercised
    // by tests).
    p.bars = {BarSpec{128 * 1024, false}, BarSpec{},
              BarSpec{32, true}};
    return p;
}

} // namespace

Nic8254xPcie::Nic8254xPcie(Simulation &sim, const std::string &name,
                           const NicParams &params)
    : PciDevice(sim, name, makeDeviceParams(params)),
      nicParams_(params),
      txKickEvent_(this, name + ".txKickEvent"),
      txRetryEvent_(this, name + ".txRetryEvent")
{
    engine_ = std::make_unique<DmaEngine>(*this, dmaPort(),
                                          name + ".dma");

    // Capability chain per the Intel 82574 datasheet and paper
    // Sec. IV: Cap Ptr -> PM -> MSI -> PCIe -> MSI-X, with PM, MSI
    // and MSI-X disabled so the driver falls back to INTx.
    CapabilityChain chain(config_);
    chain.addPowerManagement(0xc8);
    chain.addMsi(0xd0, params.allowMsi);
    PcieCapParams pcie_cap;
    pcie_cap.portType = cfg::PciePortType::Endpoint;
    pcie_cap.linkWidth = 1;
    pcie_cap.linkGen = 2;
    chain.addPcie(0xe0, pcie_cap);
    chain.addMsix(0xa0, 5);
    chain.finalize();

    // EEPROM: MAC address in words 0-2, checksum convention in 0x3f.
    eeprom_[0] = 0x1200;
    eeprom_[1] = 0x5634;
    eeprom_[2] = 0x9a78;
    eeprom_[0x3f] = 0xbaba;
}

Nic8254xPcie::~Nic8254xPcie() = default;

void
Nic8254xPcie::init()
{
    PciDevice::init();
    auto &reg = statsRegistry();
    reg.add(name() + ".txFrames", &txFrames_, "frames transmitted");
    reg.add(name() + ".rxFrames", &rxFrames_, "frames received");
    reg.add(name() + ".rxMissed", &rxMissed_,
            "frames dropped for lack of RX descriptors");
}

void
Nic8254xPcie::attachWire(EtherWire &wire, unsigned end)
{
    wire_ = &wire;
    wireEnd_ = end;
    wire.attach(end, *this);
}

//
// DMA job sequencing: TX and RX share the single DMA engine.
//

void
Nic8254xPcie::enqueueDma(DmaJob job)
{
    dmaJobs_.push_back(std::move(job));
    if (!dmaBusy_)
        startNextDma();
}

void
Nic8254xPcie::startNextDma()
{
    if (dmaJobs_.empty()) {
        dmaBusy_ = false;
        return;
    }
    dmaBusy_ = true;
    DmaJob job = std::move(dmaJobs_.front());
    dmaJobs_.pop_front();

    auto complete = [this, cb = std::move(job.onComplete)] {
        if (cb)
            cb();
        startNextDma();
    };
    if (job.isMessage)
        engine_->startMessage(job.addr,
                              static_cast<std::uint16_t>(
                                  job.payload[0] |
                                  (job.payload[1] << 8)),
                              std::move(complete));
    else if (job.isWrite && !job.payload.empty())
        engine_->startWriteData(job.addr, job.payload.data(),
                                static_cast<unsigned>(job.len),
                                std::move(complete));
    else if (job.isWrite)
        engine_->startWrite(job.addr, job.len, std::move(complete));
    else
        engine_->startRead(job.addr, job.len, std::move(complete),
                           std::move(job.onData));
}

bool
Nic8254xPcie::recvDmaResp(PacketPtr pkt)
{
    return engine_->recvResp(pkt);
}

void
Nic8254xPcie::recvDmaRetry()
{
    engine_->recvRetry();
}

//
// Register file
//

std::uint64_t
Nic8254xPcie::readReg(unsigned bar, Addr offset, unsigned size)
{
    (void)size;
    if (bar != 0)
        return 0; // BAR2 I/O window: scratch

    switch (offset) {
      case nicreg::ctrl:
        return ctrl_;
      case nicreg::status:
        return status_;
      case nicreg::eerd:
        return eerd_;
      case nicreg::icr: {
        // Reading ICR clears it and deasserts INTx.
        std::uint32_t v = icr_;
        icr_ = 0;
        updateInterrupts();
        return v;
      }
      case nicreg::ims:
        return ims_;
      case nicreg::rctl:
        return rctl_;
      case nicreg::tctl:
        return tctl_;
      case nicreg::rdbal: return rdbal_;
      case nicreg::rdbah: return rdbah_;
      case nicreg::rdlen: return rdlen_;
      case nicreg::rdh: return rdh_;
      case nicreg::rdt: return rdt_;
      case nicreg::tdbal: return tdbal_;
      case nicreg::tdbah: return tdbah_;
      case nicreg::tdlen: return tdlen_;
      case nicreg::tdh: return tdh_;
      case nicreg::tdt: return tdt_;
      case nicreg::ral0: return ral0_;
      case nicreg::rah0: return rah0_;
      default:
        return 0;
    }
}

void
Nic8254xPcie::writeReg(unsigned bar, Addr offset, unsigned size,
                       std::uint64_t value)
{
    (void)size;
    if (bar != 0)
        return;

    std::uint32_t v = static_cast<std::uint32_t>(value);
    switch (offset) {
      case nicreg::ctrl:
        ctrl_ = v;
        if (ctrl_ & nicreg::ctrlRst)
            performReset();
        break;
      case nicreg::eerd:
        if (v & nicreg::eerdStart) {
            unsigned addr = (v >> 8) & 0xff;
            std::uint16_t word =
                addr < eeprom_.size() ? eeprom_[addr] : 0xffff;
            eerd_ = (static_cast<std::uint32_t>(word) << 16) |
                    ((addr & 0xff) << 8) | nicreg::eerdDone;
        }
        break;
      case nicreg::icr:
        icr_ &= ~v; // write-1-to-clear
        updateInterrupts();
        break;
      case nicreg::ims:
        ims_ |= v;
        updateInterrupts();
        break;
      case nicreg::imc:
        ims_ &= ~v;
        updateInterrupts();
        break;
      case nicreg::rctl:
        rctl_ = v;
        if ((rctl_ & nicreg::ctlEn) && !rxPending_.empty())
            rxProcess();
        break;
      case nicreg::tctl:
        tctl_ = v;
        if (tctl_ & nicreg::ctlEn)
            schedule(txKickEvent_, 0);
        break;
      case nicreg::rdbal: rdbal_ = v; break;
      case nicreg::rdbah: rdbah_ = v; break;
      case nicreg::rdlen: rdlen_ = v; break;
      case nicreg::rdh: rdh_ = v; break;
      case nicreg::rdt:
        rdt_ = v;
        if ((rctl_ & nicreg::ctlEn) && !rxPending_.empty())
            rxProcess();
        break;
      case nicreg::tdbal: tdbal_ = v; break;
      case nicreg::tdbah: tdbah_ = v; break;
      case nicreg::tdlen: tdlen_ = v; break;
      case nicreg::tdh: tdh_ = v; break;
      case nicreg::tdt:
        tdt_ = v;
        if ((tctl_ & nicreg::ctlEn) && !txKickEvent_.scheduled())
            schedule(txKickEvent_, 0);
        break;
      case nicreg::ral0: ral0_ = v; break;
      case nicreg::rah0: rah0_ = v; break;
      default:
        break;
    }
}

void
Nic8254xPcie::performReset()
{
    ctrl_ &= ~nicreg::ctrlRst;
    icr_ = 0;
    ims_ = 0;
    rctl_ = 0;
    tctl_ = 0;
    tdh_ = tdt_ = rdh_ = rdt_ = 0;
    updateInterrupts();
}

bool
Nic8254xPcie::msiEnabled() const
{
    return (config_.raw16(0xd0 + 2) & 0x0001) != 0;
}

void
Nic8254xPcie::sendMsi()
{
    Addr addr = config_.raw32(0xd0 + 4) |
                (static_cast<Addr>(config_.raw32(0xd0 + 8)) << 32);
    std::uint16_t data = config_.raw16(0xd0 + 12);
    DmaJob job;
    job.isWrite = true;
    job.isMessage = true;
    job.addr = addr;
    job.len = 2;
    job.payload = {static_cast<std::uint8_t>(data & 0xff),
                   static_cast<std::uint8_t>((data >> 8) & 0xff)};
    enqueueDma(std::move(job));
}

void
Nic8254xPcie::updateInterrupts()
{
    bool active = (icr_ & ims_) != 0;
    if (msiEnabled()) {
        // Edge: one message per assertion of the cause summary.
        if (active && !msiLevel_) {
            msiLevel_ = true;
            sendMsi();
        } else if (!active) {
            msiLevel_ = false;
        }
        lowerIntx();
        return;
    }
    if (active)
        raiseIntx();
    else
        lowerIntx();
}

void
Nic8254xPcie::setCause(std::uint32_t bits)
{
    icr_ |= bits;
    updateInterrupts();
}

//
// TX path
//

Addr
Nic8254xPcie::txDescAddr(std::uint32_t index) const
{
    Addr base = (static_cast<Addr>(tdbah_) << 32) | tdbal_;
    return base + static_cast<Addr>(index) * nicreg::descSize;
}

Addr
Nic8254xPcie::rxDescAddr(std::uint32_t index) const
{
    Addr base = (static_cast<Addr>(rdbah_) << 32) | rdbal_;
    return base + static_cast<Addr>(index) * nicreg::descSize;
}

void
Nic8254xPcie::txKick()
{
    if (txBusy_ || !(tctl_ & nicreg::ctlEn) || tdh_ == tdt_)
        return;
    txBusy_ = true;
    txFetchDescriptor();
}

void
Nic8254xPcie::txFetchDescriptor()
{
    txDescRaw_[0] = txDescRaw_[1] = 0;
    DmaJob job;
    job.isWrite = false;
    job.addr = txDescAddr(tdh_);
    job.len = nicreg::descSize;
    job.onData = [this](const PacketPtr &pkt) {
        if (pkt->hasData() && pkt->dataSize() >= 16) {
            std::memcpy(&txDescRaw_[0], pkt->data(), 8);
            std::memcpy(&txDescRaw_[1], pkt->data() + 8, 8);
        }
    };
    job.onComplete = [this] { txFetchData(); };
    enqueueDma(std::move(job));
}

void
Nic8254xPcie::txFetchData()
{
    Addr buf = txDescRaw_[0];
    unsigned len = txDescRaw_[1] & 0xffff;
    if (len == 0) {
        // Null descriptor: skip it.
        txWriteback();
        return;
    }
    txFrame_.size = len;
    txFrame_.data.clear();

    DmaJob job;
    job.isWrite = false;
    job.addr = buf;
    job.len = len;
    job.onComplete = [this] { txTransmit(); };
    enqueueDma(std::move(job));
}

void
Nic8254xPcie::txTransmit()
{
    panicIf(wire_ == nullptr,
            "NIC '", name(), "' transmits with no wire attached");
    if (!wire_->transmit(wireEnd_, txFrame_)) {
        // Wire busy: retry when it frees.
        eventq().schedule(&txRetryEvent_,
                          std::max(curTick(), wire_->freeAt(wireEnd_)));
        return;
    }
    ++txFrames_;
    txWriteback();
}

void
Nic8254xPcie::txWriteback()
{
    std::uint8_t cmd = (txDescRaw_[1] >> 24) & 0xff;
    auto advance = [this] {
        std::uint32_t count = tdlen_ / nicreg::descSize;
        tdh_ = count ? (tdh_ + 1) % count : tdh_ + 1;
        setCause(nicreg::icrTxdw);
        txBusy_ = false;
        if (!txKickEvent_.scheduled())
            schedule(txKickEvent_, nicParams_.descProcessing);
    };

    if (cmd & nicreg::txCmdRs) {
        // Report status: write DD back into the descriptor.
        DmaJob job;
        job.isWrite = true;
        job.addr = txDescAddr(tdh_) + 12;
        job.len = 4;
        job.payload = {nicreg::staDd, 0, 0, 0};
        job.onComplete = advance;
        enqueueDma(std::move(job));
    } else {
        advance();
    }
}

//
// RX path
//

bool
Nic8254xPcie::recvFrame(const EtherFrame &frame)
{
    if (!(rctl_ & nicreg::ctlEn))
        return false;
    rxPending_.push_back(frame);
    rxProcess();
    return true;
}

void
Nic8254xPcie::rxProcess()
{
    if (rxBusy_ || rxPending_.empty())
        return;
    if (!(rctl_ & nicreg::ctlEn))
        return;

    std::uint32_t count = rdlen_ / nicreg::descSize;
    if (count == 0 || rdh_ == rdt_) {
        // No RX descriptors available: the frame is missed.
        ++rxMissed_;
        rxPending_.pop_front();
        return;
    }

    rxBusy_ = true;
    EtherFrame frame = std::move(rxPending_.front());
    rxPending_.pop_front();

    rxDescRaw_[0] = rxDescRaw_[1] = 0;
    DmaJob fetch;
    fetch.isWrite = false;
    fetch.addr = rxDescAddr(rdh_);
    fetch.len = nicreg::descSize;
    fetch.onData = [this](const PacketPtr &pkt) {
        if (pkt->hasData() && pkt->dataSize() >= 8)
            std::memcpy(&rxDescRaw_[0], pkt->data(), 8);
    };
    fetch.onComplete = [this, frame] {
        Addr buf = rxDescRaw_[0];
        // Write the frame data into the host buffer.
        DmaJob data;
        data.isWrite = true;
        data.addr = buf;
        data.len = frame.size;
        data.onComplete = [this, size = frame.size] {
            // Write back length + DD|EOP status.
            DmaJob wb;
            wb.isWrite = true;
            wb.addr = rxDescAddr(rdh_) + 8;
            wb.len = 8;
            wb.payload = {static_cast<std::uint8_t>(size & 0xff),
                          static_cast<std::uint8_t>((size >> 8) &
                                                    0xff),
                          0, 0,
                          static_cast<std::uint8_t>(nicreg::staDd |
                                                    nicreg::rxStaEop),
                          0, 0, 0};
            wb.onComplete = [this] {
                std::uint32_t cnt = rdlen_ / nicreg::descSize;
                rdh_ = cnt ? (rdh_ + 1) % cnt : rdh_ + 1;
                ++rxFrames_;
                setCause(nicreg::icrRxt0);
                rxBusy_ = false;
                rxProcess();
            };
            enqueueDma(std::move(wb));
            (void)size;
        };
        enqueueDma(std::move(data));
    };
    enqueueDma(std::move(fetch));
}

} // namespace pciesim
