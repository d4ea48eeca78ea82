#include "pci_device.hh"

#include "pci/config_regs.hh"

namespace pciesim
{

std::string
Bdf::toString() const
{
    return std::to_string(bus) + ":" + std::to_string(dev) + "." +
           std::to_string(fn);
}

class PciDevice::PioPort : public SlavePort
{
  public:
    PioPort(PciDevice &dev, const std::string &name)
        : SlavePort(name), dev_(dev)
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        return dev_.handlePio(pkt);
    }

    void
    recvRespRetry() override
    {
        dev_.pioRespQueue_->retryNotify();
    }

    AddrRangeList
    getAddrRanges() const override
    {
        AddrRangeList ranges;
        for (unsigned i = 0; i < dev_.params_.bars.size(); ++i) {
            AddrRange r = dev_.barRange(i);
            if (!r.empty())
                ranges.push_back(r);
        }
        return ranges;
    }

  private:
    PciDevice &dev_;
};

class PciDevice::DevDmaPort : public MasterPort
{
  public:
    DevDmaPort(PciDevice &dev, const std::string &name)
        : MasterPort(name), dev_(dev)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        return dev_.recvDmaResp(pkt);
    }

    void recvReqRetry() override { dev_.recvDmaRetry(); }

  private:
    PciDevice &dev_;
};

PciDevice::PciDevice(Simulation &sim, const std::string &name,
                     const PciDeviceParams &params)
    : SimObject(sim, name), PciFunction(name), params_(params)
{
    fatalIf(params_.bars.size() > cfg::numBars,
            "device '", name, "' has more than ", cfg::numBars, " BARs");
    for (const auto &b : params_.bars) {
        fatalIf(b.size != 0 &&
                (b.size < 16 || (b.size & (b.size - 1)) != 0),
                "device '", name,
                "' BAR size must be a power of two >= 16");
    }

    pioPort_ = std::make_unique<PioPort>(*this, name + ".pioPort");
    dmaPort_ = std::make_unique<DevDmaPort>(*this, name + ".dmaPort");
    pioRespQueue_ = std::make_unique<PacketQueue>(
        eventq(), name + ".pioRespQueue",
        [this](const PacketPtr &p) {
            return pioPort_->sendTimingResp(p);
        },
        params_.pioQueueCapacity);
    pioRespQueue_->setOnSpaceFreed([this] {
        if (wantPioRetry_ && !pioRespQueue_->full()) {
            wantPioRetry_ = false;
            pioPort_->sendRetryReq();
        }
    });

    // Type-0 configuration header (paper Fig. 4, R1).
    config_.init16(cfg::vendorId, params_.vendorId);
    config_.init16(cfg::deviceId, params_.deviceId);
    config_.init24(cfg::classCode, params_.classCode);
    config_.init8(cfg::revisionId, params_.revision);
    config_.init8(cfg::headerType, cfg::headerTypeEndpoint);
    config_.init8(cfg::interruptPin, params_.interruptPin);
    config_.mask16(cfg::command,
                   cfg::cmdIoEnable | cfg::cmdMemEnable |
                   cfg::cmdBusMaster | cfg::cmdIntxDisable);
    config_.mask8(cfg::interruptLine, 0xff);
    config_.mask8(cfg::cacheLineSize, 0xff);
    config_.mask8(cfg::latencyTimer, 0xff);
    // BAR registers hold the raw value software last wrote as a
    // dword: configWrite() stores it whole and the read intercept
    // applies the size mask, giving standard sizing semantics. No
    // write mask, so narrower writes leave a BAR as it is.
    installAer(false);
}

PciDevice::~PciDevice() = default;

SlavePort &
PciDevice::pioPort()
{
    return *pioPort_;
}

MasterPort &
PciDevice::dmaPort()
{
    return *dmaPort_;
}

void
PciDevice::init()
{
    statsRegistry().add(name() + ".pioReads", &pioReads_,
                        "MMIO/PMIO read requests");
    statsRegistry().add(name() + ".pioWrites", &pioWrites_,
                        "MMIO/PMIO write requests");
    fatalIf(!pioPort_->isBound(),
            "device '", name(), "' PIO port unbound");
}

std::uint32_t
PciDevice::configRead(unsigned offset, unsigned size)
{
    // An absent (surprise-removed) device terminates configuration
    // reads with the all-ones master-abort pattern.
    if (!present_) {
        return size == 4 ? 0xffffffffU
                         : ((1U << (size * 8)) - 1);
    }

    // Intercept BAR reads to apply the size mask to the raw
    // software-written value.
    for (unsigned i = 0; i < params_.bars.size(); ++i) {
        unsigned bar_off = cfg::bar0 + 4 * i;
        if (offset >= bar_off && offset < bar_off + 4) {
            const BarSpec &spec = params_.bars[i];
            std::uint32_t flags = spec.isIo ? cfg::barIoSpace : 0;
            std::uint32_t value = spec.size == 0
                ? 0
                : (config_.raw32(bar_off) & ~(spec.size - 1)) |
                      flags;
            unsigned shift = (offset - bar_off) * 8;
            return (value >> shift) &
                   (size == 4 ? 0xffffffffU
                              : ((1U << (size * 8)) - 1));
        }
    }
    return config_.read(offset, size);
}

void
PciDevice::configWrite(unsigned offset, unsigned size,
                       std::uint32_t value)
{
    if (!present_)
        return;

    for (unsigned i = 0; i < params_.bars.size(); ++i) {
        unsigned bar_off = cfg::bar0 + 4 * i;
        if (offset == bar_off && size == 4) {
            config_.init32(bar_off, value);
            return;
        }
    }
    PciFunction::configWrite(offset, size, value);
}

Addr
PciDevice::barAddr(unsigned bar) const
{
    const BarSpec &spec = params_.bars[bar];
    if (spec.size == 0)
        return 0;
    return config_.raw32(cfg::bar0 + 4 * bar) &
           ~(static_cast<Addr>(spec.size) - 1) & 0xffffffffULL;
}

AddrRange
PciDevice::barRange(unsigned bar) const
{
    const BarSpec &spec = params_.bars[bar];
    Addr base = barAddr(bar);
    bool enabled = spec.isIo ? ioEnabled() : memEnabled();
    if (spec.size == 0 || base == 0 || !enabled)
        return {};
    return {base, base + spec.size};
}

bool
PciDevice::memEnabled() const
{
    return config_.raw16(cfg::command) & cfg::cmdMemEnable;
}

bool
PciDevice::ioEnabled() const
{
    return config_.raw16(cfg::command) & cfg::cmdIoEnable;
}

bool
PciDevice::busMaster() const
{
    return config_.raw16(cfg::command) & cfg::cmdBusMaster;
}

int
PciDevice::decode(Addr addr, Addr &offset) const
{
    for (unsigned i = 0; i < params_.bars.size(); ++i) {
        AddrRange r = barRange(i);
        if (!r.empty() && r.contains(addr)) {
            offset = addr - r.start();
            return static_cast<int>(i);
        }
    }
    return -1;
}

bool
PciDevice::handlePio(const PacketPtr &pkt)
{
    if (pioRespQueue_->full()) {
        wantPioRetry_ = true;
        return false;
    }

    Addr offset = 0;
    int bar = decode(pkt->addr(), offset);
    panicIf(bar < 0, "device '", name(), "' got PIO ",
            pkt->toString(), " outside its BARs");

    if (pkt->isRead()) {
        ++pioReads_;
        std::uint64_t v = readReg(static_cast<unsigned>(bar), offset,
                                  pkt->size());
        pkt->makeResponse();
        switch (pkt->size()) {
          case 1: pkt->set<std::uint8_t>(v & 0xff); break;
          case 2: pkt->set<std::uint16_t>(v & 0xffff); break;
          case 4: pkt->set<std::uint32_t>(v & 0xffffffff); break;
          case 8: pkt->set<std::uint64_t>(v); break;
          default:
            panic("device '", name(), "' unsupported PIO size ",
                  pkt->size());
        }
    } else {
        ++pioWrites_;
        std::uint64_t v = 0;
        if (pkt->hasData()) {
            switch (pkt->size()) {
              case 1: v = pkt->get<std::uint8_t>(); break;
              case 2: v = pkt->get<std::uint16_t>(); break;
              case 4: v = pkt->get<std::uint32_t>(); break;
              case 8: v = pkt->get<std::uint64_t>(); break;
              default:
                panic("device '", name(), "' unsupported PIO size ",
                      pkt->size());
            }
        }
        writeReg(static_cast<unsigned>(bar), offset, pkt->size(), v);
        pkt->makeResponse();
    }

    pioRespQueue_->push(pkt, curTick() + params_.pioLatency);
    return true;
}

void
PciDevice::raiseIntx()
{
    if (intxAsserted_)
        return;
    if (config_.raw16(cfg::command) & cfg::cmdIntxDisable)
        return;
    intxAsserted_ = true;
    config_.update16(cfg::status,
                     config_.raw16(cfg::status) | cfg::statusIntx);
    if (intxSink_)
        intxSink_(true);
}

void
PciDevice::lowerIntx()
{
    if (!intxAsserted_)
        return;
    intxAsserted_ = false;
    config_.update16(
        cfg::status,
        config_.raw16(cfg::status) & ~cfg::statusIntx);
    if (intxSink_)
        intxSink_(false);
}

} // namespace pciesim
