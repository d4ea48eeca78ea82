/**
 * @file
 * A point-to-point Ethernet wire connecting two NIC models (or one
 * NIC in loopback): per-direction serialization at the line rate
 * plus a propagation latency.
 */

#ifndef PCIESIM_DEV_ETHER_WIRE_HH
#define PCIESIM_DEV_ETHER_WIRE_HH

#include <cstdint>
#include <vector>

#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace pciesim
{

/** An Ethernet frame; payload content is optional. */
struct EtherFrame
{
    unsigned size = 0;
    std::vector<std::uint8_t> data;
};

/** Receiver interface implemented by NIC models. */
class EtherSink
{
  public:
    virtual ~EtherSink() = default;

    /** @return false to drop the frame (no RX resources). */
    virtual bool recvFrame(const EtherFrame &frame) = 0;
};

/** Configuration for an EtherWire. */
struct EtherWireParams
{
    double rateGbps = 1.0;
    Tick latency = nanoseconds(500);
};

/**
 * The wire. attach() both ends; with a single end attached the wire
 * acts as a loopback plug.
 */
class EtherWire : public SimObject
{
  public:
    EtherWire(Simulation &sim, const std::string &name,
              const EtherWireParams &params = {});
    ~EtherWire() override;

    /** @param end 0 or 1. */
    void attach(unsigned end, EtherSink &sink);

    /**
     * Transmit a frame from @p end.
     * @return false when that direction is still serializing a
     *         previous frame; retry at freeAt().
     */
    bool transmit(unsigned end, const EtherFrame &frame);

    /** When the @p end transmit direction becomes free. */
    Tick freeAt(unsigned end) const;

    std::uint64_t framesDelivered() const
    {
        return framesDelivered_.value();
    }
    std::uint64_t framesDropped() const
    {
        return framesDropped_.value();
    }

    void init() override;

  private:
    struct Direction
    {
        Tick busyUntil = 0;
        RingQueue<std::pair<Tick, EtherFrame>> inFlight;
        std::unique_ptr<EventFunctionWrapper> deliverEvent;
    };

    void deliver(unsigned to_end);

    EtherWireParams params_;
    EtherSink *sinks_[2] = {nullptr, nullptr};
    Direction dirs_[2]; //!< indexed by source end

    stats::Counter framesDelivered_;
    stats::Counter framesDropped_;
};

} // namespace pciesim

#endif // PCIESIM_DEV_ETHER_WIRE_HH
