/**
 * @file
 * Master/slave port pairs implementing the gem5 timing protocol.
 *
 * A master port sends requests and receives responses; a slave port
 * receives requests and sends responses (paper Sec. III). Either
 * receiver may refuse a packet by returning false from its recv
 * hook; the refused sender must hold the packet and wait for the
 * corresponding retry callback before trying again.
 *
 * Components that deliberately break the wait-for-retry rule (the
 * PCI-Express link interface relies on replay timeouts instead,
 * paper Sec. V-C) must tolerate spurious retry callbacks.
 */

#ifndef PCIESIM_MEM_PORT_HH
#define PCIESIM_MEM_PORT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "mem/addr_range.hh"
#include "mem/packet.hh"
#include "sim/logging.hh"

namespace pciesim
{

class SlavePort;
class MasterPort;

/**
 * The routing generation: a process-wide count of the changes that
 * can alter routing state, i.e. what a slave port's getAddrRanges()
 * returns or which windows and bus numbers a bridge decodes. Port
 * binding and every configuration-space mutation bump it. A routing
 * cache (an XBar's route table, a VP2P's decoded windows) records
 * the generation it was built at and rebuilds when the count has
 * moved (DESIGN.md §5). Configuration writes land on every link
 * domain's worker, so the count is atomic.
 */
class RoutingGeneration
{
  public:
    static std::uint64_t
    current()
    {
        return count_.load(std::memory_order_relaxed);
    }

    static void bump() { count_.fetch_add(1, std::memory_order_relaxed); }

  private:
    /** Starts at 1, so a cache stamped 0 was never built. */
    static inline std::atomic<std::uint64_t> count_{1};
};

/** Common port state: a name and a peer. */
class Port
{
  public:
    explicit Port(std::string name) : name_(std::move(name)) {}
    virtual ~Port() = default;

    Port(const Port &) = delete;
    Port &operator=(const Port &) = delete;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * The request-sending side of a connection.
 */
class MasterPort : public Port
{
  public:
    using Port::Port;

    /** Connect this master port to @p peer (and vice versa). */
    void bind(SlavePort &peer);

    bool isBound() const { return peer_ != nullptr; }
    SlavePort &peer() const;

    /**
     * Send a request to the peer slave port.
     * @return false if the peer refused; the caller keeps ownership
     *         and must wait for recvReqRetry() (unless it uses an
     *         out-of-band recovery mechanism such as link replay).
     */
    bool sendTimingReq(const PacketPtr &pkt);

    /** Signal the peer slave port to retry a refused response. */
    void sendRetryResp();

    /** Response delivery from the peer. @return false to refuse. */
    virtual bool recvTimingResp(PacketPtr pkt) = 0;

    /** The peer can now accept a previously refused request. */
    virtual void recvReqRetry() = 0;

  private:
    SlavePort *peer_ = nullptr;

    friend class SlavePort;
};

/**
 * The request-receiving side of a connection.
 */
class SlavePort : public Port
{
  public:
    using Port::Port;

    bool isBound() const { return peer_ != nullptr; }
    MasterPort &peer() const;

    /**
     * Send a response to the peer master port.
     * @return false if the peer refused; wait for recvRespRetry().
     */
    bool sendTimingResp(const PacketPtr &pkt);

    /** Signal the peer master port to retry a refused request. */
    void sendRetryReq();

    /** Request delivery from the peer. @return false to refuse. */
    virtual bool recvTimingReq(PacketPtr pkt) = 0;

    /** The peer can now accept a previously refused response. */
    virtual void recvRespRetry() = 0;

    /**
     * Address ranges this slave port responds to; used by crossbars
     * and routing components to build their routing tables.
     */
    virtual AddrRangeList getAddrRanges() const = 0;

  private:
    MasterPort *peer_ = nullptr;

    friend class MasterPort;
};

} // namespace pciesim

#endif // PCIESIM_MEM_PORT_HH
