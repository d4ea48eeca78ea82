/**
 * @file
 * Mock ports and helpers shared by the unit tests.
 */

#ifndef PCIESIM_TESTS_COMMON_TEST_PORTS_HH
#define PCIESIM_TESTS_COMMON_TEST_PORTS_HH

#include <deque>
#include <functional>
#include <vector>

#include "mem/port.hh"
#include "sim/simulation.hh"

namespace pciesim::test
{

/**
 * A master port that records responses and retry callbacks, for
 * driving a slave component directly from a test.
 */
class RecordingMasterPort : public MasterPort
{
  public:
    explicit RecordingMasterPort(const std::string &name = "test.master")
        : MasterPort(name)
    {}

    bool
    recvTimingResp(PacketPtr pkt) override
    {
        if (refuseResponses > 0) {
            --refuseResponses;
            ++responsesRefused;
            return false;
        }
        responses.push_back(pkt);
        if (onResponse)
            onResponse(pkt);
        return true;
    }

    void recvReqRetry() override { ++reqRetries; }

    std::vector<PacketPtr> responses;
    std::function<void(const PacketPtr &)> onResponse;
    int refuseResponses = 0;
    unsigned responsesRefused = 0;
    unsigned reqRetries = 0;
};

/**
 * A slave port that accepts requests (optionally refusing the first
 * N), records them, and can auto-respond.
 */
class RecordingSlavePort : public SlavePort
{
  public:
    explicit RecordingSlavePort(const std::string &name = "test.slave",
                                AddrRangeList ranges = {})
        : SlavePort(name), ranges_(std::move(ranges))
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        if (refuseRequests > 0) {
            --refuseRequests;
            ++requestsRefused;
            return false;
        }
        requests.push_back(pkt);
        if (onRequest)
            onRequest(pkt);
        if (autoRespond && pkt->needsResponse()) {
            pkt->makeResponse();
            if (!sendTimingResp(pkt))
                pendingResponses.push_back(pkt);
        }
        return true;
    }

    void
    recvRespRetry() override
    {
        ++respRetries;
        while (!pendingResponses.empty()) {
            PacketPtr p = pendingResponses.front();
            if (!sendTimingResp(p))
                return;
            pendingResponses.pop_front();
        }
    }

    std::deque<PacketPtr> pendingResponses;

    AddrRangeList
    getAddrRanges() const override
    {
        return ranges_;
    }

    std::vector<PacketPtr> requests;
    std::function<void(const PacketPtr &)> onRequest;
    bool autoRespond = false;
    int refuseRequests = 0;
    unsigned requestsRefused = 0;
    unsigned respRetries = 0;

  private:
    AddrRangeList ranges_;
};

/** Run @p sim until idle (no horizon). */
inline void
drain(Simulation &sim)
{
    sim.run();
}

} // namespace pciesim::test

#endif // PCIESIM_TESTS_COMMON_TEST_PORTS_HH
