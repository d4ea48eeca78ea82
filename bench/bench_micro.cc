/**
 * @file
 * Microbenchmarks (google-benchmark):
 *
 *  - Table I / Sec. VI-B device-level check: simulated goodput of a
 *    saturated Gen 2 link at each width (the x1 value is the
 *    paper's 3.07 Gbps device-level number).
 *  - Simulator-engineering numbers: event queue throughput, link
 *    packet cost, crossbar packet cost, enumeration cost.
 */

#include <benchmark/benchmark.h>

#include "mem/simple_memory.hh"
#include "mem/xbar.hh"
#include "pcie/pcie_link.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

/** A slave port that accepts and responds to everything. */
class SinkPort : public SlavePort
{
  public:
    explicit SinkPort(const std::string &name, AddrRangeList ranges)
        : SlavePort(name), ranges_(std::move(ranges))
    {}

    bool
    recvTimingReq(PacketPtr pkt) override
    {
        ++received;
        if (pkt->needsResponse()) {
            pkt->makeResponse();
            (void)sendTimingResp(pkt);
        }
        return true;
    }

    void recvRespRetry() override {}

    AddrRangeList getAddrRanges() const override { return ranges_; }

    std::uint64_t received = 0;

  private:
    AddrRangeList ranges_;
};

/** A master port driving a link at full rate. */
class PumpPort : public MasterPort
{
  public:
    using MasterPort::MasterPort;

    bool
    recvTimingResp(PacketPtr) override
    {
        return true;
    }

    void
    recvReqRetry() override
    {
        wantSend = true;
    }

    bool wantSend = false;
};

} // namespace

/** Event queue schedule/fire throughput. */
static void
BM_EventQueue(benchmark::State &state)
{
    EventQueue q;
    EventFunctionWrapper ev([] {}, "bench");
    Tick t = 1;
    for (auto _ : state) {
        q.schedule(&ev, t);
        q.step();
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

/**
 * Device-level goodput of a saturated Gen 2 link (simulated time):
 * 64 B write TLPs pumped as fast as the data link layer accepts.
 * Reported counter "simGbps" is the simulated goodput; at x1 it is
 * the paper's ~3.05 Gbps device-level figure.
 */
static void
BM_LinkGoodput(benchmark::State &state)
{
    unsigned width = static_cast<unsigned>(state.range(0));
    double sim_gbps = 0.0;
    std::uint64_t packets = 0;
    for (auto _ : state) {
        Simulation sim;
        PcieLinkParams params;
        params.width = width;
        params.replayBufferSize = 64; // never the bottleneck
        params.ackImmediate = true;
        PcieLink link(sim, "link", params);
        PumpPort pump("pump");
        SinkPort sink("sink", {AddrRange{0, 1ULL << 40}});
        SinkPort dma_sink("dmaSink", {AddrRange{0, 1ULL << 40}});
        PumpPort dma_pump("dmaPump");
        pump.bind(link.upSlave());
        link.upMaster().bind(dma_sink);
        link.downMaster().bind(sink);
        dma_pump.bind(link.downSlave());
        sim.initialize();

        const unsigned total = 4096;
        unsigned sent = 0;
        // Drive: push whenever the link frees capacity.
        while (sink.received < total) {
            while (sent < total &&
                   pump.sendTimingReq(Packet::makeRequest(
                       MemCmd::PostedWriteReq,
                       static_cast<Addr>(sent) * 64, 64))) {
                ++sent;
            }
            if (!sim.eventq().step())
                break;
        }
        sim_gbps = static_cast<double>(total) * 64 * 8 /
                   ticksToSeconds(sim.curTick()) / 1e9;
        packets += total;
    }
    state.counters["simGbps"] = sim_gbps;
    state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_LinkGoodput)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/** Crossbar packet forwarding cost (host time). */
static void
BM_XBarForward(benchmark::State &state)
{
    Simulation sim;
    XBar xbar(sim, "xbar");
    PumpPort cpu("cpu");
    SinkPort dev("dev", {AddrRange{0, 1ULL << 32}});
    cpu.bind(xbar.addSlavePort("s"));
    xbar.addMasterPort("m").bind(dev);
    sim.initialize();

    Addr a = 0;
    for (auto _ : state) {
        if (!cpu.sendTimingReq(
                Packet::makeRequest(MemCmd::WriteReq, a, 64))) {
            state.PauseTiming();
            sim.run();
            state.ResumeTiming();
        }
        a += 64;
        sim.eventq().step();
        sim.eventq().step();
    }
    sim.run();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XBarForward);

/** Full enumeration of the validation topology (host time). */
static void
BM_Enumeration(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        Fabric system(sim,
                      loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json"));
        system.boot();
        benchmark::DoNotOptimize(
            system.kernel().enumerate().functions.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Enumeration);

int
main(int argc, char **argv)
{
    setInformEnabled(false); // boot chatter would swamp the tables
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
