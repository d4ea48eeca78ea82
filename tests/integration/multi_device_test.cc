/**
 * @file
 * Integration tests for the traffic generator and the multi-device
 * fabric-sharing topology.
 */

#include <gtest/gtest.h>

#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

const char *const multiDeviceJson =
    PCIESIM_TOPOLOGY_DIR "/multi_device.json";

} // namespace

TEST(MultiDevice, EnumerationFindsAllGenerators)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(multiDeviceJson));
    system.boot();

    const auto &result = system.kernel().enumerate();
    // switch up VP2P + 4 down VP2Ps + 4 generators = 9, plus the
    // 3 root-port VP2Ps = 12.
    EXPECT_EQ(result.functions.size(), 12u);
    unsigned gens = 0;
    AddrRangeList bars;
    for (const auto &fn : result.functions) {
        if (fn.deviceId == tgen::deviceId) {
            ++gens;
            bars.push_back(fn.bars[0]);
        }
    }
    EXPECT_EQ(gens, 4u);
    EXPECT_FALSE(listHasOverlap(bars));
}

TEST(MultiDevice, SingleGeneratorMovesItsBytes)
{
    Simulation sim;
    // multi_device.json cut down to two generators.
    const std::string text = R"({"nodes": [
        {"name": "switch", "kind": "switch", "ports": 2,
         "link": {"name": "upLink"}},
        {"name": "tgen", "kind": "traffic_gen", "count": 2,
         "parent": "switch",
         "link": {"name": "devLink", "width": 1}}]})";
    Fabric system(sim, parseFabricDesc(topo::parseJson(text, "<two-gen>"),
                                       "<two-gen>"));

    double gbps = system.runConcurrentWrites(1, 64, 4096);
    EXPECT_GT(gbps, 0.5);
    EXPECT_EQ(system.trafficGen(0).bytesMoved(), 64u * 4096);
    EXPECT_EQ(system.trafficGen(0).burstsCompleted(), 64u);
    EXPECT_EQ(system.trafficGen(1).bytesMoved(), 0u);
    EXPECT_EQ(Packet::liveCount(), 0u);
}

TEST(MultiDevice, ConcurrentGeneratorsShareTheFabric)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(multiDeviceJson);
    desc.config.upstreamLinkWidth = 4;
    Fabric system(sim, desc);

    double agg = system.runConcurrentWrites(4, 64, 4096);
    EXPECT_GT(agg, 1.0);
    // Every device finished its share.
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(system.trafficGen(i).bytesMoved(), 64u * 4096)
            << "device " << i;
    }
    // Rough fairness: per-device goodputs within 3x of each other.
    double lo = 1e18, hi = 0.0;
    for (unsigned i = 0; i < 4; ++i) {
        double g = system.trafficGen(i).achievedGbps();
        lo = std::min(lo, g);
        hi = std::max(hi, g);
    }
    EXPECT_LT(hi / lo, 3.0);
}

TEST(MultiDevice, AggregateScalesThenSaturates)
{
    auto run = [](unsigned active) {
        Simulation sim;
        FabricDesc desc = loadFabricDesc(multiDeviceJson);
        desc.config.upstreamLinkWidth = 4;
        Fabric system(sim, desc);
        return system.runConcurrentWrites(active, 64, 4096);
    };
    double one = run(1);
    double four = run(4);
    // More devices move more aggregate data, but not 4x (the
    // shared upstream link / drain saturates).
    EXPECT_GT(four, one * 1.2);
    EXPECT_LT(four, one * 4.0);
}
