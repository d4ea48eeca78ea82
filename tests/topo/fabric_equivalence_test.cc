/**
 * @file
 * Builder equivalence suite (ISSUE 9, satellite 2): each JSON
 * example under examples/topologies/ must be behaviorally
 * indistinguishable from the C++ topology class it mirrors. Both
 * sides run the same fixed workload on the same seed and their
 * full statistics dumps are compared byte for byte — any drift in
 * naming, wiring, construction order, or timing shows up as a
 * one-line diff.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../common/topology_dir.hh"
#include "topo/baseline_system.hh"
#include "topo/fabric_builder.hh"
#include "topo/multi_device_system.hh"
#include "topo/nic_system.hh"
#include "topo/storage_system.hh"

using namespace pciesim;
using pciesim::test::topologyDir;

namespace
{

std::string
dumpStats(Simulation &sim)
{
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    return os.str();
}

/** First differing line, for a readable failure message. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        ++line;
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "(identical?)";
        if (!ga || !gb || la != lb) {
            std::ostringstream os;
            os << "line " << line << ":\n  legacy: "
               << (ga ? la : "<eof>") << "\n  json:   "
               << (gb ? lb : "<eof>");
            return os.str();
        }
    }
}

void
expectIdentical(const std::string &legacy, const std::string &json,
                const std::string &what)
{
    EXPECT_EQ(legacy, json)
        << what << " diverged from its JSON form\nfirst diff at "
        << firstDiff(legacy, json);
}

TEST(FabricEquivalence, StorageJsonMatchesStorageSystem)
{
    DdWorkloadParams dd;
    dd.blockBytes = 256 * 1024;

    Simulation sim_a;
    StorageSystem legacy(sim_a, SystemConfig{});
    double gbps_a = legacy.runDd(dd);

    Simulation sim_b;
    Fabric fabric(sim_b,
                  loadFabricDesc(topologyDir() + "/storage.json"));
    double gbps_b = fabric.runDd(dd);

    EXPECT_EQ(gbps_a, gbps_b);
    expectIdentical(dumpStats(sim_a), dumpStats(sim_b),
                    "StorageSystem");
}

TEST(FabricEquivalence, BaselineJsonMatchesBaselineSystem)
{
    DdWorkloadParams dd;
    dd.blockBytes = 256 * 1024;

    Simulation sim_a;
    BaselineSystem legacy(sim_a, SystemConfig{});
    double gbps_a = legacy.runDd(dd);

    Simulation sim_b;
    Fabric fabric(sim_b,
                  loadFabricDesc(topologyDir() + "/baseline.json"));
    double gbps_b = fabric.runDd(dd);

    EXPECT_EQ(gbps_a, gbps_b);
    expectIdentical(dumpStats(sim_a), dumpStats(sim_b),
                    "BaselineSystem");
}

TEST(FabricEquivalence, NicJsonMatchesNicSystem)
{
    // nic.json declares the two-NIC wire-connected variant.
    NicSystemConfig cfg;
    cfg.twoNics = true;

    Simulation sim_a;
    NicSystem legacy(sim_a, cfg);
    Tick lat_a = legacy.measureMmioReadLatency(32);

    Simulation sim_b;
    Fabric fabric(sim_b,
                  loadFabricDesc(topologyDir() + "/nic.json"));
    Tick lat_b = fabric.measureMmioReadLatency(32);

    EXPECT_EQ(lat_a, lat_b);
    expectIdentical(dumpStats(sim_a), dumpStats(sim_b),
                    "NicSystem");
}

TEST(FabricEquivalence, MultiDeviceJsonMatchesMultiDeviceSystem)
{
    Simulation sim_a;
    MultiDeviceSystem legacy(sim_a, MultiDeviceConfig{});
    double gbps_a = legacy.runConcurrentWrites(4, 4, 16384);

    Simulation sim_b;
    Fabric fabric(
        sim_b, loadFabricDesc(topologyDir() + "/multi_device.json"));
    double gbps_b = fabric.runConcurrentWrites(4, 4, 16384);

    EXPECT_EQ(gbps_a, gbps_b);
    expectIdentical(dumpStats(sim_a), dumpStats(sim_b),
                    "MultiDeviceSystem");
}

// The remaining examples have no legacy counterpart; they must at
// least load, build, and run their natural workload.
TEST(FabricEquivalence, Tree3LoadsAndRuns)
{
    Simulation sim;
    Fabric fabric(sim,
                  loadFabricDesc(topologyDir() + "/tree3.json"));
    EXPECT_EQ(fabric.numSwitches(), 3u);
    EXPECT_EQ(fabric.numTrafficGens(), 4u);
    fabric.boot();
    double gbps = fabric.runDirectWrites(2, 4096);
    EXPECT_GT(gbps, 0.0);
}

TEST(FabricEquivalence, Fanout256LoadsAndRuns)
{
    Simulation sim;
    FabricDesc desc =
        loadFabricDesc(topologyDir() + "/fanout256.json");
    EXPECT_FALSE(desc.enumerate);
    Fabric fabric(sim, desc);
    EXPECT_EQ(fabric.numSwitches(), 17u);
    EXPECT_EQ(fabric.numTrafficGens(), 256u);
    double gbps = fabric.runDirectWrites(1, 4096);
    EXPECT_GT(gbps, 0.0);
}

} // namespace
