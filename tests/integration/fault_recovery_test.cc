/**
 * @file
 * End-to-end fault injection on the storage topology: dd completes
 * on lossy links, the error accounting is consistent, and fault
 * runs are bit-reproducible from the seed (the property that makes
 * lossy-link experiments debuggable).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

/** Run dd once and return the full stats dump plus goodput. */
struct RunResult
{
    double gbps = 0.0;
    std::string statsDump;
    LinkErrorStats links;
    std::uint64_t completionTimeouts = 0;
};

RunResult
runOnce(const SystemConfig &cfg, std::uint64_t block_bytes)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = cfg;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = block_bytes;

    RunResult r;
    r.gbps = system.runDd(dd);
    for (PcieLink *link : system.links())
        r.links += link->errorStats();
    r.completionTimeouts = system.kernel().completionTimeouts() +
                           system.disk().dmaCompletionTimeouts();
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    r.statsDump = os.str();
    return r;
}

} // namespace

TEST(FaultRecoveryTest, DdCompletesOnLossyLinks)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.completionTimeout = 1_ms;
    RunResult r = runOnce(cfg, 1 << 20);

    EXPECT_GT(r.gbps, 0.0);
    // The BER actually bit: errors were injected and recovered.
    EXPECT_GT(r.links.crcErrorsTlp, 0u);
    EXPECT_GT(r.links.naksSent, 0u);
    EXPECT_GT(r.links.replayedTlps, 0u);
    // Every NAK that was received was previously sent; corrupted
    // NAK DLLPs may be lost on the wire, never invented.
    EXPECT_LE(r.links.naksReceived, r.links.naksSent);
    // The workload completed; nothing had to be aborted.
    EXPECT_EQ(r.completionTimeouts, 0u);
}

TEST(FaultRecoveryTest, SameSeedIsBitReproducible)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.faultSeed = 7;
    RunResult a = runOnce(cfg, 1 << 20);
    RunResult b = runOnce(cfg, 1 << 20);

    EXPECT_GT(a.links.crcErrorsTlp, 0u); // faults happened
    EXPECT_EQ(a.gbps, b.gbps);
    EXPECT_EQ(a.statsDump, b.statsDump); // every counter identical
}

TEST(FaultRecoveryTest, DifferentSeedDrawsDifferentFaults)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-4; // dense enough that streams differ
    cfg.faultSeed = 1;
    RunResult a = runOnce(cfg, 1 << 20);
    cfg.faultSeed = 2;
    RunResult b = runOnce(cfg, 1 << 20);

    EXPECT_GT(a.links.crcErrorsTlp, 0u);
    EXPECT_GT(b.links.crcErrorsTlp, 0u);
    EXPECT_NE(a.statsDump, b.statsDump);
}

TEST(FaultRecoveryTest, FaultFreeRunReportsNoErrors)
{
    setInformEnabled(false);
    SystemConfig cfg;
    RunResult r = runOnce(cfg, 1 << 20);
    EXPECT_GT(r.gbps, 0.0);
    EXPECT_EQ(r.links.crcErrorsTlp, 0u);
    EXPECT_EQ(r.links.crcErrorsDllp, 0u);
    EXPECT_EQ(r.links.naksSent, 0u);
    EXPECT_EQ(r.links.naksReceived, 0u);
    EXPECT_EQ(r.links.retrains, 0u);
    EXPECT_EQ(r.completionTimeouts, 0u);
}

TEST(FaultRecoveryTest, PerLinkStatsAccessorCoversTheFabric)
{
    setInformEnabled(false);
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json"));
    auto links = system.links();
    ASSERT_EQ(links.size(), 2u);
    EXPECT_EQ(links[0], &system.link(0));
    EXPECT_EQ(links[1], &system.link(1));
}
