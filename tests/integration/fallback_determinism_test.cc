/**
 * @file
 * The single-queue fallback contract (DESIGN.md §10/§12): fault
 * configurations pin the fabric to one event-queue domain, so
 * `--threads N` must construct and run the exact system `threads=0`
 * does — byte-identical stats, not merely equivalent ones. Guards
 * the builder's warn-once fallback path against quietly drifting
 * from the single-queue construction. It is exercised on
 * examples/topologies/storage.json with an idle traffic generator
 * beside the disk: the storage fabric alone has one device domain
 * and runs on one queue whatever its configuration, so it would not
 * reach the fallback.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

std::string
runOnce(SystemConfig cfg, unsigned threads)
{
    cfg.threads = threads;
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    FabricNodeDesc tgen = desc.nodes.back();
    tgen.name = "tgen";
    tgen.kind = "traffic_gen";
    tgen.link.name = "tgenLink";
    desc.nodes.push_back(tgen);
    desc.config = cfg;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    system.runDd(dd);
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    return os.str();
}

} // namespace

TEST(FallbackDeterminismTest, FaultConfigByteMatchesThreadsZero)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-6;
    cfg.faultSeed = 7;
    EXPECT_EQ(runOnce(cfg, 0), runOnce(cfg, 4));
}

TEST(FallbackDeterminismTest, AerUnplugConfigByteMatchesThreadsZero)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8;
    EXPECT_EQ(runOnce(cfg, 0), runOnce(cfg, 2));
}

TEST(FallbackDeterminismTest, DegradationConfigByteMatchesThreadsZero)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.faultSeed = 3;
    cfg.degradeThreshold = 4;
    EXPECT_EQ(runOnce(cfg, 0), runOnce(cfg, 2));
}
