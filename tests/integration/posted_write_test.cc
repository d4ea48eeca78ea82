/**
 * @file
 * Tests for the posted-write extension (the feature the paper's
 * Sec. VI-B names as missing from its model).
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

const char *const storageJson = PCIESIM_TOPOLOGY_DIR "/storage.json";

} // namespace

TEST(PostedWrites, CommandClassification)
{
    PacketPtr p = Packet::makeRequest(MemCmd::PostedWriteReq, 0, 64);
    EXPECT_TRUE(p->isRequest());
    EXPECT_TRUE(p->isWrite());
    EXPECT_FALSE(p->needsResponse());
    // A posted write still carries its payload on the wire.
    EXPECT_EQ(p->tlpPayloadSize(), 64u);
}

TEST(PostedWrites, DdCompletesAndMovesAllData)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(storageJson);
    desc.config.disk.postedWrites = true;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    double gbps = system.runDd(dd);
    EXPECT_GT(gbps, 0.5);
    EXPECT_EQ(system.disk().bytesTransferred(), 1u << 20);
    EXPECT_EQ(Packet::liveCount(), 0u);
    // The only responses flowing back down are the PRD-fetch read
    // completions (one small read per DMA command) - none of the
    // 16384 data writes generated one.
    auto &reg = sim.statsRegistry();
    EXPECT_EQ(reg.counterValue("system.rc.fwdDownResponses"),
              system.disk().commandsCompleted());
}

TEST(PostedWrites, FasterThanNonPostedAtX1)
{
    // The paper's own prediction: requiring responses for writes
    // underestimates bandwidth relative to real (posted) PCIe.
    DdWorkloadParams dd;
    dd.blockBytes = 2 << 20;

    Simulation sim_np;
    Fabric nonposted(sim_np, loadFabricDesc(storageJson));
    double np = nonposted.runDd(dd);

    Simulation sim_p;
    FabricDesc desc = loadFabricDesc(storageJson);
    desc.config.disk.postedWrites = true;
    Fabric posted(sim_p, desc);
    double p = posted.runDd(dd);

    EXPECT_GT(p, np);
}
