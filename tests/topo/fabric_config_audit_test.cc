/**
 * @file
 * SystemConfig knob audit (ISSUE 9, satellite 4): a knob set away
 * from its default but not consumed by the topology's shape must
 * warn instead of being silently ignored, and a knob the shape
 * does consume must stay silent.
 */

#include <gtest/gtest.h>

#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

/** Build @p desc and return everything it printed to stderr. */
std::string
buildStderr(const FabricDesc &desc)
{
    ::testing::internal::CaptureStderr();
    Simulation sim;
    Fabric fabric(sim, desc);
    return ::testing::internal::GetCapturedStderr();
}

TEST(FabricConfigAudit, UnusedKnobsWarn)
{
    FabricDesc desc;
    desc.source = "<audit>";
    // No switches and no disk: both knobs are dead weight here.
    desc.config.switchLatency = nanoseconds(100);
    desc.config.unplugAtChunk = 3;
    desc.gen.postedWrites = true;
    FabricNodeDesc gen;
    gen.name = "gen";
    gen.kind = "traffic_gen";
    desc.nodes.push_back(gen);

    std::string err = buildStderr(desc);
    EXPECT_NE(err.find("config knob 'switch_latency_ns' is set "
                       "but unused by this topology"),
              std::string::npos) << err;
    EXPECT_NE(err.find("config knob 'unplug_at_chunk' is set "
                       "but unused by this topology"),
              std::string::npos) << err;
}

TEST(FabricConfigAudit, ConsumedKnobsStaySilent)
{
    FabricDesc desc;
    desc.source = "<audit>";
    desc.config.switchLatency = nanoseconds(100);
    desc.config.unplugAtChunk = 3;
    FabricNodeDesc sw;
    sw.name = "switch";
    sw.kind = "switch";
    desc.nodes.push_back(sw);
    FabricNodeDesc disk;
    disk.name = "disk";
    disk.kind = "ide_disk";
    disk.parent = "switch";
    desc.nodes.push_back(disk);

    std::string err = buildStderr(desc);
    EXPECT_EQ(err.find("is set but unused"), std::string::npos)
        << err;
}

TEST(FabricConfigAudit, LegacyIoIgnoresPcieKnobs)
{
    FabricDesc desc;
    desc.source = "<audit>";
    desc.style = "legacy-io";
    desc.config.rcLatency = nanoseconds(500);
    desc.config.aerEnabled = true;
    desc.config.downstreamLinkWidth = 4;
    // The unplug script acts through the disk's PCIe link.
    desc.config.unplugAtChunk = 3;
    desc.config.replugDelay = microseconds(10);
    FabricNodeDesc disk;
    disk.name = "disk";
    disk.kind = "ide_disk";
    desc.nodes.push_back(disk);

    std::string err = buildStderr(desc);
    EXPECT_NE(err.find("config knob 'rc_latency_ns' is set but "
                       "unused by this topology"),
              std::string::npos) << err;
    for (const char *knob :
         {"aer_enabled", "downstream_link_width", "unplug_at_chunk",
          "replug_delay_ns"}) {
        EXPECT_NE(err.find("config knob '" + std::string(knob) +
                           "' is set but unused by this topology"),
                  std::string::npos) << knob << ": " << err;
    }
}

} // namespace
