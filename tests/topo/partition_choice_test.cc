/**
 * @file
 * The builder's partition decision (DESIGN.md Sec. 10). A fabric
 * whose device work sits in one domain, one endpoint or NICs that
 * all share one Ethernet wire, runs on one event queue at every
 * thread count: every window would run inline, so the engine adds
 * only cost. The choice is silent, because the thread count changes
 * only wall time. A fabric with two or more device domains is cut
 * at its links, error path included, unless periodic stats
 * sampling or dump epochs pin it (warned).
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

struct BuiltRun
{
    bool engine = false;
    std::string stats;  //!< the full registry dump
    std::string warnings;
};

/** Build examples/topologies/@p file at @p threads, after @p tweak
 *  edits its configuration, and drive it: a 1 MiB dd when it has a
 *  disk, direct writes otherwise. */
BuiltRun
runTopology(const std::string &file, unsigned threads,
            const std::function<void(SystemConfig &)> &tweak = {})
{
    FabricDesc desc =
        loadFabricDesc(std::string(PCIESIM_TOPOLOGY_DIR) + "/" + file);
    if (tweak)
        tweak(desc.config);
    desc.config.threads = threads;
    Simulation sim;
    ::testing::internal::CaptureStderr();
    BuiltRun r;
    {
        Fabric fabric(sim, desc);
        if (fabric.numDisks() > 0) {
            DdWorkloadParams dd;
            dd.blockBytes = 1 << 20;
            fabric.runDd(dd);
        } else {
            fabric.boot();
            fabric.runDirectWrites(2, 4096);
        }
        r.engine = sim.engine() != nullptr;
        std::ostringstream os;
        sim.statsRegistry().dump(os);
        r.stats = os.str();
    }
    r.warnings = ::testing::internal::GetCapturedStderr();
    return r;
}

} // namespace

TEST(PartitionChoice, StorageRunsOnOneQueueAtEveryThreadCount)
{
    setInformEnabled(false);
    const BuiltRun t0 = runTopology("storage.json", 0);
    EXPECT_FALSE(t0.engine);
    for (unsigned threads : {1u, 2u, 4u}) {
        const BuiltRun tn = runTopology("storage.json", threads);
        EXPECT_FALSE(tn.engine) << "threads " << threads;
        // No engine, so not even a system.parallel.* block differs.
        EXPECT_TRUE(tn.stats == t0.stats)
            << "threads " << threads << " changed the stats dump";
        EXPECT_EQ(tn.warnings.find("--threads"), std::string::npos)
            << tn.warnings;
    }
}

TEST(PartitionChoice, MultiDeviceIsPartitionedAtOneThread)
{
    setInformEnabled(false);
    const BuiltRun t1 = runTopology("multi_device.json", 1);
    EXPECT_TRUE(t1.engine);
    EXPECT_EQ(t1.warnings.find("--threads"), std::string::npos)
        << t1.warnings;
}

TEST(PartitionChoice, ErrorPathMultiDeviceIsPartitionedAtOneThread)
{
    // Bit errors, NAK recovery and AER travel between domains as
    // keyed messages, so they no longer pin the fabric.
    setInformEnabled(false);
    const BuiltRun t1 =
        runTopology("multi_device.json", 1, [](SystemConfig &c) {
            c.linkBitErrorRate = 1e-6;
            c.enableNak = true;
            c.aerEnabled = true;
        });
    EXPECT_TRUE(t1.engine);
    EXPECT_EQ(t1.warnings.find("--threads"), std::string::npos)
        << t1.warnings;
}

TEST(PartitionChoice, PinnedMultiDeviceFabricWarns)
{
    setInformEnabled(false);
    const BuiltRun t1 =
        runTopology("multi_device.json", 1, [](SystemConfig &c) {
            c.statsSampleInterval = 10'000'000;
        });
    EXPECT_FALSE(t1.engine);
    EXPECT_NE(t1.warnings.find("periodic stats sampling pins the "
                               "fabric to one event-queue domain"),
              std::string::npos)
        << t1.warnings;
}
