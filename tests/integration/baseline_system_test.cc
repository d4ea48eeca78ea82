/**
 * @file
 * Integration tests for the baseline (crossbar-only, stock-gem5
 * style) topology, and the ablation property that the PCIe model's
 * link serialization makes the detailed topology slower.
 */

#include <gtest/gtest.h>

#include "topo/fabric_builder.hh"

using namespace pciesim;

TEST(BaselineFabric, BootsAndRunsDd)
{
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/baseline.json"));

    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    double gbps = system.runDd(dd);
    EXPECT_GT(gbps, 1.0);
    EXPECT_EQ(system.disk().bytesTransferred(), 1u << 20);
    EXPECT_EQ(Packet::liveCount(), 0u);
}

TEST(BaselineFabric, FasterThanPcieX1Model)
{
    // The whole point of the paper: the stock crossbar attachment
    // has no Gen 2 x1 serialization bottleneck, so it overestimates
    // I/O throughput relative to the detailed PCIe model.
    DdWorkloadParams dd;
    dd.blockBytes = 2 << 20;

    Simulation sim_base;
    Fabric baseline(sim_base,
                    loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/baseline.json"));
    double base_gbps = baseline.runDd(dd);

    Simulation sim_pcie;
    Fabric pcie(sim_pcie,
                loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json"));
    double pcie_gbps = pcie.runDd(dd);

    EXPECT_GT(base_gbps, pcie_gbps * 1.3)
        << "baseline " << base_gbps << " vs pcie " << pcie_gbps;
}
