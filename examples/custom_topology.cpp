/**
 * @file
 * Future-system exploration scenario: two NICs on separate root
 * ports exchanging traffic over an Ethernet wire, demonstrating
 * (1) describing a fabric in JSON (examples/topologies/nic.json)
 * and adjusting the loaded description in code before building it,
 * and (2) concurrent DMA streams through the root complex.
 *
 *   $ ./custom_topology
 */

#include <cstdio>

#include "topo/fabric_builder.hh"

using namespace pciesim;

int
main()
{
    setInformEnabled(false);

    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic.json");
    desc.wire.rateGbps = 10.0; // make PCIe, not the wire, matter

    Simulation sim;
    Fabric system(sim, desc);
    system.boot();

    // NIC1 reflects: count received frames.
    unsigned received = 0;
    std::uint64_t bytes = 0;
    system.nicDriver(1).setOnReceive([&](unsigned len) {
        ++received;
        bytes += len;
    });

    // Stream frames from NIC0: each is a descriptor fetch, a
    // payload DMA read, a wire crossing, then a payload DMA write
    // + descriptor writeback on the receive side - all across the
    // PCI-Express fabric.
    const unsigned kFrames = 32;
    const unsigned kLen = 1500;
    unsigned completed = 0;
    Tick start = sim.curTick();
    for (unsigned i = 0; i < kFrames; ++i)
        system.nicDriver(0).sendFrame(kLen, [&] { ++completed; });
    sim.run();
    Tick elapsed = sim.curTick() - start;

    std::printf("two NICs across the root complex, Gen2 x1 links\n");
    std::printf("  frames sent/completed : %u / %u\n", kFrames,
                completed);
    std::printf("  frames received at far NIC : %u (%llu bytes)\n",
                received, static_cast<unsigned long long>(bytes));
    std::printf("  elapsed : %.2f us -> goodput %.3f Gbps\n",
                ticksToNs(elapsed) / 1000.0,
                static_cast<double>(bytes) * 8.0 /
                    ticksToSeconds(elapsed) / 1e9);

    auto &reg = sim.statsRegistry();
    std::printf("  nic0 link up-TLPs : %llu, nic1 link down-TLPs : "
                "%llu\n",
                static_cast<unsigned long long>(reg.counterValue(
                    "system.nicLink0.down.txTlps")),
                static_cast<unsigned long long>(reg.counterValue(
                    "system.nicLink1.up.txTlps")));
    std::printf("  interrupts dispatched : %llu\n",
                static_cast<unsigned long long>(
                    system.kernel().mmioOps()));
    return 0;
}
