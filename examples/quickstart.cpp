/**
 * @file
 * Quickstart: build the paper's validation topology (CPU - MemBus -
 * root complex =x4= switch =x1= IDE disk), boot it (PCI enumeration
 * + driver probe), run a small dd transfer, and print what happened.
 *
 *   $ ./quickstart
 */

#include <cstdio>
#include <iostream>

#include "topo/fabric_builder.hh"

using namespace pciesim;

int
main()
{
    // 1. Describe the system. storage.json declares the tree; the
    //    SystemConfig defaults in desc.config reproduce the paper's
    //    validation configuration (Gen 2, RC/switch latency 150 ns,
    //    16-packet port buffers, 4-entry replay buffers).
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");

    // 2. Instantiate and wire every component.
    Simulation sim;
    Fabric system(sim, desc);

    // 3. Boot: depth-first PCI enumeration assigns bus numbers,
    //    sizes BARs, programs bridge windows; the IDE driver probes.
    system.boot();

    std::printf("\n-- enumeration result --\n");
    for (const auto &fn : system.kernel().enumerate().functions) {
        std::printf("  %s  %04x:%04x  %s\n", fn.bdf.toString().c_str(),
                    fn.vendorId, fn.deviceId,
                    fn.isBridge ? "bridge" : "endpoint");
    }

    // 4. Run dd: read one 4 MB block from the disk with direct I/O.
    DdWorkloadParams dd;
    dd.blockBytes = 4ULL << 20;
    double gbps = system.runDd(dd);

    std::printf("\n-- dd result --\n");
    std::printf("  transferred: %llu bytes\n",
                static_cast<unsigned long long>(
                    system.disk().bytesTransferred()));
    std::printf("  reported throughput: %.3f Gbps\n", gbps);
    std::printf("  (a Gen 2 x1 link carries a 64 B TLP in 168 ns "
                "=> %.2f Gbps device ceiling)\n",
                64.0 * 8 / 168.0);

    // 5. Every component exposes statistics.
    std::printf("\n-- selected statistics --\n");
    auto &reg = sim.statsRegistry();
    for (const char *name :
         {"system.downLink.up.txTlps", "system.downLink.up.txDllps",
          "system.switch.fwdUpRequests", "system.rc.fwdUpRequests",
          "system.dram.writes", "system.kernel.mmioOps"}) {
        std::printf("  %-32s %llu\n", name,
                    static_cast<unsigned long long>(
                        reg.counterValue(name)));
    }
    return 0;
}
