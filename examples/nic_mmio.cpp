/**
 * @file
 * Device-register access scenario (the Table II experiment): a NIC
 * on a root port, an e1000e-style driver probing it through the
 * configuration and MMIO paths, and a kernel-module-style probe
 * timing 4-byte register reads while the root complex latency
 * sweeps.
 *
 *   $ ./nic_mmio
 */

#include <cstdio>

#include "topo/fabric_builder.hh"

using namespace pciesim;

int
main()
{
    setInformEnabled(false);

    std::printf("-- e1000e probe walk (paper Sec. IV) --\n");
    {
        Simulation sim;
        Fabric system(sim, loadFabricDesc(PCIESIM_TOPOLOGY_DIR
                                          "/nic_loopback.json"));
        system.boot();
        E1000eDriver &drv = system.nicDriver(0);
        std::printf("  MSI-X enable hard-wired zero : %s\n",
                    drv.sawMsixDisabled() ? "yes" : "no");
        std::printf("  MSI enable hard-wired zero   : %s\n",
                    drv.sawMsiDisabled() ? "yes" : "no");
        std::printf("  -> legacy INTx handler       : %s\n",
                    drv.usingLegacyIrq() ? "registered" : "NO");
        std::printf("  link up                      : %s\n",
                    drv.linkUp() ? "yes" : "no");
        std::printf("  MAC from EEPROM              : "
                    "%02llx:%02llx:%02llx:%02llx:%02llx:%02llx\n",
                    static_cast<unsigned long long>(
                        drv.macAddress() & 0xff),
                    static_cast<unsigned long long>(
                        (drv.macAddress() >> 8) & 0xff),
                    static_cast<unsigned long long>(
                        (drv.macAddress() >> 16) & 0xff),
                    static_cast<unsigned long long>(
                        (drv.macAddress() >> 24) & 0xff),
                    static_cast<unsigned long long>(
                        (drv.macAddress() >> 32) & 0xff),
                    static_cast<unsigned long long>(
                        (drv.macAddress() >> 40) & 0xff));
        std::printf("  BAR0 (128 KB MMIO)           : 0x%llx\n",
                    static_cast<unsigned long long>(
                        system.nicMmioBase(0)));
    }

    std::printf("\n-- MMIO read latency vs root complex latency "
                "(Table II) --\n");
    std::printf("  %-22s %s\n", "rc latency", "4B MMIO read");
    for (unsigned rc : {50u, 75u, 100u, 125u, 150u}) {
        Simulation sim;
        FabricDesc desc =
            loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic_loopback.json");
        desc.config.rcLatency = nanoseconds(rc);
        Fabric system(sim, desc);
        Tick t = system.measureMmioReadLatency(100);
        std::printf("  %3u ns %22.0f ns\n", rc, ticksToNs(t));
    }
    return 0;
}
