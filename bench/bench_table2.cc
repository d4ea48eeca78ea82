/**
 * @file
 * Table II: root complex latency vs 4-byte MMIO read access time.
 *
 * A NIC sits directly on a root port; a kernel-module-style probe
 * times back-to-back 4 B reads of a NIC register while the root
 * complex latency sweeps 50..150 ns (paper Sec. VI-B).
 */

#include <cstdio>

#include "bench_common.hh"
#include "topo/fabric_builder.hh"

using namespace bench;

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchArgs args = parseArgs(argc, argv);
    JsonEmitter json("table2", args.json);
    // MMIO probe iterations; the latency is deterministic, so the
    // smoke run only needs a handful.
    unsigned iters = args.scale == Scale::Smoke ? 8 : 200;

    if (!args.json) {
        std::printf("=== Table II: root complex latency vs MMIO read "
                    "access time ===\n");
        std::printf("%-28s", "root complex latency (ns)");
    }
    static const unsigned rc_lat[] = {50, 75, 100, 125, 150};
    if (!args.json) {
        for (unsigned rc : rc_lat)
            std::printf(" %6u", rc);
        std::printf("\n");

        // Paper-reported values for comparison.
        std::printf("%-28s", "paper MMIO read (ns)");
        static const unsigned paper[] = {318, 358, 398, 438, 517};
        for (unsigned v : paper)
            std::printf(" %6u", v);
        std::printf("\n");

        std::printf("%-28s", "measured MMIO read (ns)");
    }
    for (unsigned rc : rc_lat) {
        Simulation sim;
        FabricDesc desc =
            loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic_loopback.json");
        desc.config.rcLatency = nanoseconds(rc);
        applyObservability(args, desc.config);
        Fabric system(sim, desc);
        WallTimer timer;
        Tick t = system.measureMmioReadLatency(iters);
        double wall_ms = timer.elapsedMs();
        if (!args.json)
            std::printf(" %6.0f", ticksToNs(t));
        double eps = wall_ms > 0.0
            ? static_cast<double>(sim.eventq().numProcessed()) /
                  (wall_ms / 1e3)
            : 0.0;
        const stats::Histogram *lat =
            sim.statsRegistry().histogram("system.kernel.mmioLatency");
        double p50 = 0.0, p95 = 0.0, p99 = 0.0;
        if (lat != nullptr && lat->samples() > 0) {
            p50 = ticksToNs(lat->quantile(0.50));
            p95 = ticksToNs(lat->quantile(0.95));
            p99 = ticksToNs(lat->quantile(0.99));
        }
        json.record("rc" + std::to_string(rc) + "ns",
                    {{"mmio_read_ns", ticksToNs(t)},
                     {"wall_ms", wall_ms},
                     {"events_per_sec", eps},
                     {"lat_p50_ns", p50},
                     {"lat_p95_ns", p95},
                     {"lat_p99_ns", p99}});
    }
    if (!args.json) {
        std::printf("\n");
        std::printf("paper shape: monotonic, ~40 ns per 25 ns RC "
                    "step (request and response both cross the "
                    "RC)\n");
    }
    return 0;
}
