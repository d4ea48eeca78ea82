/**
 * @file
 * Extension: fabric sharing. N DMA-writing devices behind one
 * switch share a Gen 2 x4 upstream link; sweep the number of
 * concurrently active devices and report aggregate goodput - the
 * "processor simultaneously communicating with multiple devices"
 * scenario from the paper's introduction, now measurable with the
 * detailed interconnect model.
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
    JsonEmitter json("contention", args.json);
    // Bursts per device; the sharing dynamics settle quickly, so
    // the smoke run uses a handful.
    unsigned bursts = args.scale == Scale::Smoke ? 16 : 256;

    if (!args.json) {
        std::printf("=== Extension: multi-device contention on a "
                    "shared x4 upstream link ===\n");
        std::printf("%-18s %12s %14s\n", "active devices",
                    "aggregate", "per-device");
    }

    for (unsigned active : {1u, 2u, 3u, 4u}) {
        Simulation sim;
        FabricDesc desc =
            loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/multi_device.json");
        desc.config.upstreamLinkWidth = 4;
        Fabric system(sim, desc);
        WallTimer timer;
        double gbps = system.runConcurrentWrites(active, bursts, 4096);
        double wall_ms = timer.elapsedMs();
        if (!args.json) {
            std::printf("%-18u %9.3f Gb %11.3f Gb\n", active, gbps,
                        gbps / active);
        }
        double eps = wall_ms > 0.0
            ? static_cast<double>(sim.eventq().numProcessed()) /
                  (wall_ms / 1e3)
            : 0.0;
        json.record("active" + std::to_string(active),
                    {{"gbps", gbps},
                     {"wall_ms", wall_ms},
                     {"events_per_sec", eps}});
    }
    if (!args.json) {
        std::printf("expected shape: aggregate scales with device "
                    "count until the shared x4 upstream\nlink / DMA "
                    "drain saturates, then per-device bandwidth "
                    "falls\n");
    }
    return 0;
}
