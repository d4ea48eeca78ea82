/**
 * @file
 * Ablation: the paper's implicit baseline (mainline gem5's
 * crossbar-only off-chip attachment, Sec. I/III) against the
 * detailed PCI-Express model. Quantifies how much I/O throughput
 * the stock model overestimates by ignoring link serialization and
 * the data link layer.
 */

#include "bench_common.hh"
#include "topo/fabric_builder.hh"

using namespace bench;

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchArgs args = parseArgs(argc, argv);
    auto blocks = blockSizes(args.scale);
    JsonEmitter json("baseline", args.json);

    if (!args.json) {
        std::printf("=== Ablation: stock-gem5 crossbar baseline vs "
                    "PCIe model (Gbps) ===\n");
        std::printf("%-22s", "config");
        for (auto b : blocks)
            std::printf(" %10s", blockLabel(b).c_str());
        std::printf("\n");

        std::printf("%-22s", "baseline (crossbar)");
    }
    std::vector<double> base;
    for (auto b : blocks) {
        Simulation sim;
        Fabric system(
            sim, loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/baseline.json"));
        DdWorkloadParams dd;
        dd.blockBytes = b;
        WallTimer timer;
        base.push_back(system.runDd(dd));
        double wall_ms = timer.elapsedMs();
        if (!args.json)
            std::printf(" %10.3f", base.back());
        double eps = wall_ms > 0.0
            ? static_cast<double>(sim.eventq().numProcessed()) /
                  (wall_ms / 1e3)
            : 0.0;
        json.record("crossbar/" + blockLabel(b),
                    {{"gbps", base.back()},
                     {"wall_ms", wall_ms},
                     {"events_per_sec", eps}});
    }
    if (!args.json) {
        std::printf("\n");
        std::printf("%-22s", "pcie model (x1 Gen2)");
    }
    std::vector<double> pcie;
    for (auto b : blocks) {
        DdResult r = runDd(SystemConfig{}, b);
        pcie.push_back(r.gbps);
        if (!args.json)
            std::printf(" %10.3f", r.gbps);
        json.record("pcie/" + blockLabel(b), r);
    }
    if (!args.json) {
        std::printf("\n");
        std::printf("%-22s", "overestimate");
        for (std::size_t i = 0; i < blocks.size(); ++i)
            std::printf(" %9.2fx", base[i] / pcie[i]);
        std::printf("\n");
        std::printf("the baseline has no Gen2 x1 serialization "
                    "bottleneck, so it overestimates I/O "
                    "throughput\n");
    }
    return 0;
}
