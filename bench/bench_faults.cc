/**
 * @file
 * Goodput vs bit error rate: the storage dd workload on lossy
 * links. Every TLP/DLLP draws an LCRC-failure probability from the
 * configured BER and its wire size; corrupted packets are discarded
 * at the receiver and recovered by the NAK protocol (DESIGN.md
 * Sec. 7). The sweep shows goodput degrading gracefully as the BER
 * rises while the error counters (LCRC failures, NAKs, retrains)
 * account for every lost packet.
 *
 * Completion timeouts are armed so that even a pathological
 * configuration terminates with counted errors instead of hanging.
 */

#include "bench_common.hh"

using namespace bench;

namespace
{

/** One dd run on lossy links plus its error accounting. */
struct FaultResult
{
    DdResult dd;
    LinkErrorStats links;
    std::uint64_t completionTimeouts = 0;
};

FaultResult
runFaultDd(double ber, std::uint64_t seed, std::uint64_t block_bytes)
{
    Simulation sim;
    SystemConfig cfg;
    cfg.linkBitErrorRate = ber;
    cfg.faultSeed = seed;
    cfg.completionTimeout = milliseconds(1);
    applyObservability(globalArgs(), cfg);
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = cfg;
    Fabric system(sim, desc);

    DdWorkloadParams dd;
    dd.blockBytes = block_bytes;

    FaultResult r;
    WallTimer timer;
    r.dd.gbps = system.runDd(dd);
    r.dd.wall_ms = timer.elapsedMs();
    r.dd.eventsProcessed = sim.eventq().numProcessed();
    if (r.dd.wall_ms > 0.0) {
        r.dd.events_per_sec =
            static_cast<double>(r.dd.eventsProcessed) /
            (r.dd.wall_ms / 1e3);
    }
    for (PcieLink *link : system.links())
        r.links += link->errorStats();
    r.completionTimeouts = system.kernel().completionTimeouts() +
                           system.disk().dmaCompletionTimeouts();
    const stats::Histogram *lat =
        sim.statsRegistry().histogram("system.disk.dma.e2eLatency");
    if (lat != nullptr && lat->samples() > 0) {
        r.dd.latP50Ns = ticksToNs(lat->quantile(0.50));
        r.dd.latP95Ns = ticksToNs(lat->quantile(0.95));
        r.dd.latP99Ns = ticksToNs(lat->quantile(0.99));
    }
    return r;
}

std::vector<double>
berSweep(Scale scale)
{
    if (scale == Scale::Smoke)
        return {0.0, 1e-7};
    return {0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5};
}

std::string
berLabel(double ber)
{
    if (ber == 0.0)
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", ber);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchArgs args = parseArgs(argc, argv);
    std::uint64_t block = args.scale == Scale::Smoke
                              ? (1ULL << 20)
                              : args.scale == Scale::Paper
                                    ? (64ULL << 20)
                                    : (8ULL << 20);
    JsonEmitter json("faults", args.json);

    if (!args.json) {
        std::printf("=== Faults: dd goodput (Gbps) vs bit error "
                    "rate, %s block ===\n",
                    blockLabel(block).c_str());
        std::printf("%-8s %10s %10s %8s %8s %8s %8s\n", "BER",
                    "gbps", "crcTlp", "naks", "replays", "retrain",
                    "cplTo");
    }

    for (double ber : berSweep(args.scale)) {
        FaultResult r = runFaultDd(ber, 1, block);
        if (!args.json) {
            std::printf("%-8s %10.3f %10llu %8llu %8llu %8llu "
                        "%8llu\n",
                        berLabel(ber).c_str(), r.dd.gbps,
                        static_cast<unsigned long long>(
                            r.links.crcErrorsTlp),
                        static_cast<unsigned long long>(
                            r.links.naksSent),
                        static_cast<unsigned long long>(
                            r.links.replayedTlps),
                        static_cast<unsigned long long>(
                            r.links.retrains),
                        static_cast<unsigned long long>(
                            r.completionTimeouts));
        }
        json.record(
            "ber" + berLabel(ber) + "/" + blockLabel(block),
            {{"gbps", r.dd.gbps},
             {"crcErrorsTlp",
              static_cast<double>(r.links.crcErrorsTlp)},
             {"crcErrorsDllp",
              static_cast<double>(r.links.crcErrorsDllp)},
             {"naksSent", static_cast<double>(r.links.naksSent)},
             {"replayedTlps",
              static_cast<double>(r.links.replayedTlps)},
             {"timeouts", static_cast<double>(r.links.timeouts)},
             {"retrains", static_cast<double>(r.links.retrains)},
             {"completionTimeouts",
              static_cast<double>(r.completionTimeouts)},
             {"wall_ms", r.dd.wall_ms},
             {"events_per_sec", r.dd.events_per_sec},
             {"lat_p50_ns", r.dd.latP50Ns},
             {"lat_p95_ns", r.dd.latP95Ns},
             {"lat_p99_ns", r.dd.latP99Ns}});
    }
    if (!args.json) {
        std::printf("expected shape: goodput flat through ~1e-8, "
                    "graceful degradation above; every LCRC error "
                    "accounted by a NAK or replay\n");
    }
    return 0;
}
