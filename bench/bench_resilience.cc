/**
 * @file
 * Error containment and recovery (DESIGN.md §12): how much goodput
 * the dd workload retains when the fabric is degrading around
 * faults instead of merely replaying through them.
 *
 * Part 1 sweeps BER x degradation threshold: above the threshold
 * the link steps its operating point down (Gen first, then width)
 * and the retained goodput shows the grace of the ladder versus
 * livelocking in replay.
 *
 * Part 2 sweeps the surprise hot-unplug ordinal: the disk vanishes
 * mid-DMA at the Nth 4 KB chunk, the fatal error rides AER to the
 * root, the switch contains the port, the kernel FLRs the returned
 * device, and the driver re-issues the lost command. Goodput
 * retained > 0 and recoveries > 0 prove end-to-end forward
 * progress.
 */

#include "bench_common.hh"

using namespace bench;

namespace
{

/** One resilient dd run and its error/recovery accounting. */
struct ResilienceResult
{
    DdResult dd;
    LinkErrorStats links;
    std::uint64_t unplugs = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t lostRequests = 0;
    std::uint64_t functionResets = 0;
    std::uint64_t fatalMsgs = 0;
    double recoveryP50Us = 0.0;
    double recoveryP99Us = 0.0;
};

ResilienceResult
runResilientDd(const SystemConfig &cfg, std::uint64_t block_bytes)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = cfg;
    Fabric system(sim, desc);

    DdWorkloadParams dd;
    dd.blockBytes = block_bytes;

    ResilienceResult r;
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
    r.unplugs = system.disk().unplugs();
    if (system.aerHandler() != nullptr) {
        r.functionResets = system.aerHandler()->functionResets();
        r.fatalMsgs =
            system.aerHandler()->errorsSeen(ErrSeverity::Fatal);
    }
    r.recoveries = system.ideDriver().recoveries();
    r.lostRequests = system.ideDriver().lostRequests();
    const stats::Histogram &rec = system.ideDriver().recoveryLatency();
    if (rec.samples() > 0) {
        r.recoveryP50Us = ticksToNs(rec.quantile(0.50)) / 1e3;
        r.recoveryP99Us = ticksToNs(rec.quantile(0.99)) / 1e3;
    }
    const stats::Histogram *lat =
        sim.statsRegistry().histogram("system.disk.dma.e2eLatency");
    if (lat != nullptr && lat->samples() > 0) {
        r.dd.latP50Ns = ticksToNs(lat->quantile(0.50));
        r.dd.latP95Ns = ticksToNs(lat->quantile(0.95));
        r.dd.latP99Ns = ticksToNs(lat->quantile(0.99));
    }
    return r;
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
                                    ? (32ULL << 20)
                                    : (8ULL << 20);
    JsonEmitter json("resilience", args.json);

    // Fault-free reference for "goodput retained".
    SystemConfig base;
    applyObservability(args, base);
    ResilienceResult ref = runResilientDd(base, block);

    //
    // Part 1: BER x degradation threshold.
    //
    std::vector<double> bers = args.scale == Scale::Smoke
                                   ? std::vector<double>{1e-5}
                                   : std::vector<double>{1e-7, 1e-6,
                                                         1e-5};
    std::vector<unsigned> thresholds =
        args.scale == Scale::Smoke ? std::vector<unsigned>{0, 8}
                                   : std::vector<unsigned>{0, 4, 16};

    if (!args.json) {
        std::printf("=== Resilience part 1: degradation ladder, %s "
                    "block (fault-free: %.3f Gbps) ===\n",
                    blockLabel(block).c_str(), ref.dd.gbps);
        std::printf("%-8s %-7s %10s %9s %8s %8s %8s %10s\n", "BER",
                    "thresh", "gbps", "retained", "degrade", "upconf",
                    "retrain", "p99_ns");
    }
    for (double ber : bers) {
        for (unsigned thresh : thresholds) {
            SystemConfig cfg;
            cfg.linkBitErrorRate = ber;
            cfg.faultSeed = 1;
            cfg.completionTimeout = milliseconds(1);
            cfg.degradeThreshold = thresh;
            cfg.degradeWindow = microseconds(100);
            cfg.upconfigureDelay = milliseconds(1);
            applyObservability(args, cfg);
            ResilienceResult r = runResilientDd(cfg, block);
            double retained =
                ref.dd.gbps > 0.0 ? r.dd.gbps / ref.dd.gbps : 0.0;
            if (!args.json) {
                std::printf(
                    "%-8s %-7u %10.3f %8.1f%% %8llu %8llu %8llu "
                    "%10.0f\n",
                    berLabel(ber).c_str(), thresh, r.dd.gbps,
                    retained * 100.0,
                    static_cast<unsigned long long>(
                        r.links.degradations),
                    static_cast<unsigned long long>(
                        r.links.upconfigures),
                    static_cast<unsigned long long>(
                        r.links.retrains),
                    r.dd.latP99Ns);
            }
            json.record(
                "degrade/ber" + berLabel(ber) + "/thresh" +
                    std::to_string(thresh),
                {{"gbps", r.dd.gbps},
                 {"goodput_retained", retained},
                 {"degradations",
                  static_cast<double>(r.links.degradations)},
                 {"upconfigures",
                  static_cast<double>(r.links.upconfigures)},
                 {"retrains", static_cast<double>(r.links.retrains)},
                 {"crcErrorsTlp",
                  static_cast<double>(r.links.crcErrorsTlp)},
                 {"lat_p50_ns", r.dd.latP50Ns},
                 {"lat_p99_ns", r.dd.latP99Ns},
                 {"wall_ms", r.dd.wall_ms},
                 {"events_per_sec", r.dd.events_per_sec}});
        }
    }

    //
    // Part 2: surprise hot-unplug at the Nth chunk.
    //
    std::vector<std::uint64_t> ordinals =
        args.scale == Scale::Smoke
            ? std::vector<std::uint64_t>{8}
            : std::vector<std::uint64_t>{1, 64, 512};

    if (!args.json) {
        std::printf("\n=== Resilience part 2: surprise hot-unplug "
                    "mid-DMA, %s block ===\n",
                    blockLabel(block).c_str());
        std::printf("%-8s %10s %9s %8s %8s %8s %10s %10s\n", "chunk",
                    "gbps", "retained", "recover", "lost", "flr",
                    "recP50us", "recP99us");
    }
    for (std::uint64_t ordinal : ordinals) {
        SystemConfig cfg;
        cfg.aerEnabled = true;
        cfg.unplugAtChunk = ordinal;
        applyObservability(args, cfg);
        ResilienceResult r = runResilientDd(cfg, block);
        double retained =
            ref.dd.gbps > 0.0 ? r.dd.gbps / ref.dd.gbps : 0.0;
        if (!args.json) {
            std::printf(
                "%-8llu %10.3f %8.1f%% %8llu %8llu %8llu %10.1f "
                "%10.1f\n",
                static_cast<unsigned long long>(ordinal), r.dd.gbps,
                retained * 100.0,
                static_cast<unsigned long long>(r.recoveries),
                static_cast<unsigned long long>(r.lostRequests),
                static_cast<unsigned long long>(r.functionResets),
                r.recoveryP50Us, r.recoveryP99Us);
        }
        json.record(
            "unplug/chunk" + std::to_string(ordinal),
            {{"gbps", r.dd.gbps},
             {"goodput_retained", retained},
             {"unplugs", static_cast<double>(r.unplugs)},
             {"recoveries", static_cast<double>(r.recoveries)},
             {"lost_requests", static_cast<double>(r.lostRequests)},
             {"function_resets",
              static_cast<double>(r.functionResets)},
             {"fatal_msgs", static_cast<double>(r.fatalMsgs)},
             {"recovery_p50_us", r.recoveryP50Us},
             {"recovery_p99_us", r.recoveryP99Us},
             {"wall_ms", r.dd.wall_ms},
             {"events_per_sec", r.dd.events_per_sec}});
    }
    if (!args.json) {
        std::printf("expected shape: with a threshold the ladder "
                    "trades peak bandwidth for a calmer link (fewer "
                    "LCRC errors and NAK storms per byte) and "
                    "bounds the livelock risk at extreme BER; every "
                    "unplug row shows recoveries > 0 and retained "
                    "goodput > 0\n");
    }
    return 0;
}
