/**
 * @file
 * End-to-end error containment and recovery (DESIGN.md §12): a
 * surprise hot-unplug mid-DMA is reported through AER, contained at
 * the switch, and recovered by the kernel + driver so dd still
 * completes; link degradation steps the operating point down under
 * sustained errors; and every seeded fault run stays bit-identical
 * from the seed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

struct RunResult
{
    double gbps = 0.0;
    std::string statsDump;
};

RunResult
runOnce(const SystemConfig &cfg, std::uint64_t block_bytes,
        const std::function<void(Fabric &)> &check = nullptr)
{
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = cfg;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = block_bytes;

    RunResult r;
    r.gbps = system.runDd(dd);
    if (check)
        check(system);
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    r.statsDump = os.str();
    return r;
}

} // namespace

TEST(ResilienceTest, SurpriseUnplugRecoversAndDdCompletes)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8; // mid-transfer: a 1 MB dd has 256 chunks

    RunResult r = runOnce(cfg, 1 << 20, [](Fabric &sys) {
        // The scripted fault fired exactly once, mid-DMA.
        EXPECT_EQ(sys.disk().unplugs(), 1u);
        EXPECT_FALSE(sys.disk().unplugged()); // re-seated
        // It was reported as ERR_FATAL and serviced by the kernel.
        ASSERT_NE(sys.errReporter(), nullptr);
        ASSERT_NE(sys.aerHandler(), nullptr);
        EXPECT_GE(sys.errReporter()->delivered(ErrSeverity::Fatal),
                  1u);
        EXPECT_GE(sys.aerHandler()->irqsServiced(), 1u);
        EXPECT_GE(sys.aerHandler()->errorsSeen(ErrSeverity::Fatal),
                  1u);
        EXPECT_GE(sys.aerHandler()->functionResets(), 1u);
        // The driver lost its in-flight command and re-issued it.
        EXPECT_GE(sys.ideDriver().lostRequests(), 1u);
        EXPECT_GE(sys.ideDriver().recoveries(), 1u);
        // Containment was released: the port passes traffic again.
        EXPECT_FALSE(sys.pcieSwitch().portContained(0));
        // The kernel serviced (W1C-cleared) the root error status.
        EXPECT_EQ(sys.rootComplex().downstreamVp2p(0).aer().rootErrStatus(),
                  0u);
    });

    // Forward progress: the workload completed despite the unplug.
    EXPECT_GT(r.gbps, 0.0);
}

TEST(ResilienceTest, KernelConfigCyclesTakeThePathBothWays)
{
    // The AER service reaches the vanished disk's config space only
    // through transactions that run on the disk's own domain: each
    // takes the disk's lookahead to the root down and again back.
    // From the drivers' teardown to their resume the recovery makes
    // five presence polls (the last one answered) and the FLR.
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8;
    runOnce(cfg, 1 << 20, [](Fabric &sys) {
        const Tick path = sys.findLink("upLink")->lookahead() +
                          sys.findLink("downLink")->lookahead();
        const AerHandlerParams ahp;
        const auto &lat = sys.ideDriver().recoveryLatency();
        ASSERT_EQ(lat.samples(), 1u);
        EXPECT_EQ(static_cast<Tick>(lat.max()),
                  ahp.resetDelay + 4 * ahp.pollDelay + 6 * 2 * path);
        EXPECT_EQ(sys.aerHandler()->functionResets(), 1u);
    });
}

TEST(ResilienceTest, TwoDiskAerFabricNamesEachDriversStats)
{
    // storage.json plus a second disk with AER: each driver
    // registers its own recovery stats. The first keeps the
    // historical system.ideDriver.* names, so single-disk dumps and
    // goldens are unchanged.
    setInformEnabled(false);
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    FabricNodeDesc disk2 = desc.nodes.back();
    disk2.name = "disk2";
    disk2.link.name = "disk2Link";
    desc.nodes.push_back(disk2);
    desc.config.aerEnabled = true;
    desc.config.unplugAtChunk = 8;
    Simulation sim;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    EXPECT_GT(system.runDd(dd), 0.0);

    ASSERT_EQ(system.numDisks(), 2u);
    EXPECT_EQ(system.disk(0).unplugs(), 1u);
    EXPECT_GE(system.ideDriver(0).recoveries(), 1u);
    EXPECT_EQ(system.ideDriver(1).recoveries(), 0u);
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("system.ideDriver.recoveries "),
              std::string::npos);
    EXPECT_NE(dump.find("system.ideDriver1.recoveries "),
              std::string::npos);
}

TEST(ResilienceTest, UnplugRunIsBitReproducible)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8;

    RunResult a = runOnce(cfg, 1 << 20);
    RunResult b = runOnce(cfg, 1 << 20);
    EXPECT_EQ(a.gbps, b.gbps);
    EXPECT_EQ(a.statsDump, b.statsDump);
}

TEST(ResilienceTest, QuiescentAerLeavesStatsDumpIdentical)
{
    // AER wiring present but no errors: the stats dump must be
    // byte-identical to a run without AER, the property that keeps
    // the golden files valid (ISSUE 8 acceptance).
    setInformEnabled(false);
    SystemConfig plain;
    RunResult base = runOnce(plain, 1 << 20);

    SystemConfig aer;
    aer.aerEnabled = true;
    RunResult quiet = runOnce(aer, 1 << 20, [](Fabric &sys) {
        EXPECT_EQ(sys.errReporter()->delivered(
                      ErrSeverity::Correctable), 0u);
        EXPECT_EQ(sys.errReporter()->delivered(ErrSeverity::Fatal),
                  0u);
        EXPECT_EQ(sys.aerHandler()->irqsServiced(), 0u);
    });

    EXPECT_EQ(base.gbps, quiet.gbps);
    // AER-only objects register their own stats blocks; everything
    // shared must match line for line. Filter the AER-only names.
    std::istringstream qs(quiet.statsDump);
    std::string filtered, line;
    while (std::getline(qs, line)) {
        if (line.find("system.errReporter") != std::string::npos ||
            line.find("system.aerHandler") != std::string::npos ||
            line.find("system.ideDriver") != std::string::npos ||
            line.find(".containments") != std::string::npos ||
            line.find(".containedDrops") != std::string::npos ||
            line.find(".urCompletions") != std::string::npos) {
            continue;
        }
        filtered += line + '\n';
    }
    EXPECT_EQ(base.statsDump, filtered);
}

TEST(ResilienceTest, SustainedErrorsDegradeTheLink)
{
    // A lossy link above the degradation threshold steps its
    // operating point down (Gen first) instead of livelocking in
    // replay; dd still completes at reduced rate.
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.faultSeed = 7;
    cfg.degradeThreshold = 4;
    cfg.degradeWindow = 100_us;
    cfg.upconfigureDelay = 1_s; // stay degraded through the run

    RunResult r = runOnce(cfg, 1 << 20, [](Fabric &sys) {
        std::uint64_t degradations = 0;
        std::uint64_t upconfigures = 0;
        for (PcieLink *link : sys.links()) {
            degradations += link->errorStats().degradations;
            upconfigures += link->errorStats().upconfigures;
            // The run drains the upconfigure timers before ending,
            // so every ladder step down was eventually undone.
            EXPECT_FALSE(link->degraded());
        }
        EXPECT_GE(degradations, 1u);
        EXPECT_GE(upconfigures, 1u);
    });
    EXPECT_GT(r.gbps, 0.0);
}

TEST(ResilienceTest, DegradedLinkUpconfiguresAfterBackoff)
{
    // With a short back-off the link returns toward its configured
    // operating point once the error burst passes.
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-6; // sparse: bursts, then quiet
    cfg.faultSeed = 11;
    cfg.degradeThreshold = 2;
    cfg.degradeWindow = 50_us;
    cfg.upconfigureDelay = 20_us;

    runOnce(cfg, 1 << 20, [](Fabric &sys) {
        std::uint64_t degradations = 0;
        std::uint64_t upconfigures = 0;
        for (PcieLink *link : sys.links()) {
            degradations += link->errorStats().degradations;
            upconfigures += link->errorStats().upconfigures;
        }
        EXPECT_GE(degradations, 1u);
        EXPECT_GE(upconfigures, 1u);
    });
}

TEST(ResilienceTest, DegradationRunIsBitReproducible)
{
    setInformEnabled(false);
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.faultSeed = 7;
    cfg.degradeThreshold = 4;
    cfg.aerEnabled = true;

    RunResult a = runOnce(cfg, 1 << 20);
    RunResult b = runOnce(cfg, 1 << 20);
    EXPECT_EQ(a.statsDump, b.statsDump);
}
