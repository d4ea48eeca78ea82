/**
 * @file
 * Golden-stats regression suite: canonical scenarios (the Table II
 * MMIO shape, the Fig. 9a dd shape on the PCIe fabric and on the
 * legacy IOBus baseline, a generated switch tree, and seeded fault
 * and unplug runs) dump
 * their full statistics registry and diff it against blessed files
 * in tests/golden/. Any behavioural drift — a latency change, an
 * extra replay, a reordered DLLP — shows up as a one-line diff.
 *
 * Re-bless after an intentional change with scripts/regen_golden.sh
 * (or PCIESIM_REGEN_GOLDEN=1 ctest -R golden_stats_test).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

std::string
goldenDir()
{
#ifdef PCIESIM_GOLDEN_DIR
    return PCIESIM_GOLDEN_DIR;
#else
    return "tests/golden";
#endif
}

bool
regenMode()
{
    const char *env = std::getenv("PCIESIM_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** First line where @p a and @p b differ, for a readable failure. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        ++line;
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "(identical?)";
        if (!ga || !gb || la != lb) {
            std::ostringstream os;
            os << "line " << line << ":\n  golden: "
               << (ga ? la : "<eof>") << "\n  actual: "
               << (gb ? lb : "<eof>");
            return os.str();
        }
    }
}

void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenDir() + "/" + name + ".txt";
    if (regenMode()) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — bless it with scripts/regen_golden.sh";
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected = ss.str();
    EXPECT_EQ(expected, actual)
        << "stats drifted from " << path << "\nfirst diff at "
        << firstDiff(expected, actual)
        << "\nIf the change is intentional, re-bless with "
        << "scripts/regen_golden.sh";
}

std::string
formatDouble(const char *label, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "# %s: %.6f\n", label, v);
    return buf;
}

} // namespace

TEST(GoldenStats, Fig9aDdShape)
{
    // The Fig. 9a topology: default Gen2 fabric, 1 MiB dd.
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json"));
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    double gbps = system.runDd(dd);

    std::ostringstream os;
    os << "# scenario: fig9a dd 1 MiB, default Gen2 topology\n";
    os << formatDouble("goodput_gbps", gbps);
    sim.statsRegistry().dump(os);
    checkGolden("fig9a_dd_1mb", os.str());
}

TEST(GoldenStats, Table2MmioShape)
{
    // The Table II midpoint: NIC on a root port, rcLatency 100 ns.
    Simulation sim;
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/nic_loopback.json");
    desc.config.rcLatency = nanoseconds(100);
    Fabric system(sim, desc);
    Tick t = system.measureMmioReadLatency(32);

    std::ostringstream os;
    os << "# scenario: table2 MMIO read, rcLatency=100ns, 32 iters\n";
    os << formatDouble("mmio_read_ns", ticksToNs(t));
    sim.statsRegistry().dump(os);
    checkGolden("table2_mmio_rc100", os.str());
}

TEST(GoldenStats, SeededFaultShape)
{
    // A seeded bit-error run locks the whole recovery pipeline:
    // LCRC drops, NAKs, replays, and their latency footprint.
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config.linkBitErrorRate = 1e-6;
    desc.config.faultSeed = 7;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 256 * 1024;
    double gbps = system.runDd(dd);

    std::ostringstream os;
    os << "# scenario: seeded faults, BER 1e-6 seed 7, dd 256 KiB\n";
    os << formatDouble("goodput_gbps", gbps);
    os << formatDouble("replay_fraction",
                       system.diskUplinkReplayFraction());
    sim.statsRegistry().dump(os);
    checkGolden("faults_ber1e6_seed7", os.str());
}

TEST(GoldenStats, UnplugAndRecoverShape)
{
    // The DESIGN.md §12 containment pipeline end to end: the disk
    // vanishes at the 8th DMA chunk, ERR_FATAL rides AER to the
    // root, the switch contains the port, the kernel FLRs the
    // returned function, and the driver re-issues the lost command.
    // Locks the AER/containment/recovery counters and the recovery
    // latency footprint.
    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config.aerEnabled = true;
    desc.config.unplugAtChunk = 8;
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    double gbps = system.runDd(dd);

    std::ostringstream os;
    os << "# scenario: surprise unplug at chunk 8, AER recovery, "
          "dd 1 MiB\n";
    os << formatDouble("goodput_gbps", gbps);
    sim.statsRegistry().dump(os);
    checkGolden("unplug_recover_chunk8", os.str());
}

TEST(GoldenStats, BaselineDdShape)
{
    // The Sec. VI-A baseline: the same 1 MiB dd with the disk on
    // the flat IOBus (legacy-io style, no PCIe links).
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/baseline.json"));
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    double gbps = system.runDd(dd);

    std::ostringstream os;
    os << "# scenario: baseline dd 1 MiB, legacy-io IOBus topology\n";
    os << formatDouble("goodput_gbps", gbps);
    sim.statsRegistry().dump(os);
    checkGolden("baseline_dd_1mb", os.str());
}

TEST(GoldenStats, Tree3DirectWriteShape)
{
    // A generated tree: switches under a switch, count expansion,
    // and per-link gen/width overrides (x8 Gen3 root link, x4
    // switch links, x1 Gen2 endpoint links), driven by direct DMA
    // writes after enumeration.
    Simulation sim;
    Fabric system(sim,
                  loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/tree3.json"));
    system.boot();
    double gbps = system.runDirectWrites(4, 4096);

    std::ostringstream os;
    os << "# scenario: tree3 direct writes, 4 x 4 KiB per generator\n";
    os << formatDouble("goodput_gbps", gbps);
    sim.statsRegistry().dump(os);
    checkGolden("tree3_direct_writes", os.str());
}
