/**
 * @file
 * Parallel determinism tests: one execution semantics (DESIGN.md
 * Sec. 10). The thread count changes only wall time, so a fabric
 * run on one event queue (--threads 0), on the one-worker engine
 * (--threads 1) and on four workers must reach the same final tick
 * and the same value for every statistic outside the engine's own
 * "system.parallel.*" block. Event order is a pure function of
 * simulated history, never of the partition or of how the OS
 * interleaved the workers.
 *
 * The gate covers every example topology with its bench_fabric
 * --topology workload, an eight-generator multi-device fabric, a
 * four-NIC fabric on two Ethernet wires, and the error path: link
 * bit errors with NAK recovery, retrains and degradation, AER and
 * surprise hot-unplug, each on a fabric with two device domains,
 * where every effect one domain has on another travels as a keyed
 * message. Fabrics whose device work sits in one domain run on one
 * queue at every thread count (DESIGN.md Sec. 10), so the
 * multi-endpoint cases are the ones that run the engine. Between
 * one worker and four, even the
 * engine block must match, which the original 1-vs-4 case still
 * asserts. The
 * bench-level tier-2 gates check the same property over full JSON
 * exports; this in-process version runs in the tier-1 suite and
 * points at the first divergent stats line when it breaks.
 */

#include <gtest/gtest.h>

#include <functional>
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
    Tick endTick = 0;
    bool partitioned = false;
    std::string stats;
    /** @{ Evidence the error path ran: link counters summed over
     *  every link, AER messages delivered, disk unplugs. */
    LinkErrorStats links;
    std::uint64_t aerDelivered = 0;
    std::uint64_t unplugs = 0;
    /** @} */
};

/** Fill @p r's error-path evidence from @p fabric. */
void
noteErrorPath(RunResult &r, Fabric &fabric)
{
    for (PcieLink *l : fabric.links())
        r.links += l->errorStats();
    if (ErrReporter *rep = fabric.errReporter()) {
        for (ErrSeverity sev : {ErrSeverity::Correctable,
                                ErrSeverity::NonFatal,
                                ErrSeverity::Fatal})
            r.aerDelivered += rep->delivered(sev);
    }
    for (unsigned i = 0; i < fabric.numDisks(); ++i)
        r.unplugs += fabric.disk(i).unplugs();
}

/** The registry dump of @p sim, with or without the engine's own
 *  "system.parallel.*" lines (present only when partitioned). */
std::string
dumpStats(Simulation &sim, bool with_engine)
{
    std::ostringstream os;
    sim.statsRegistry().dump(os);
    if (with_engine)
        return os.str();
    std::istringstream in(os.str());
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.rfind("system.parallel.", 0) != 0)
            kept += line + "\n";
    }
    return kept;
}

/** multi_device.json widened to eight generators. The config keeps
 *  every link fault-free so the fabric actually partitions (one
 *  domain per link hop). */
FabricDesc
mdev8Desc()
{
    const std::string text = R"({"nodes": [
        {"name": "switch", "kind": "switch", "ports": 8,
         "link": {"name": "upLink"}},
        {"name": "tgen", "kind": "traffic_gen", "count": 8,
         "parent": "switch",
         "link": {"name": "devLink", "width": 1}}]})";
    FabricDesc desc =
        parseFabricDesc(topo::parseJson(text, "<mdev8>"), "<mdev8>");
    desc.config.upstreamLinkWidth = 16;
    desc.config.linkPropagation = 500_ns;
    desc.config.replayTimeoutScale = 100.0;
    desc.config.ackImmediate = true;
    desc.config.replayBufferSize = 32;
    desc.config.portBufferSize = 64;
    return desc;
}

/** One seeded mdev8 run at the given worker count. */
RunResult
threadedRun(unsigned threads, bool with_engine = true)
{
    FabricDesc desc = mdev8Desc();
    desc.config.threads = threads;
    Simulation sim;
    Fabric system(sim, desc);
    RunResult r;
    r.gbps = system.runConcurrentWrites(8, 4, 4096);
    r.endTick = sim.curTick();
    r.partitioned = system.partitioned();
    r.stats = dumpStats(sim, with_engine);
    return r;
}

/** One run of examples/topologies/@p file with bench_fabric
 *  --topology's workload: direct DMA writes when the fabric has
 *  traffic generators, a 1 MiB dd when it has a disk, a bare boot
 *  otherwise. @p tweak edits the configuration first. */
RunResult
topologyRun(const std::string &file, unsigned threads,
            const std::function<void(SystemConfig &)> &tweak = {})
{
    FabricDesc desc =
        loadFabricDesc(std::string(PCIESIM_TOPOLOGY_DIR) + "/" + file);
    if (tweak)
        tweak(desc.config);
    desc.config.threads = threads;
    Simulation sim;
    Fabric fabric(sim, desc);
    RunResult r;
    if (desc.enumerate && fabric.numNics() == 0)
        fabric.boot();
    if (fabric.numTrafficGens() > 0) {
        r.gbps = fabric.runDirectWrites(8, 16384);
    } else if (fabric.numDisks() > 0) {
        DdWorkloadParams dd;
        dd.blockBytes = 1 << 20;
        r.gbps = fabric.runDd(dd);
    } else {
        fabric.boot();
    }
    r.endTick = sim.curTick();
    r.partitioned = fabric.partitioned();
    r.stats = dumpStats(sim, false);
    noteErrorPath(r, fabric);
    return r;
}

/**
 * storage.json with a second device of @p kind ("traffic_gen" or
 * "ide_disk") on the switch's second port, so the fabric has two
 * device domains, under configuration @p cfg; a 1 MiB dd through
 * the first disk.
 */
RunResult
storagePlusRun(const std::string &kind, SystemConfig cfg,
               unsigned threads)
{
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    FabricNodeDesc second = desc.nodes.back();
    second.name = kind == "ide_disk" ? "disk2" : "tgen";
    second.kind = kind;
    second.link.name = second.name + "Link";
    desc.nodes.push_back(second);
    cfg.threads = threads;
    desc.config = cfg;
    Simulation sim;
    Fabric fabric(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 1 << 20;
    RunResult r;
    r.gbps = fabric.runDd(dd);
    r.endTick = sim.curTick();
    r.partitioned = fabric.partitioned();
    r.stats = dumpStats(sim, false);
    noteErrorPath(r, fabric);
    return r;
}

/** Four NICs, two per Ethernet wire: two device domains, so the
 *  fabric runs under the engine at t1 and t4. wireA's NICs signal
 *  with MSI (in-band message TLPs through the fabric), wireB's with
 *  INTx (a cross-domain callAt into the host domain). */
FabricDesc
twoWireNicDesc()
{
    const std::string text = R"({"nodes": [
        {"name": "nicA", "kind": "nic", "count": 2, "wire": "wireA",
         "allow_msi": true, "link": {"name": "nicLinkA", "width": 1}},
        {"name": "nicB", "kind": "nic", "count": 2, "wire": "wireB",
         "link": {"name": "nicLinkB", "width": 1}}]})";
    FabricDesc desc = parseFabricDesc(
        topo::parseJson(text, "<two_wire_nic>"), "<two_wire_nic>");
    desc.nicDriver.preferMsi = true;
    return desc;
}

/** One two-wire NIC run: every NIC sends a frame to its wire peer. */
RunResult
twoWireNicRun(unsigned threads)
{
    FabricDesc desc = twoWireNicDesc();
    desc.config.threads = threads;
    Simulation sim;
    Fabric fabric(sim, desc);
    fabric.boot();
    unsigned received = 0;
    unsigned sent = 0;
    for (unsigned i = 0; i < fabric.numNics(); ++i) {
        fabric.nicDriver(i).setOnReceive([&](unsigned) { ++received; });
        fabric.nicDriver(i).sendFrame(512 + 64 * i, [&] { ++sent; });
    }
    sim.run();
    EXPECT_EQ(sent, 4u);
    EXPECT_EQ(received, 4u);
    EXPECT_TRUE(fabric.nicDriver(0).usingMsi());
    EXPECT_TRUE(fabric.nicDriver(2).usingLegacyIrq());
    EXPECT_GE(fabric.gic().msisReceived(), 2u);
    RunResult r;
    r.endTick = sim.curTick();
    r.partitioned = fabric.partitioned();
    r.stats = dumpStats(sim, false);
    return r;
}

/** First-divergent-line comparison (EXPECT_EQ's diff is quadratic
 *  on dumps this size). */
void
expectIdentical(const std::string &a, const std::string &b,
                const char *label_a, const char *label_b)
{
    if (a == b)
        return;
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned line = 0;
    while (true) {
        ++line;
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga || !gb || la != lb) {
            ADD_FAILURE()
                << "stats diverged between " << label_a << " and "
                << label_b << " at line " << line << ":\n  "
                << label_a << ": " << (ga ? la : "<eof>") << "\n  "
                << label_b << ": " << (gb ? lb : "<eof>");
            return;
        }
    }
}

/** The t0/t1/t4 gate over three runs of one workload. */
void
expectOneSemantics(const RunResult &t0, const RunResult &t1,
                   const RunResult &t4)
{
    EXPECT_EQ(t0.endTick, t1.endTick);
    EXPECT_EQ(t1.endTick, t4.endTick);
    EXPECT_EQ(t0.gbps, t1.gbps);
    EXPECT_EQ(t1.gbps, t4.gbps);
    expectIdentical(t0.stats, t1.stats, "t0", "t1");
    expectIdentical(t1.stats, t4.stats, "t1", "t4");
}

/** The gate for an error-path workload @p run: one queue at t0, an
 *  engine at t1 and t4, one history. Returns the t0 run. */
RunResult
expectEngineMatchesSingleQueue(
    const std::function<RunResult(unsigned)> &run)
{
    setInformEnabled(false);
    RunResult t0 = run(0);
    RunResult t1 = run(1);
    RunResult t4 = run(4);
    EXPECT_FALSE(t0.partitioned);
    EXPECT_TRUE(t1.partitioned);
    EXPECT_TRUE(t4.partitioned);
    EXPECT_GT(t0.gbps, 0.0);
    expectOneSemantics(t0, t1, t4);
    return t0;
}

} // namespace

TEST(ParallelDeterminism, OneVsFourThreadsBitIdentical)
{
    RunResult one = threadedRun(1);
    RunResult four = threadedRun(4);

    // The run did something nontrivial on every device link.
    EXPECT_GT(one.gbps, 0.0);
    EXPECT_NE(one.stats.find("system.devLink7"), std::string::npos);

    EXPECT_EQ(one.endTick, four.endTick);
    EXPECT_EQ(one.gbps, four.gbps);
    expectIdentical(one.stats, four.stats, "1t", "4t");
}

TEST(ParallelDeterminism, Mdev8SingleQueueMatchesEngine)
{
    RunResult t0 = threadedRun(0, false);
    RunResult t1 = threadedRun(1, false);
    RunResult t4 = threadedRun(4, false);
    EXPECT_FALSE(t0.partitioned);
    EXPECT_TRUE(t1.partitioned);
    expectOneSemantics(t0, t1, t4);
}

class TopologyDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(TopologyDeterminism, SingleQueueMatchesEngine)
{
    const std::string file = GetParam();
    RunResult t0 = topologyRun(file, 0);
    RunResult t1 = topologyRun(file, 1);
    RunResult t4 = topologyRun(file, 4);

    // Only the fabrics with two or more device domains are cut
    // into domains; the rest run on one queue at every count.
    const bool multi_domain = file == "multi_device.json" ||
                              file == "tree3.json" ||
                              file == "faulty_multi_device.json";
    EXPECT_FALSE(t0.partitioned);
    EXPECT_EQ(t1.partitioned, multi_domain);
    EXPECT_EQ(t4.partitioned, multi_domain);
    EXPECT_GT(t0.endTick, 0u);
    expectOneSemantics(t0, t1, t4);
}

TEST(ParallelDeterminism, TwoWireNicSingleQueueMatchesEngine)
{
    RunResult t0 = twoWireNicRun(0);
    RunResult t1 = twoWireNicRun(1);
    RunResult t4 = twoWireNicRun(4);
    EXPECT_FALSE(t0.partitioned);
    EXPECT_TRUE(t1.partitioned);
    EXPECT_TRUE(t4.partitioned);
    expectOneSemantics(t0, t1, t4);
}

TEST(ParallelDeterminism, BitErrorsMatchSingleQueue)
{
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-6;
    cfg.faultSeed = 7;
    RunResult t0 = expectEngineMatchesSingleQueue([&](unsigned t) {
        return storagePlusRun("traffic_gen", cfg, t);
    });
    EXPECT_GT(t0.links.crcErrorsTlp + t0.links.crcErrorsDllp, 0u);
}

TEST(ParallelDeterminism, AerUnplugMatchesSingleQueue)
{
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8;
    RunResult t0 = expectEngineMatchesSingleQueue([&](unsigned t) {
        return storagePlusRun("traffic_gen", cfg, t);
    });
    EXPECT_EQ(t0.unplugs, 1u);
    EXPECT_GE(t0.aerDelivered, 1u);
}

TEST(ParallelDeterminism, DegradationMatchesSingleQueue)
{
    SystemConfig cfg;
    cfg.linkBitErrorRate = 1e-5;
    cfg.faultSeed = 3;
    cfg.degradeThreshold = 4;
    RunResult t0 = expectEngineMatchesSingleQueue([&](unsigned t) {
        return storagePlusRun("traffic_gen", cfg, t);
    });
    EXPECT_GT(t0.links.degradations, 0u);
    EXPECT_GT(t0.links.retrains, 0u);
}

TEST(ParallelDeterminism, MultiDeviceBerNakAerMatchesSingleQueue)
{
    // An AER message takes at least its detector's lookahead to the
    // root, so even a zero configured latency keeps the contract.
    for (Tick aer_latency : {SystemConfig{}.aerMsgLatency, Tick{0}}) {
        RunResult t0 = expectEngineMatchesSingleQueue([&](unsigned t) {
            return topologyRun("multi_device.json", t,
                               [&](SystemConfig &c) {
                                   c.linkBitErrorRate = 1e-6;
                                   c.enableNak = true;
                                   c.aerEnabled = true;
                                   c.aerMsgLatency = aer_latency;
                               });
        });
        EXPECT_GT(t0.links.crcErrorsTlp + t0.links.crcErrorsDllp, 0u);
        EXPECT_GT(t0.aerDelivered, 0u);
    }
}

TEST(ParallelDeterminism, TwoDiskAerUnplugMatchesSingleQueue)
{
    SystemConfig cfg;
    cfg.aerEnabled = true;
    cfg.unplugAtChunk = 8;
    RunResult t0 = expectEngineMatchesSingleQueue([&](unsigned t) {
        return storagePlusRun("ide_disk", cfg, t);
    });
    EXPECT_EQ(t0.unplugs, 1u);
    EXPECT_GE(t0.aerDelivered, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ExampleTopologies, TopologyDeterminism,
    ::testing::Values("storage.json", "baseline.json", "nic.json",
                      "nic_loopback.json", "multi_device.json",
                      "tree3.json", "faulty_multi_device.json"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        const std::string file = info.param;
        return file.substr(0, file.find('.'));
    });
