/**
 * @file
 * Benchmark runner: loads one topology JSON, then repeatedly sets
 * the fabric up (parse, build, boot), runs its workload (dd when the
 * fabric has a disk, direct posted writes when it has traffic
 * generators), checks the simulated outputs, and prints one JSON
 * object on stdout with every timed iteration's wall times and the
 * median of its per-layer measurements. run.py turns those samples
 * into the benchmark's metrics.
 *
 *   pciesim_perf --topology F --work-dir D --seconds S
 *                [--warmup S] [--min-iters N]
 *                [--dd-bytes N] [--bursts N --burst-bytes N]
 *                [--trace]
 *
 * --trace turns the host profiler on around each workload call and
 * charges every profiled event to a layer by the type of the object
 * that fired it, found through Fabric's accessors. It also measures
 * per-layer unit costs by direct calls into the event queue, the
 * packet pool and one PCIe link.
 *
 * Exit status is 0 whenever a record was printed; failed checks are
 * listed in the record's "failures" array.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "dev/dma_engine.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "pcie/pcie_link.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of five measurements of @p f. */
template <typename F>
double
median5(F f)
{
    std::vector<double> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(f());
    return median(v);
}

struct Args
{
    std::string topology;
    std::string workDir = ".";
    double seconds = 5.0;
    double warmup = 2.0;
    unsigned minIters = 3;
    std::uint64_t ddBytes = 1 << 20;
    std::uint32_t bursts = 2;
    std::uint32_t burstBytes = 4096;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto next = [&]() -> std::string {
            fatalIf(i + 1 >= argc, "missing value for ", k);
            return argv[++i];
        };
        if (k == "--topology")
            a.topology = next();
        else if (k == "--work-dir")
            a.workDir = next();
        else if (k == "--seconds")
            a.seconds = std::stod(next());
        else if (k == "--warmup")
            a.warmup = std::stod(next());
        else if (k == "--min-iters")
            a.minIters = static_cast<unsigned>(std::stoul(next()));
        else if (k == "--dd-bytes")
            a.ddBytes = std::stoull(next());
        else if (k == "--bursts")
            a.bursts = static_cast<std::uint32_t>(std::stoul(next()));
        else if (k == "--burst-bytes")
            a.burstBytes =
                static_cast<std::uint32_t>(std::stoul(next()));
        else if (k == "--trace")
            a.trace = true;
        else
            fatal("unknown argument '", k, "'");
    }
    fatalIf(a.topology.empty(), "--topology is required");
    return a;
}

/** FNV-1a 64 over a file's bytes, as 16 hex digits. */
std::string
fileDigest(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot read '", path, "'");
    std::uint64_t h = 0xcbf29ce484222325ULL;
    char c;
    while (is.get(c)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Host layer of every object Fabric exposes, keyed by name. */
class LayerMap
{
  public:
    explicit LayerMap(Fabric &f)
    {
        for (PcieLink *l : f.links())
            add(*l, "pcie.link");
        for (unsigned i = 0; i < f.numSwitches(); ++i)
            add(f.pcieSwitch(i), "pcie.switch");
        add(f.rootComplex(), "pcie.rc");
        if (ErrReporter *r = f.errReporter())
            add(*r, "pcie.rc");
        for (unsigned i = 0; i < f.numDisks(); ++i)
            add(f.disk(i), "dev");
        for (unsigned i = 0; i < f.numTrafficGens(); ++i)
            add(f.trafficGen(i), "dev");
        for (unsigned i = 0; i < f.numNics(); ++i)
            add(f.nic(i), "dev");
        add(f.gic(), "dev");
        add(f.kernel(), "os");
        add(f.dram(), "mem");
        add(f.ioCache(), "mem");
        add(f.pciHost(), "pci");
        // The memory bus has no accessor; its ports are the peers of
        // the ports of the objects it connects.
        addPort(f.dram().port().peer(), "mem");
        addPort(f.ioCache().masterPort().peer(), "mem");
        addPort(f.kernel().cpuPort().peer(), "mem");
        addPort(f.rootComplex().upstreamSlavePort().peer(), "mem");
    }

    /** Layer of the object whose name is the longest prefix of
     *  @p event, or "". */
    std::string
    layerOf(const std::string &event) const
    {
        std::string probe = event;
        while (true) {
            auto it = byName_.find(probe);
            if (it != byName_.end())
                return it->second;
            auto dot = probe.rfind('.');
            if (dot == std::string::npos)
                return "";
            probe.resize(dot);
        }
    }

  private:
    void
    add(const SimObject &obj, const char *layer)
    {
        byName_[obj.name()] = layer;
    }

    void
    addPort(const Port &port, const char *layer)
    {
        byName_[port.name()] = layer;
    }

    std::map<std::string, std::string> byName_;
};

/** Layers whose profiled self time is reported. */
const char *const profiledLayers[] = {
    "mem", "pci", "pcie.link", "pcie.switch", "pcie.rc", "dev", "os",
};

/** Measurements and check results of one iteration. */
struct Iteration
{
    double parseS = 0.0;
    double buildS = 0.0;
    double bootS = 0.0;
    double runS = 0.0;
    std::uint64_t events = 0;
    Tick simTicks = 0;
    double gbps = 0.0;
    bool booted = false;
    std::uint64_t ops = 0;
    std::string digest;
    std::map<std::string, double> layer;
    std::vector<std::string> failures;
};

struct EngineCounts
{
    std::uint64_t windows = 0;
    std::uint64_t mailbox = 0;
    std::uint64_t stalls = 0;
    std::vector<std::uint64_t> domainEvents;
};

EngineCounts
engineCounts(Simulation &sim)
{
    EngineCounts c;
    if (ParallelEngine *e = sim.engine()) {
        c.windows = e->windowsSynced();
        for (unsigned d = 0; d < e->numDomains(); ++d) {
            c.mailbox += e->mailboxSent(d);
            c.stalls += e->stallWindows(d);
            c.domainEvents.push_back(e->domainEvents(d));
        }
    }
    return c;
}

/** Max/mean events per domain between two snapshots; 0 without an
 *  engine or events. */
double
loadImbalance(const EngineCounts &before, const EngineCounts &after)
{
    std::uint64_t max = 0;
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < after.domainEvents.size(); ++d) {
        std::uint64_t n = after.domainEvents[d] - before.domainEvents[d];
        max = std::max(max, n);
        total += n;
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(max) *
           static_cast<double>(after.domainEvents.size()) /
           static_cast<double>(total);
}

LinkErrorStats
linkErrors(Fabric &f)
{
    LinkErrorStats e;
    for (PcieLink *l : f.links())
        e += l->errorStats();
    return e;
}

/**
 * Pins the calling thread to the next CPU of its affinity set, in
 * turn, and restores the set when destroyed. The host's CPUs change
 * speed independently, for seconds at a time; a workload that runs on
 * one thread, rotated over all of them, meets the fast ones within a
 * run instead of sitting out a slow phase on one. Only for a
 * Simulation without an engine: engine workers would inherit the pin.
 */
class NextCpu
{
  public:
    NextCpu()
    {
        static unsigned turn = 0;
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_))
                cpus.push_back(c);
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    ~NextCpu()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }

    NextCpu(const NextCpu &) = delete;
    NextCpu &operator=(const NextCpu &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Parse, build and boot; the fabric is left in @p fabric. */
void
setUp(const Args &args, Simulation &sim, std::unique_ptr<Fabric> &fabric,
      Iteration &it)
{
    auto t0 = Clock::now();
    FabricDesc desc = loadFabricDesc(args.topology);
    it.parseS = secondsSince(t0);
    auto t1 = Clock::now();
    fabric = std::make_unique<Fabric>(sim, desc);
    it.buildS = secondsSince(t1);
    auto t2 = Clock::now();
    it.booted = desc.enumerate;
    if (it.booted)
        fabric->boot();
    it.bootS = secondsSince(t2);
}

void
check(Iteration &it, bool ok, const std::string &what)
{
    if (!ok)
        it.failures.push_back(what);
}

/**
 * Host ns the profiler adds to every invocation it times: the mean
 * sampled time of an empty event, which is the two clock reads
 * around it.
 */
double
timedCallNs()
{
    constexpr unsigned calls = 64 * 4096;
    EventQueue q;
    EventFunctionWrapper ev([] {}, "perf.empty");
    prof::reset();
    prof::setEnabled(true);
    for (unsigned i = 0; i < calls; ++i) {
        q.schedule(&ev, q.curTick() + 1);
        q.step();
    }
    prof::setEnabled(false);
    double ns = 0.0;
    for (const prof::HotSpot &h : prof::hotSpots()) {
        if (h.name == "perf.empty")
            ns = h.avgNs();
    }
    prof::reset();
    return ns;
}

/** Attribute the profile of one workload call to layers, after
 *  taking @p timer_ns off every timed invocation. */
void
attribute(Fabric &fabric, Iteration &it, const EngineCounts &before,
          const EngineCounts &after, double timer_ns)
{
    Simulation &sim = fabric.sim();
    LayerMap layers(fabric);
    for (const char *l : profiledLayers)
        it.layer[std::string(l) + ".self_s"] = 0.0;
    double profiled = 0.0;
    double unattributed = 0.0;
    for (const prof::HotSpot &h : prof::hotSpots()) {
        if (h.sampled == 0)
            continue;
        const double sampled_ns =
            std::max(0.0, static_cast<double>(h.sampledNs) -
                              static_cast<double>(h.sampled) * timer_ns);
        const double s = sampled_ns * static_cast<double>(h.count) /
                         static_cast<double>(h.sampled) / 1e9;
        profiled += s;
        std::string layer = layers.layerOf(h.name);
        if (layer.empty()) {
            unattributed += s;
            if (s > 0.01 * it.runS)
                std::fprintf(stderr, "unattributed event '%s': %.4f s\n",
                             h.name.c_str(), s);
        } else {
            it.layer[layer + ".self_s"] += s;
        }
    }
    // Wall time outside profiled event bodies: the engine's windows,
    // mailbox drain and barriers when an engine ran, else the event
    // loop itself.
    double rest = std::max(0.0, it.runS - profiled);
    ParallelEngine *eng = sim.engine();
    std::uint64_t windows = after.windows - before.windows;
    it.layer["sim.engine.overhead_s"] = eng ? rest : 0.0;
    it.layer["sim.eventq.self_s"] = eng ? 0.0 : rest;
    it.layer["sim.engine.overhead_us_per_window"] =
        windows ? rest * 1e6 / static_cast<double>(windows) : 0.0;
    it.layer["trace.profiled_frac"] = profiled / it.runS;
    it.layer["trace.unattributed_frac"] = unattributed / it.runS;
    stats::Registry &reg = sim.statsRegistry();
    it.layer["sim.engine.exec_s"] =
        eng ? reg.formulaValue("system.parallel.execMsEst") / 1e3 : 0.0;
    it.layer["sim.engine.sync_s"] =
        eng ? reg.formulaValue("system.parallel.syncWaitMsEst") / 1e3
            : 0.0;
}

/** One iteration: set up, run, check, digest. */
Iteration
runIteration(const Args &args, double timer_ns)
{
    Iteration it;
    const std::uint64_t live0 = Packet::liveCount();
    {
        Simulation sim;
        std::unique_ptr<Fabric> fabric;
        setUp(args, sim, fabric, it);
        Fabric &f = *fabric;

        const std::uint64_t dram0 = sim.statsRegistry().counterValue(
            f.dram().name() + ".writes");
        const std::uint64_t ev0 = sim.eventsProcessed();
        const Tick tick0 = sim.curTick();
        const EngineCounts eng0 = engineCounts(sim);
        const LinkErrorStats errs0 = linkErrors(f);
        std::uint64_t bytes = 0;

        std::optional<NextCpu> pin;
        if (!sim.engine())
            pin.emplace();
        if (args.trace) {
            prof::reset();
            prof::setEnabled(true);
        }
        auto t0 = Clock::now();
        if (f.numDisks() > 0) {
            DdWorkloadParams dd;
            dd.blockBytes = args.ddBytes;
            it.gbps = f.runDd(dd);
            bytes = dd.blockBytes * dd.count;
        } else {
            it.gbps = f.runDirectWrites(args.bursts, args.burstBytes);
            bytes = static_cast<std::uint64_t>(f.numTrafficGens()) *
                    args.bursts * args.burstBytes;
        }
        it.runS = secondsSince(t0);
        pin.reset();

        it.events = sim.eventsProcessed() - ev0;
        it.simTicks = sim.curTick() - tick0;
        const EngineCounts eng1 = engineCounts(sim);
        const LinkErrorStats errs = linkErrors(f);

        // Every requested byte reached DRAM, in DMA-sized writes.
        const std::uint64_t dram_writes =
            sim.statsRegistry().counterValue(f.dram().name() +
                                             ".writes") -
            dram0;
        const std::uint64_t pkt = DmaEngineParams{}.packetSize;
        check(it, dram_writes * pkt == bytes,
              "DRAM received " + std::to_string(dram_writes * pkt) +
                  " of " + std::to_string(bytes) + " bytes");
        check(it, Packet::liveCount() == live0,
              "packet leak: " + std::to_string(Packet::liveCount()) +
                  " live after drain, " + std::to_string(live0) +
                  " before");

        const bool faulty = errs.crcErrorsTlp + errs.crcErrorsDllp > 0;
        if (f.numDisks() > 0) {
            it.ops = f.ideDriver(0).commandsIssued();
            check(it, f.disk(0).bytesTransferred() == bytes,
                  "disk moved " +
                      std::to_string(f.disk(0).bytesTransferred()) +
                      " bytes");
        } else {
            for (unsigned i = 0; i < f.numTrafficGens(); ++i) {
                TrafficGen &g = f.trafficGen(i);
                it.ops += args.bursts;
                check(it,
                      g.bytesMoved() ==
                          std::uint64_t{args.bursts} * args.burstBytes,
                      g.name() + " moved " +
                          std::to_string(g.bytesMoved()) + " bytes");
            }
        }
        if (faulty) {
            // Every LCRC error was answered by a NAK or a replay.
            for (PcieLink *l : f.links()) {
                LinkErrorStats e = l->errorStats();
                check(it, e.crcErrorsTlp <= e.naksSent + e.replayedTlps,
                      l->name() + ": " +
                          std::to_string(e.crcErrorsTlp) +
                          " LCRC errors, " +
                          std::to_string(e.naksSent) + " NAKs, " +
                          std::to_string(e.replayedTlps) + " replays");
            }
        } else {
            std::uint64_t timeouts = f.kernel().completionTimeouts();
            for (unsigned i = 0; i < f.numDisks(); ++i) {
                timeouts += f.disk(i).dmaCompletionTimeouts();
                timeouts += f.ideDriver(i).lostRequests();
            }
            check(it, timeouts == 0,
                  std::to_string(timeouts) +
                      " completion timeouts or aborts");
        }

        // Link counts cover the workload call only, not boot.
        it.layer["pcie.link.tlps"] =
            static_cast<double>(errs.txTlps - errs0.txTlps);
        it.layer["pcie.link.replayed"] =
            static_cast<double>(errs.replayedTlps - errs0.replayedTlps);
        it.layer["pcie.link.naks"] =
            static_cast<double>(errs.naksSent - errs0.naksSent);
        it.layer["pcie.link.crc_errors"] =
            static_cast<double>(errs.crcErrorsTlp - errs0.crcErrorsTlp);
        it.layer["dev.dma_ops"] = static_cast<double>(it.ops);
        it.layer["sim.events"] = static_cast<double>(it.events);
        it.layer["sim.engine.windows"] =
            static_cast<double>(eng1.windows - eng0.windows);
        it.layer["sim.engine.mailbox_ops"] =
            static_cast<double>(eng1.mailbox - eng0.mailbox);
        it.layer["sim.engine.stall_windows"] =
            static_cast<double>(eng1.stalls - eng0.stalls);
        it.layer["sim.engine.load_imbalance"] = loadImbalance(eng0, eng1);
        it.layer["topo.domains"] = sim.numDomains();
        it.layer["pci.functions"] =
            it.booted ? f.kernel().enumerate().functions.size() : 0;
        if (args.trace) {
            // The engine's wall estimates read 0 once the profiler
            // is off.
            attribute(f, it, eng0, eng1, timer_ns);
            prof::setEnabled(false);
        }

        // The simulated-result digest, from a timing-free dump.
        const bool times = prof::reportTimes();
        prof::setReportTimes(false);
        const std::string path = args.workDir + "/stats-" +
                                 std::to_string(getpid()) + ".json";
        f.exportStatsJson(path);
        prof::setReportTimes(times);
        it.digest = fileDigest(path);
        std::remove(path.c_str());
    }
    check(it, Packet::liveCount() == live0,
          "packet leak after teardown");
    return it;
}

/** @{ Unit costs by direct calls into each layer. */

/** Host ns per queue operation under timer churn: each firing
 *  reschedules a neighbour and every fourth cancels and re-arms
 *  another, the pattern of a link interface's ACK/replay timers. */
double
eventqOpNs()
{
    constexpr std::size_t timers = 512;
    constexpr Tick period = 100;
    constexpr std::uint64_t target = 2'000'000;
    EventQueue q;
    std::vector<std::unique_ptr<EventFunctionWrapper>> ev;
    std::uint64_t ops = 0;
    ev.reserve(timers);
    for (std::size_t i = 0; i < timers; ++i) {
        ev.push_back(std::make_unique<EventFunctionWrapper>(
            [&q, &ev, &ops, i] {
                Event *neighbour = ev[(i + 1) % timers].get();
                Event *victim = ev[(i + 7) % timers].get();
                if (neighbour->scheduled()) {
                    q.reschedule(neighbour, q.curTick() + period);
                    ++ops;
                }
                if (i % 4 == 0 && victim->scheduled()) {
                    q.deschedule(victim);
                    q.schedule(victim, q.curTick() + period / 2);
                    ops += 2;
                }
                q.schedule(ev[i].get(), q.curTick() + period);
                ++ops;
            },
            "perf.churn"));
    }
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < timers; ++i)
        q.schedule(ev[i].get(), period + (i % 16));
    while (q.numProcessed() < target && !q.empty())
        q.step();
    double s = secondsSince(t0);
    for (auto &e : ev) {
        if (e->scheduled())
            q.deschedule(e.get());
    }
    return s * 1e9 / static_cast<double>(ops + q.numProcessed());
}

/** Host ns per packet allocate + free. */
double
packetCycleNs(std::uint64_t n)
{
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketPtr p = Packet::makeRequest(MemCmd::PostedWriteReq,
                                          static_cast<Addr>(i) * 64, 64);
        p.reset();
    }
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

/** The same, inside a running parallel-engine window. */
double
packetCycleNsInEngine(std::uint64_t n)
{
    Simulation sim;
    sim.addDomain("perf");
    sim.setupParallel(2, 1000);
    double ns = 0.0;
    EventFunctionWrapper ev([&] { ns = packetCycleNs(n); }, "perf.pool");
    sim.domainQueue(1).schedule(&ev, 1);
    sim.run();
    return ns;
}

class SinkPort : public SlavePort
{
  public:
    using SlavePort::SlavePort;

    bool
    recvTimingReq(PacketPtr) override
    {
        ++received;
        return true;
    }
    void recvRespRetry() override {}
    AddrRangeList
    getAddrRanges() const override
    {
        return {AddrRange{0, 1ULL << 40}};
    }

    std::uint64_t received = 0;
};

class PumpPort : public MasterPort
{
  public:
    using MasterPort::MasterPort;

    bool recvTimingResp(PacketPtr) override { return true; }
    void recvReqRetry() override {}
};

/** Host ns per 64 B posted write through one Gen2 x4 link. */
double
linkTlpNs()
{
    constexpr unsigned total = 20000;
    Simulation sim;
    PcieLinkParams params;
    params.width = 4;
    params.replayBufferSize = 64;
    PcieLink link(sim, "perf.link", params);
    PumpPort pump("pump");
    PumpPort dma_pump("dmaPump");
    SinkPort sink("sink");
    SinkPort dma_sink("dmaSink");
    pump.bind(link.upSlave());
    link.upMaster().bind(dma_sink);
    link.downMaster().bind(sink);
    dma_pump.bind(link.downSlave());
    sim.initialize();
    unsigned sent = 0;
    auto t0 = Clock::now();
    while (sink.received < total) {
        while (sent < total &&
               pump.sendTimingReq(Packet::makeRequest(
                   MemCmd::PostedWriteReq, static_cast<Addr>(sent) * 64,
                   64))) {
            ++sent;
        }
        if (!sim.eventq().step())
            break;
    }
    sim.run();
    double s = secondsSince(t0);
    fatalIf(sink.received != total, "link pump lost TLPs");
    return s * 1e9 / total;
}
/** @} */

/** This process's peak resident set (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    fatal("VmHWM not found in /proc/self/status");
}

void
writeArray(std::ostream &os, const std::vector<double> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    Args args = parseArgs(argc, argv);

    const double timer_ns = args.trace ? median5(timedCallNs) : 0.0;

    // Of each iteration only what the record needs is kept, so that
    // the runner's own bookkeeping does not raise peak RSS with the
    // number of iterations: the first iteration whole, the timed
    // ones' wall times and, when tracing, their layer values.
    Iteration first;
    bool have_first = false;
    std::uint64_t ops = 0;
    std::vector<std::string> failures;
    std::vector<double> run, setup, parse, build, boot;
    std::map<std::string, std::vector<double>> layers;
    auto iterate = [&](bool timed) {
        Iteration it = runIteration(args, timer_ns);
        if (!have_first) {
            first = it;
            have_first = true;
        }
        ops += it.ops;
        for (const std::string &f : it.failures)
            failures.push_back(f);
        // Outputs that must repeat exactly across iterations.
        if (it.digest != first.digest || it.events != first.events ||
            it.simTicks != first.simTicks || it.gbps != first.gbps) {
            failures.push_back("simulated results differ between "
                               "iterations");
        }
        if (!timed)
            return;
        run.push_back(it.runS);
        setup.push_back(it.parseS + it.buildS + it.bootS);
        parse.push_back(it.parseS);
        build.push_back(it.buildS);
        boot.push_back(it.bootS);
        if (args.trace) {
            for (const auto &[name, v] : first.layer) {
                auto found = it.layer.find(name);
                layers[name].push_back(
                    found == it.layer.end() ? 0.0 : found->second);
            }
        }
    };

    // Warm-up iterations are checked but not timed: on a host that
    // was idle, the first second or so of a multi-threaded run is
    // several times faster than the steady state that follows.
    auto start = Clock::now();
    while (secondsSince(start) < args.warmup)
        iterate(false);
    start = Clock::now();
    while (run.size() < args.minIters ||
           secondsSince(start) < args.seconds) {
        iterate(true);
    }

    std::map<std::string, double> unit;
    if (args.trace) {
        unit["sim.eventq.op_ns"] = median5(eventqOpNs);
        unit["mem.pool.pkt_ns"] =
            median5([] { return packetCycleNs(1'000'000); });
        unit["mem.pool.pkt_ns_engine"] =
            median5([] { return packetCycleNsInEngine(1'000'000); });
        unit["pcie.link.tlp_ns"] = median5(linkTlpNs);
    }

    std::ostringstream os;
    os.precision(10);
    os << "{\"iterations\": " << run.size() << ", \"ops\": " << ops
       << ", \"events\": " << first.events
       << ", \"sim_s\": " << ticksToSeconds(first.simTicks)
       << ", \"sim_gbps\": " << first.gbps
       << ", \"sim_digest\": \"" << first.digest << "\""
       << ", \"peak_rss_mb\": " << peakRssMb();
    os << ", \"run_s\": ";
    writeArray(os, run);
    os << ", \"setup_s\": ";
    writeArray(os, setup);
    os << ", \"parse_s\": ";
    writeArray(os, parse);
    os << ", \"build_s\": ";
    writeArray(os, build);
    os << ", \"boot_s\": ";
    writeArray(os, boot);
    os << ", \"layers\": {";
    bool comma = false;
    // Untraced, the layer values are counts that repeat exactly in
    // every iteration.
    for (const auto &[name, v] : first.layer) {
        os << (comma ? ", " : "") << jsonString(name) << ": "
           << (args.trace ? median(layers[name]) : v);
        comma = true;
    }
    for (const auto &[name, v] : unit) {
        os << (comma ? ", " : "") << jsonString(name) << ": " << v;
        comma = true;
    }
    os << "}, \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ", " : "") << jsonString(failures[i]);
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
