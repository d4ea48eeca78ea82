/**
 * @file
 * Simulator-kernel performance bench: measures the discrete-event
 * core itself rather than a modelled quantity. Three workloads:
 *
 *   churn    - event-queue ops/sec under heavy schedule/reschedule/
 *              deschedule churn, the access pattern of the link
 *              layer's ACK and replay timers (the worst case for a
 *              lazily-descheduled heap, the best case for the
 *              indexed heap).
 *   linkpair - TLPs/sec through a root-port -> switch -> disk link
 *              pair running dd (allocation-heavy: every TLP is a
 *              pooled Packet).
 *   dd       - end-to-end dd wall-clock on the validation topology.
 *   threads  - a 1/2/4/8-thread sweep of the 16-generator
 *              multi-device topology under parallel execution
 *              (DESIGN.md Sec. 10), reporting events/sec and the
 *              speedup over the sweep's own 1-thread run.
 *
 * With --json, each workload emits one record; collecting stdout
 * into BENCH_kernel.json is the perf-trajectory convention:
 *
 *   ./bench_kernel --json > BENCH_kernel.json
 */

#include <cstdio>

#include "bench_common.hh"
#include "topo/fabric_builder.hh"

using namespace bench;

namespace
{

/** Result of one kernel workload. */
struct KernelResult
{
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    double ops_per_sec = 0.0;
};

/**
 * Timer churn: K periodic events; each firing reschedules a
 * neighbour's pending timer (the ACK-coalescing pattern) and every
 * fourth firing cancels and re-arms another (the replay-timer
 * pattern). All queue mutations an interface performs per TLP are
 * represented, and the same-tick FIFO rule is exercised by the
 * identical periods.
 */
KernelResult
runChurn(std::uint64_t target_ops)
{
    constexpr std::size_t numTimers = 512;
    constexpr Tick period = 100;

    EventQueue q;
    std::vector<std::unique_ptr<EventFunctionWrapper>> timers;
    std::uint64_t ops = 0;

    timers.reserve(numTimers);
    for (std::size_t i = 0; i < numTimers; ++i) {
        timers.push_back(std::make_unique<EventFunctionWrapper>(
            [&q, &timers, &ops, i] {
                Event *self = timers[i].get();
                Event *neighbour = timers[(i + 1) % numTimers].get();
                Event *victim = timers[(i + 7) % numTimers].get();
                // Push the neighbour's deadline out (ACK pattern).
                if (neighbour->scheduled()) {
                    q.reschedule(neighbour, q.curTick() + period);
                    ++ops;
                }
                // Cancel + re-arm a timer (replay pattern).
                if (i % 4 == 0 && victim->scheduled()) {
                    q.deschedule(victim);
                    q.schedule(victim, q.curTick() + period / 2);
                    ops += 2;
                }
                // Periodic self-rearm.
                q.schedule(self, q.curTick() + period);
                ++ops;
            },
            "churn.timer"));
    }

    WallTimer timer;
    for (std::size_t i = 0; i < numTimers; ++i)
        q.schedule(timers[i].get(), period + (i % 16));
    while (q.numProcessed() < target_ops && !q.empty())
        q.step();
    // Drain without firing so the wrappers can be destroyed.
    for (auto &t : timers) {
        if (t->scheduled())
            q.deschedule(t.get());
    }

    KernelResult r;
    r.wall_ms = timer.elapsedMs();
    double secs = r.wall_ms / 1e3;
    if (secs > 0.0) {
        r.events_per_sec =
            static_cast<double>(q.numProcessed()) / secs;
        r.ops_per_sec =
            static_cast<double>(ops + q.numProcessed()) / secs;
    }
    return r;
}

/**
 * One run of the parallel-sweep topology: 16 x1 generators behind a
 * switch with an x16 upstream link. The 2 us propagation delay
 * gives the engine a wide synchronization quantum, and the inflated
 * replay-timeout scale plus immediate ACKs keep the (fault-free)
 * replay timers from ever firing spuriously at that flight time.
 * The replay buffer and port buffers are sized for the resulting
 * bandwidth-delay product (~8 TLPs in flight per direction at a
 * 4 us round trip): the default 4-entry replay buffer would window-
 * stall every sender at ~10% of line rate and push ACK queueing
 * past even the scaled timeout.
 */
struct MdevResult
{
    DdResult dd;
    ParallelTelemetry par;
};

MdevResult
runMdev(unsigned threads, unsigned bursts)
{
    // multi_device.json widened to sixteen generators.
    const std::string text = R"({"nodes": [
        {"name": "switch", "kind": "switch", "ports": 16,
         "link": {"name": "upLink"}},
        {"name": "tgen", "kind": "traffic_gen", "count": 16,
         "parent": "switch",
         "link": {"name": "devLink", "width": 1}}]})";
    FabricDesc desc =
        parseFabricDesc(topo::parseJson(text, "<mdev16>"), "<mdev16>");
    desc.config.threads = threads;
    desc.config.upstreamLinkWidth = 16;
    desc.config.linkPropagation = microseconds(2);
    desc.config.replayTimeoutScale = 100.0;
    desc.config.ackImmediate = true;
    desc.config.replayBufferSize = 32;
    desc.config.portBufferSize = 64;

    Simulation sim;
    Fabric system(sim, desc);
    MdevResult r;
    WallTimer timer;
    r.dd.gbps = system.runConcurrentWrites(16, bursts, 4096);
    r.dd.wall_ms = timer.elapsedMs();
    r.dd.eventsProcessed = sim.eventsProcessed();
    if (r.dd.wall_ms > 0.0) {
        r.dd.events_per_sec =
            static_cast<double>(r.dd.eventsProcessed) /
            (r.dd.wall_ms / 1e3);
    }
    // Read inside this scope: the engine (and its flight recorder)
    // lives on the local Simulation.
    r.par = readParallelTelemetry(sim);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    BenchArgs args = parseArgs(argc, argv);
    JsonEmitter json("kernel", args.json);
    // Write each record as its workload finishes, so a reader of a
    // pipe can tell the workloads' CPU time apart
    // (scripts/profiler_overhead_gate.sh times the mdev sweep).
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    std::uint64_t churn_ops =
        args.scale == Scale::Smoke ? 100'000 : 20'000'000;
    std::uint64_t dd_bytes = args.scale == Scale::Smoke
        ? (1ull << 20)
        : (16ull << 20);

    if (!args.json)
        std::printf("=== Kernel: event-core performance ===\n");

    KernelResult churn = runChurn(churn_ops);
    if (!args.json) {
        std::printf("%-10s %12.1f M events/s %10.1f M ops/s "
                    "%10.1f ms\n",
                    "churn", churn.events_per_sec / 1e6,
                    churn.ops_per_sec / 1e6, churn.wall_ms);
    }
    json.record("churn", {{"events_per_sec", churn.events_per_sec},
                          {"ops_per_sec", churn.ops_per_sec},
                          {"wall_ms", churn.wall_ms}});

    DdResult link = runDd(SystemConfig{}, dd_bytes);
    double tlps_per_sec = link.wall_ms > 0.0
        ? static_cast<double>(link.txTlps) / (link.wall_ms / 1e3)
        : 0.0;
    if (!args.json) {
        std::printf("%-10s %12.1f K TLPs/s   %10.1f M events/s "
                    "%8.1f ms\n",
                    "linkpair", tlps_per_sec / 1e3,
                    link.events_per_sec / 1e6, link.wall_ms);
    }
    json.record("linkpair",
                {{"tlps_per_sec", tlps_per_sec},
                 {"events_per_sec", link.events_per_sec},
                 {"wall_ms", link.wall_ms}});

    DdResult dd = runDd(SystemConfig{}, dd_bytes);
    if (!args.json) {
        std::printf("%-10s %12.3f Gbps       %10.1f M events/s "
                    "%8.1f ms\n",
                    ("dd" + blockLabel(dd_bytes)).c_str(), dd.gbps,
                    dd.events_per_sec / 1e6, dd.wall_ms);
    }
    json.record("dd" + blockLabel(dd_bytes), dd);

    unsigned bursts = args.scale == Scale::Smoke ? 4 : 48;
    double base_wall = 0.0;
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        MdevResult mdev = runMdev(t, bursts);
        if (t == 1)
            base_wall = mdev.dd.wall_ms;
        double speedup = mdev.dd.wall_ms > 0.0
            ? base_wall / mdev.dd.wall_ms
            : 0.0;
        char label[32];
        std::snprintf(label, sizeof(label), "mdev16/t%u", t);
        if (!args.json) {
            std::printf("%-10s %12.1f M events/s %10.2fx vs 1t "
                        "%8.1f ms\n",
                        label, mdev.dd.events_per_sec / 1e6, speedup,
                        mdev.dd.wall_ms);
        }
        json.record(label,
                    {{"threads", static_cast<double>(t)},
                     {"gbps", mdev.dd.gbps},
                     {"events_per_sec", mdev.dd.events_per_sec},
                     {"speedup_vs_1t", speedup},
                     {"wall_ms", mdev.dd.wall_ms},
                     {"domains", mdev.par.domains},
                     {"windows", mdev.par.windows},
                     {"sync_fraction", mdev.par.syncFraction},
                     {"load_imbalance", mdev.par.loadImbalance},
                     {"mailbox_ops", mdev.par.mailboxOps}});
    }

    return 0;
}
