/**
 * @file
 * Storage exploration scenario: run dd over a configurable
 * PCI-Express fabric from the command line - the workflow the
 * paper's evaluation uses for Fig. 9.
 *
 *   $ ./storage_dd [--width N] [--gen N] [--switch-ns N]
 *                  [--rc-ns N] [--replay N] [--portbuf N]
 *                  [--block-mb N]
 *
 * e.g. reproduce one Fig. 9(b) point:   ./storage_dd --width 8
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

long
argValue(int argc, char **argv, const char *flag, long fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return std::atol(argv[i + 1]);
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    SystemConfig config;
    unsigned width = static_cast<unsigned>(
        argValue(argc, argv, "--width", 1));
    config.upstreamLinkWidth = width == 1 ? 4 : width;
    config.downstreamLinkWidth = width;
    switch (argValue(argc, argv, "--gen", 2)) {
      case 1: config.gen = PcieGen::Gen1; break;
      case 3: config.gen = PcieGen::Gen3; break;
      default: config.gen = PcieGen::Gen2; break;
    }
    config.switchLatency = nanoseconds(
        argValue(argc, argv, "--switch-ns", 150));
    config.rcLatency = nanoseconds(
        argValue(argc, argv, "--rc-ns", 150));
    config.replayBufferSize = static_cast<std::size_t>(
        argValue(argc, argv, "--replay", 4));
    config.portBufferSize = static_cast<std::size_t>(
        argValue(argc, argv, "--portbuf", 16));

    DdWorkloadParams dd;
    dd.blockBytes = static_cast<std::uint64_t>(
                        argValue(argc, argv, "--block-mb", 4)) << 20;

    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config = config;
    Fabric system(sim, desc);
    double gbps = system.runDd(dd);

    std::printf("config: gen%u, rc->switch x%u, switch->disk x%u, "
                "switch %llu ns, rc %llu ns, replay %zu, portbuf "
                "%zu\n",
                static_cast<unsigned>(config.gen),
                config.upstreamLinkWidth, config.downstreamLinkWidth,
                static_cast<unsigned long long>(
                    config.switchLatency / tickPerNs),
                static_cast<unsigned long long>(
                    config.rcLatency / tickPerNs),
                config.replayBufferSize, config.portBufferSize);
    std::printf("dd: %llu MB block -> %.3f Gbps\n",
                static_cast<unsigned long long>(dd.blockBytes >> 20),
                gbps);
    std::printf("disk uplink: replay fraction %.1f%%, timeouts "
                "%llu\n",
                system.diskUplinkReplayFraction() * 100.0,
                static_cast<unsigned long long>(
                    system.diskUplinkTimeouts()));

    double device_gbps =
        static_cast<double>(system.disk().bytesTransferred()) * 8.0 /
        ticksToSeconds(system.disk().activeTransferTicks()) / 1e9;
    std::printf("device-level throughput (no OS overhead): %.3f "
                "Gbps\n", device_gbps);
    return 0;
}
