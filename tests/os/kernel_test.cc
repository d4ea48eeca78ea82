/**
 * @file
 * Unit tests for the kernel model: timed MMIO, deferral, DMA
 * allocation, and functional memory access - exercised on the NIC
 * topology.
 */

#include <gtest/gtest.h>

#include "../common/test_ports.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::test;
using namespace pciesim::literals;

namespace
{

const char *const loopbackJson =
    PCIESIM_TOPOLOGY_DIR "/nic_loopback.json";

} // namespace

TEST(KernelTest, AllocDmaRespectsAlignment)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    Kernel &k = system.kernel();

    Addr a = k.allocDma(100, 64);
    Addr b = k.allocDma(10, 4096);
    Addr c = k.allocDma(1, 1);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GT(c, b);
}

TEST(KernelTest, FunctionalMemoryRoundTrip)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    Kernel &k = system.kernel();

    k.memWrite<std::uint32_t>(0x80200000, 0xcafef00d);
    EXPECT_EQ(k.memRead<std::uint32_t>(0x80200000), 0xcafef00du);

    std::uint8_t blob[5] = {1, 2, 3, 4, 5};
    k.memWriteBlob(0x80200100, blob, 5);
    std::uint8_t out[5] = {};
    k.memReadBlob(0x80200100, out, 5);
    EXPECT_EQ(std::memcmp(blob, out, 5), 0);
}

TEST(KernelTest, DeferRunsAfterDelay)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    Kernel &k = system.kernel();
    sim.initialize();

    Tick fired = 0;
    k.defer(5_us, [&] { fired = k.curTick(); });
    sim.run();
    EXPECT_EQ(fired, 5_us);
}

TEST(KernelTest, MmioOpsCompleteInOrder)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    system.boot();
    Kernel &k = system.kernel();
    Addr base = system.nicMmioBase(0);

    std::vector<int> order;
    k.mmioWrite(base + nicreg::tdh, 4, 7, [&] {
        order.push_back(1);
    });
    k.mmioRead(base + nicreg::tdh, 4, [&](std::uint64_t v) {
        order.push_back(2);
        EXPECT_EQ(v, 7u);
    });
    k.mmioRead(base + nicreg::status, 4, [&](std::uint64_t v) {
        order.push_back(3);
        EXPECT_NE(v & nicreg::statusLu, 0u);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_GE(k.mmioOps(), 3u);
}

TEST(KernelTest, MmioCompletionTimeoutAbortsWithAllOnes)
{
    Simulation sim;
    PciHost host(sim, "host");
    IntController gic(sim, "gic", IntControllerParams{});
    SimpleMemory dram(sim, "dram", SimpleMemoryParams{});
    RecordingMasterPort dramSrc{"dramSrc"};
    dramSrc.bind(dram.port());

    KernelParams kp;
    kp.completionTimeout = 50_us;
    Kernel k(sim, "kernel", host, gic, dram, kp);
    // The MMIO target accepts requests but never completes them.
    RecordingSlavePort dead{"dead",
                            {AddrRange{0x40000000, 0x40001000}}};
    k.cpuPort().bind(dead);
    sim.initialize();

    std::uint64_t read_value = 0;
    bool wrote = false;
    unsigned hook_reads = 0, hook_writes = 0;
    k.setMmioTimeoutHook([&](bool is_read) {
        if (is_read)
            ++hook_reads;
        else
            ++hook_writes;
    });
    k.mmioRead(0x40000000, 4,
               [&](std::uint64_t v) { read_value = v; });
    k.mmioWrite(0x40000004, 4, 1, [&] { wrote = true; });
    sim.run();

    // The platform error hook saw both timeouts, typed correctly.
    EXPECT_EQ(hook_reads, 1u);
    EXPECT_EQ(hook_writes, 1u);

    // Both ops were failed by the completion timer instead of
    // hanging the queue; the read saw the all-ones abort value.
    EXPECT_EQ(read_value, ~0ULL);
    EXPECT_TRUE(wrote);
    EXPECT_EQ(k.completionTimeouts(), 2u);
    // Aborted loads leave their own breadcrumb: only the read
    // counts (the write completed blind, nothing was fabricated).
    EXPECT_EQ(k.abortedReads(), 1u);
    EXPECT_EQ(k.mmioOps(), 0u);
    EXPECT_GE(sim.curTick(), 100_us);

    // A completion straggling in after its op was retired must be
    // dropped, not treated as a protocol violation.
    ASSERT_EQ(dead.requests.size(), 2u);
    dead.requests[0]->makeResponse();
    EXPECT_TRUE(dead.sendTimingResp(dead.requests[0]));
    EXPECT_EQ(k.completionTimeouts(), 2u);
}

TEST(KernelTest, CompletionOnExactTimeoutTickIsLate)
{
    // The timeout event is scheduled at issue time; a completion
    // landing on the very tick it expires was inserted later and so
    // fires after it (same-tick FIFO). The boundary is therefore
    // "late": the op aborts with all-ones and the completion is
    // dropped.
    Simulation sim;
    PciHost host(sim, "host");
    IntController gic(sim, "gic", IntControllerParams{});
    SimpleMemory dram(sim, "dram", SimpleMemoryParams{});
    RecordingMasterPort dramSrc{"dramSrc"};
    dramSrc.bind(dram.port());

    KernelParams kp;
    kp.completionTimeout = 50_us;
    Kernel k(sim, "kernel", host, gic, dram, kp);
    RecordingSlavePort dead{"dead",
                            {AddrRange{0x40000000, 0x40001000}}};
    k.cpuPort().bind(dead);
    sim.initialize();

    const Tick exact = kp.mmioIssueLatency + kp.completionTimeout;
    std::uint64_t read_value = 0;
    k.mmioRead(0x40000000, 4,
               [&](std::uint64_t v) { read_value = v; });
    // Arm after the issue so the completion's event is enqueued
    // behind the already-scheduled timeout.
    k.defer(100_ns, [&] {
        ASSERT_EQ(dead.requests.size(), 1u);
        k.defer(exact - 100_ns, [&] {
            EXPECT_EQ(k.curTick(), exact);
            dead.requests[0]->makeResponse();
            dead.requests[0]->set<std::uint32_t>(0x1234abcd);
            EXPECT_TRUE(dead.sendTimingResp(dead.requests[0]));
        });
    });
    sim.run();

    EXPECT_EQ(read_value, ~0ULL);
    EXPECT_EQ(k.completionTimeouts(), 1u);
    EXPECT_EQ(k.mmioOps(), 0u);
}

TEST(KernelTest, CompletionOneTickBeforeTimeoutCompletes)
{
    // Companion bound: one tick (1 ps) earlier the completion still
    // wins, delivers its payload, and disarms the timer.
    Simulation sim;
    PciHost host(sim, "host");
    IntController gic(sim, "gic", IntControllerParams{});
    SimpleMemory dram(sim, "dram", SimpleMemoryParams{});
    RecordingMasterPort dramSrc{"dramSrc"};
    dramSrc.bind(dram.port());

    KernelParams kp;
    kp.completionTimeout = 50_us;
    Kernel k(sim, "kernel", host, gic, dram, kp);
    RecordingSlavePort dead{"dead",
                            {AddrRange{0x40000000, 0x40001000}}};
    k.cpuPort().bind(dead);
    sim.initialize();

    const Tick exact = kp.mmioIssueLatency + kp.completionTimeout;
    std::uint64_t read_value = 0;
    k.mmioRead(0x40000000, 4,
               [&](std::uint64_t v) { read_value = v; });
    k.defer(100_ns, [&] {
        ASSERT_EQ(dead.requests.size(), 1u);
        k.defer(exact - 100_ns - 1, [&] {
            EXPECT_EQ(k.curTick(), exact - 1);
            dead.requests[0]->makeResponse();
            dead.requests[0]->set<std::uint32_t>(0x1234abcd);
            EXPECT_TRUE(dead.sendTimingResp(dead.requests[0]));
        });
    });
    sim.run();

    EXPECT_EQ(read_value, 0x1234abcdu);
    EXPECT_EQ(k.completionTimeouts(), 0u);
    EXPECT_EQ(k.mmioOps(), 1u);
}

TEST(KernelTest, ConfigAccessGoesThroughPciHost)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    Kernel &k = system.kernel();
    // The NIC registered at bus 1 device 0.
    EXPECT_EQ(k.configRead(Bdf{1, 0, 0}, 0x00, 2), 0x8086u);
    EXPECT_EQ(k.configRead(Bdf{1, 0, 0}, 0x02, 2), 0x10d3u);
    // Absent device: all ones.
    EXPECT_EQ(k.configRead(Bdf{5, 0, 0}, 0x00, 2), 0xffffu);
}

TEST(KernelTest, EnumerationIsIdempotent)
{
    Simulation sim;
    Fabric system(sim, loadFabricDesc(loopbackJson));
    Kernel &k = system.kernel();
    const auto &r1 = k.enumerate();
    std::size_t n = r1.functions.size();
    const auto &r2 = k.enumerate();
    EXPECT_EQ(r2.functions.size(), n);
}
