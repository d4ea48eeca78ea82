/**
 * @file
 * Determinism test: the same seeded fault configuration, run twice
 * in one process, must produce bit-identical statistics AND
 * bit-identical trace output. This is the property every golden
 * file and every debugging session leans on; if it breaks (an
 * unordered container iterated into the event stream, uninitialised
 * state, address-dependent ordering), this test points at the first
 * divergent line.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/trace.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;
using namespace pciesim::literals;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Compare two multi-megabyte strings without handing them to
 * EXPECT_EQ (whose unified-diff edit distance is quadratic in the
 * line count); on mismatch report only the first divergent line.
 */
void
expectIdentical(const std::string &a, const std::string &b,
                const char *what)
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
                << what << " diverged between two identically-"
                << "seeded runs at line " << line << ":\n  run A: "
                << (ga ? la : "<eof>") << "\n  run B: "
                << (gb ? lb : "<eof>");
            return;
        }
    }
}

/**
 * One seeded run: faulty dd with full tracing into @p trace_path.
 * @return the complete stats dump.
 */
std::string
seededRun(const std::string &trace_path)
{
    std::string dump;
    {
        Simulation sim;
        FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
        desc.config.linkBitErrorRate = 2e-6;
        desc.config.faultSeed = 42;
        desc.config.traceOut = trace_path;
        desc.config.traceFlags = "All";
        Fabric system(sim, desc);
        DdWorkloadParams dd;
        dd.blockBytes = 512 * 1024;
        system.runDd(dd);
        std::ostringstream os;
        sim.statsRegistry().dump(os);
        dump = os.str();
    }
    trace::closeSinks();
    trace::setEnabledFlags(0u);
    return dump;
}

} // namespace

TEST(Determinism, SeededFaultRunIsBitIdentical)
{
    const std::string path_a = "determinism_a.json";
    const std::string path_b = "determinism_b.json";

    std::string stats_a = seededRun(path_a);
    std::string stats_b = seededRun(path_b);

    // The runs actually did something nontrivial.
    EXPECT_NE(stats_a.find("crcErrorsTlp"), std::string::npos);
    ASSERT_FALSE(stats_a.empty());

    expectIdentical(stats_a, stats_b, "stats dump");

    std::string trace_a = slurp(path_a);
    std::string trace_b = slurp(path_b);
#if PCIESIM_TRACING
    ASSERT_GT(trace_a.size(), 1000u);
#endif
    expectIdentical(trace_a, trace_b, "trace");

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}
