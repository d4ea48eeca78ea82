/**
 * @file
 * Unit tests for the tracing subsystem: flag parsing, lazy macro
 * argument evaluation, the text sink format, and the Chrome
 * trace-event sink — including a strict JSON validation of a full
 * trace produced by a dd run on the validation topology.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/trace.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

/** The syntax error json::parse finds in @p text; "" if none. */
std::string
jsonError(const std::string &text)
{
    json::Value doc;
    json::Error err;
    if (json::parse(text, doc, err))
        return "";
    return std::to_string(err.line) + ": " + err.what;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + 1))
        ++n;
    return n;
}

/** RAII guard: every test leaves the global trace state clean. */
struct TraceReset
{
    ~TraceReset()
    {
        trace::closeSinks();
        trace::setEnabledFlags(0u);
    }
};

} // namespace

TEST(TraceFlags, ParseNamesAndAll)
{
    EXPECT_EQ(trace::parseFlags(""), 0u);
    EXPECT_EQ(trace::parseFlags("Link"), 1u);
    EXPECT_EQ(trace::parseFlags("Link,Dma"),
              (1u << 0) | (1u << 4));
    EXPECT_EQ(trace::parseFlags("All"),
              (1u << trace::numFlags) - 1u);
    EXPECT_EQ(trace::parseFlags("all"), trace::parseFlags("All"));
    for (std::size_t i = 0; i < trace::numFlags; ++i) {
        auto f = static_cast<trace::Flag>(i);
        EXPECT_EQ(trace::parseFlags(trace::flagName(f)), 1u << i);
    }
}

TEST(TraceFlags, UnknownNameIsFatal)
{
    setLoggingThrows(true);
    EXPECT_THROW(trace::parseFlags("Bogus"), FatalError);
    EXPECT_THROW(trace::parseFlags("Link,Bogus"), FatalError);
    setLoggingThrows(false);
}

#if PCIESIM_TRACING
TEST(TraceMacros, DisabledFlagSkipsArgumentEvaluation)
{
    TraceReset guard;
    trace::openTextSink("trace_test_lazy.txt");
    trace::setEnabledFlags(trace::parseFlags("Link"));

    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return 42;
    };
    TRACE_MSG(trace::Flag::Dma, 0, "t", "v=", expensive());
    EXPECT_EQ(evaluations, 0);
    TRACE_MSG(trace::Flag::Link, 0, "t", "v=", expensive());
    EXPECT_EQ(evaluations, 1);
}
#endif // PCIESIM_TRACING

TEST(TraceMacros, NoSinkMeansDisabled)
{
    TraceReset guard;
    trace::setEnabledFlags(trace::parseFlags("All"));
    // No sink open: even enabled flags must not fire.
    EXPECT_FALSE(trace::enabled(trace::Flag::Link));
}

TEST(TraceTextSink, LineFormat)
{
    TraceReset guard;
    std::ostringstream os;
    trace::TextSink sink(os);
    sink.message(1500, "system.link", "Link", "TLP 3 sent");
    sink.begin(2000, "system.dma", "Dma", "dma read");
    sink.end(3000, "system.dma", "Dma");
    std::string out = os.str();
    EXPECT_NE(out.find("1500: system.link: Link: TLP 3 sent"),
              std::string::npos);
    EXPECT_NE(out.find("2000: system.dma: Dma: begin dma read"),
              std::string::npos);
    EXPECT_NE(out.find("3000: system.dma: Dma: end"),
              std::string::npos);
}

TEST(TraceChromeSink, ProducesValidJson)
{
    const std::string path = "trace_test_unit.json";
    {
        trace::ChromeTraceSink sink(path);
        sink.begin(1000000, "obj.a", "Dma", "span \"quoted\"");
        sink.end(2000000, "obj.a", "Dma");
        sink.complete(0, 500000, "obj.b", "Link", "TLP 1");
        sink.counter(3000000, "sampler", "Stats", "goodput", 1.5);
        sink.message(4000000, "obj.a", "Replay", "NAK\nnewline");
        sink.close();
        EXPECT_EQ(sink.eventsWritten(), 8u); // 5 + 3 thread_name
    }
    std::string text = slurp(path);
    EXPECT_EQ(jsonError(text), "") << text;
    // Spans carry the right phase and category markers.
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"Link\""), std::string::npos);
    // Ticks (ps) render as fractional microseconds.
    EXPECT_NE(text.find("\"ts\":1.000000"), std::string::npos);
    // Three tracks announced by thread_name metadata.
    EXPECT_EQ(countOccurrences(text, "thread_name"), 3u);
    std::remove(path.c_str());
}

#if PCIESIM_TRACING
TEST(TraceChromeSink, DdRunProducesLinkAndDmaSpans)
{
    TraceReset guard;
    const std::string path = "trace_test_dd.json";

    {
        Simulation sim;
        FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
        desc.config.traceOut = path;
        desc.config.traceFlags = "Link,Dma,Mmio";
        Fabric system(sim, desc);
        DdWorkloadParams dd;
        dd.blockBytes = 64 * 1024;
        double gbps = system.runDd(dd);
        EXPECT_GT(gbps, 0.0);
    }
    trace::closeSinks();

    std::string text = slurp(path);
    ASSERT_EQ(jsonError(text), "");
    // Wire occupancy: complete events on the Link flag.
    EXPECT_GT(countOccurrences(text, "\"cat\":\"Link\""), 10u);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    // DMA spans: begin/end pairs on the Dma flag.
    std::size_t dma = countOccurrences(text, "\"cat\":\"Dma\"");
    EXPECT_GE(dma, 2u);
    // Disabled flags stay silent.
    EXPECT_EQ(countOccurrences(text, "\"cat\":\"Switch\""), 0u);
    // The link tracks appear as named threads.
    EXPECT_NE(text.find("system.downLink"), std::string::npos);
    std::remove(path.c_str());
    std::remove("trace_test_lazy.txt");
}
#endif // PCIESIM_TRACING

TEST(TraceChromeSinkDeathTest, FatalFlushesClosingBracket)
{
    TraceReset guard;
    const std::string path = "trace_test_crash.json";
    std::remove(path.c_str());

    // The child opens a Chrome sink, emits an event, and dies in
    // fatal() without ever reaching closeSinks(). The crash hook
    // registered by openChromeSink() must flush the closing bracket
    // on the way down.
    EXPECT_DEATH(
        {
            setLoggingThrows(false);
            trace::openChromeSink(path);
            trace::setEnabledFlags(trace::parseFlags("Link"));
            trace::emitBegin(trace::Flag::Link, 1000000, "obj.a",
                             "doomed span");
            fatal("simulated crash with an open trace");
        },
        "simulated crash with an open trace");

    // The orphaned trace file from the crashed child still parses.
    std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(jsonError(text), "") << text;
    EXPECT_NE(text.find("doomed span"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceSampler, EmitsRowsAndCounters)
{
    TraceReset guard;
    const std::string path = "trace_test_sampler.json";

    Simulation sim;
    FabricDesc desc = loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json");
    desc.config.traceOut = path;
    desc.config.traceFlags = "Stats";
    desc.config.statsSampleInterval = microseconds(5);
    Fabric system(sim, desc);
    DdWorkloadParams dd;
    dd.blockBytes = 256 * 1024;
    system.runDd(dd);

    StatsSampler *sampler = system.sampler();
    ASSERT_NE(sampler, nullptr);
    EXPECT_FALSE(sampler->rows().empty());
    ASSERT_EQ(sampler->seriesNames().size(), 5u);
    EXPECT_EQ(sampler->seriesNames()[0], "goodputBytesPerSec");
    double peak = 0.0;
    for (const auto &row : sampler->rows()) {
        ASSERT_EQ(row.values.size(), 5u);
        peak = std::max(peak, row.values[0]);
    }
    // dd moved data, so some interval saw nonzero goodput.
    EXPECT_GT(peak, 0.0);

    trace::closeSinks();
    std::string text = slurp(path);
    ASSERT_EQ(jsonError(text), "");
#if PCIESIM_TRACING
    EXPECT_GT(countOccurrences(text, "\"ph\":\"C\""), 0u);
    EXPECT_NE(text.find("goodputBytesPerSec"), std::string::npos);
#endif
    std::remove(path.c_str());
}
