/**
 * @file
 * Seeded mutation fuzz of the topology input path. Every example
 * topology is mutated by byte flips, truncations and duplicated
 * keys, and each mutant goes through parse -> parseFabricDesc ->
 * Fabric construction (built, never run). A mutant must either
 * build or die with a "topology <file>:<line>:" fatal; a panic, any
 * other exception, or a sanitizer finding fails the test. The loop
 * is deterministic: a failure names the file and mutant index, and
 * its minimized input joins the regression table below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

/** Mutants per example file. */
constexpr unsigned mutantsPerFile = 60;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
exampleTopologies()
{
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(PCIESIM_TOPOLOGY_DIR)) {
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

/**
 * Offsets of the opening quotes of the string tokens in @p text
 * that are object keys (@p keys true) or values (false).
 */
std::vector<std::size_t>
stringOffsets(const std::string &text, bool keys)
{
    std::vector<std::size_t> out;
    std::size_t pos = text.find('"');
    while (pos != std::string::npos) {
        std::size_t close = text.find('"', pos + 1);
        if (close == std::string::npos)
            break;
        std::size_t next = text.find_first_not_of(" \t\r\n", close + 1);
        bool is_key = next != std::string::npos && text[next] == ':';
        if (is_key == keys)
            out.push_back(pos);
        pos = text.find('"', close + 1);
    }
    return out;
}

/** The quoted string token starting at @p at. */
std::string
stringAt(const std::string &text, std::size_t at)
{
    return text.substr(at, text.find('"', at + 1) + 1 - at);
}

/**
 * One mutant of @p text: random byte flips, one digit changed, a
 * string value swapped for another, a truncation, or a duplicated
 * key. The digit and string mutants keep the syntax valid so the
 * semantic checks and the builder see them.
 */
std::string
mutate(const std::string &text, std::mt19937_64 &rng)
{
    std::string out = text;
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    switch (pick(5)) {
      case 0:
        for (std::size_t i = 0, n = 1 + pick(3); i < n; ++i)
            out[pick(out.size())] = static_cast<char>(pick(256));
        break;
      case 1: {
        std::vector<std::size_t> digits;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (text[i] >= '0' && text[i] <= '9')
                digits.push_back(i);
        }
        if (!digits.empty())
            out[digits[pick(digits.size())]] =
                static_cast<char>('0' + pick(10));
        break;
      }
      case 2: {
        std::vector<std::size_t> values = stringOffsets(text, false);
        if (values.empty())
            break;
        std::size_t at = values[pick(values.size())];
        std::string from = stringAt(text, at);
        out.replace(at, from.size(),
                    stringAt(text, values[pick(values.size())]));
        break;
      }
      case 3:
        out.resize(pick(out.size()));
        break;
      default: {
        std::vector<std::size_t> keys = stringOffsets(text, true);
        std::size_t at = keys[pick(keys.size())];
        out.insert(at, stringAt(text, at) + ": 0, ");
        break;
      }
    }
    return out;
}

/**
 * Parse and build @p text as topology "m.json". Returns "" if it
 * built, else the fatal message; a panic or a fatal that does not
 * cite m.json:<line> is a test failure tagged with @p what.
 */
std::string
buildOrFatal(const std::string &text, const std::string &what)
{
    setLoggingThrows(true);
    std::string msg;
    try {
        FabricDesc desc =
            parseFabricDesc(topo::parseJson(text, "m.json"), "m.json");
        Simulation sim;
        Fabric fabric(sim, desc);
    } catch (const FatalError &e) {
        msg = e.what();
    } catch (const PanicError &e) {
        ADD_FAILURE() << what << " panicked: " << e.what()
                      << "\n--- input ---\n" << text;
    }
    setLoggingThrows(false);
    if (msg.empty())
        return msg;
    const std::string prefix = "fatal: topology m.json:";
    std::size_t digits = msg.find_first_not_of("0123456789",
                                               prefix.size());
    bool cited = msg.compare(0, prefix.size(), prefix) == 0 &&
                 digits > prefix.size() && digits != std::string::npos &&
                 msg[digits] == ':';
    EXPECT_TRUE(cited) << what << " died without file:line: " << msg
                       << "\n--- input ---\n" << text;
    return msg;
}

TEST(TopologyFuzz, MutantsBuildOrCiteFileAndLine)
{
    std::vector<std::string> paths = exampleTopologies();
    ASSERT_FALSE(paths.empty())
        << "no topologies in " << PCIESIM_TOPOLOGY_DIR;
    unsigned built = 0, rejected = 0;
    for (const std::string &path : paths) {
        const std::string text = slurp(path);
        ASSERT_EQ(buildOrFatal(text, path), "");
        std::mt19937_64 rng(0x70b0f022u);
        for (unsigned i = 0; i < mutantsPerFile; ++i) {
            std::string what = path + " mutant " + std::to_string(i);
            if (buildOrFatal(mutate(text, rng), what).empty())
                ++built;
            else
                ++rejected;
        }
    }
    // The mix must exercise both outcomes.
    EXPECT_GT(built, 0u);
    EXPECT_GT(rejected, 0u);
}

/**
 * Inputs the mutants cannot reach, pinned by hand. Each once
 * crashed, hit an undefined float-to-integer cast, wrapped silently
 * to a small value, silently inherited a default, built and then
 * panicked at run time, or died citing no line.
 */
TEST(TopologyFuzz, PinnedInputsCiteFileAndLine)
{
    const std::pair<const char *, const char *> cases[] = {
        {"{ \"nodes\": [\n { \"name\": \"g\", \"kind\": \"switch\",\n"
         "   \"count\": 4e9 } ] }",
         "m.json:3: key 'count' must be at most 65536"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"a\", \"kind\": \"switch\", \"count\": 40000 },\n"
         " { \"name\": \"b\", \"kind\": \"switch\", \"count\": 40000 }"
         " ] }",
         "m.json:3: the topology expands to more than 65536 nodes"},
        {"{ \"config\": {\n \"threads\": 5e9 } }",
         "m.json:2: key 'threads' must be at most 4294967295"},
        {"{ \"config\": {\n \"fault_seed\": 1e30 } }",
         "m.json:2: key 'fault_seed' must be at most "
         "18446744073709551615"},
        {"{ \"config\": {\n \"rc_latency_ns\": 1e300 } }",
         "m.json:2: key 'rc_latency_ns' is out of range"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"g\", \"kind\": \"traffic_gen\", \"count\": 9 }"
         " ] }",
         "m.json:2: 9 devices attached to the root complex"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"t\", \"kind\": \"switch\", \"count\": 4,"
         " \"ports\": 4 },\n"
         " { \"name\": \"m\", \"kind\": \"switch\", \"count\": 16,"
         " \"ports\": 16, \"parent\": \"t\" } ] }",
         "m.json:3: the tree needs more than 255 buses"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"d\", \"kind\": \"ide_disk\",\n"
         "   \"chunk_size\": 0 } ] }",
         "m.json:3: key 'chunk_size' must be >= 1"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"d\", \"kind\": \"ide_disk\",\n"
         "   \"media_latency_ns\": -5 } ] }",
         "m.json:3: key 'media_latency_ns' must be >= 0"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"d\", \"kind\": \"ide_disk\",\n"
         "   \"media_latency_ns\": 1e300 } ] }",
         "m.json:3: key 'media_latency_ns' is out of range"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
         "   \"inter_burst_gap_ns\": -1 } ] }",
         "m.json:3: key 'inter_burst_gap_ns' must be >= 0"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"n\", \"kind\": \"nic\",\n"
         "   \"desc_processing_ns\": 1e300 } ] }",
         "m.json:3: key 'desc_processing_ns' is out of range"},
        {"{ \"config\": {\n \"replay_buffer_size\": 0 } }",
         "m.json:2: key 'replay_buffer_size' must be >= 1"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
         "   \"link\": { \"replay_buffer_size\": 0 } } ] }",
         "m.json:3: key 'replay_buffer_size' must be >= 1"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
         "   \"link\": { \"width\": 0 } } ] }",
         "m.json:3: key 'width' must be >= 1"},
        {"{ \"config\": {\n \"replay_timeout_scale\": -3 } }",
         "m.json:2: key 'replay_timeout_scale' must be > 0"},
        {"{ \"config\": {\n \"replay_timeout_scale\": 0 } }",
         "m.json:2: key 'replay_timeout_scale' must be > 0"},
        {"{ \"nodes\": [\n"
         " { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
         "   \"link\": { \"bit_error_rate\": -0.5 } } ] }",
         "m.json:3: key 'bit_error_rate' must be >= 0"},
    };
    for (const auto &[text, want] : cases) {
        std::string msg = buildOrFatal(text, text);
        EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
}

} // namespace
