/**
 * @file
 * Error-path suite for the declarative topology pipeline: every
 * malformed document — JSON syntax errors, unknown keys, duplicate
 * names, out-of-range values, unresolvable parents — must die with
 * a fatal() citing the source file and the offending line, never a
 * silent default or a crash deeper in the builder (ISSUE 9,
 * satellite 1). The well-formed examples no other test drives must
 * load, build and run their natural workload.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

/**
 * Run @p fn with fatal() rethrowing and return the message it died
 * with ("<no fatal>" if it survived — asserted against below).
 */
std::string
fatalMsg(const std::function<void()> &fn)
{
    setLoggingThrows(true);
    std::string msg = "<no fatal>";
    try {
        fn();
    } catch (const FatalError &e) {
        msg = e.what();
    }
    setLoggingThrows(false);
    return msg;
}

/** Fatal message from parsing @p text as bare JSON. */
std::string
parseMsg(const std::string &text)
{
    return fatalMsg([&] { topo::parseJson(text, "t.json"); });
}

/** Fatal message from parsing @p text into a FabricDesc. */
std::string
descMsg(const std::string &text)
{
    return fatalMsg([&] {
        parseFabricDesc(topo::parseJson(text, "t.json"), "t.json");
    });
}

/**
 * Fatal message from building a Fabric out of @p text. Semantic
 * checks (duplicate names, parent resolution, bus budget) run in
 * Fabric::validate(), before any simulation object exists.
 */
std::string
buildMsg(const std::string &text)
{
    return fatalMsg([&] {
        FabricDesc desc = parseFabricDesc(
            topo::parseJson(text, "t.json"), "t.json");
        Simulation sim;
        Fabric fabric(sim, desc);
    });
}

// ---------------------------------------------------------------
// JSON syntax errors: cite t.json:<line> of the failure point.
// ---------------------------------------------------------------

TEST(TopoParser, UnexpectedEndOfInput)
{
    std::string msg = parseMsg("{ \"nodes\": [");
    EXPECT_NE(msg.find("topology t.json:1:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unexpected end of input"),
              std::string::npos) << msg;
}

TEST(TopoParser, TrailingCharacters)
{
    std::string msg = parseMsg("{}\nxyz");
    EXPECT_NE(msg.find("topology t.json:2:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("trailing characters"), std::string::npos)
        << msg;
}

TEST(TopoParser, DuplicateKeyWithLine)
{
    std::string msg = parseMsg("{\n"
                               " \"style\": \"pcie\",\n"
                               " \"style\": \"pcie\"\n"
                               "}");
    EXPECT_NE(msg.find("topology t.json:3:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("duplicate key 'style'"), std::string::npos)
        << msg;
}

TEST(TopoParser, UnterminatedString)
{
    std::string msg = parseMsg("{\n \"style\": \"pc");
    EXPECT_NE(msg.find("topology t.json:2:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unterminated string"), std::string::npos)
        << msg;
}

TEST(TopoParser, UnsupportedEscape)
{
    std::string msg = parseMsg("{ \"style\": \"a\\x\" }");
    EXPECT_NE(msg.find("string escape"), std::string::npos) << msg;
}

TEST(TopoParser, BadNumberFraction)
{
    std::string msg =
        parseMsg("{ \"config\": { \"rc_latency_ns\": 1. } }");
    EXPECT_NE(msg.find("bad number"), std::string::npos) << msg;
}

TEST(TopoParser, LinesSurviveParsing)
{
    json::Value doc = topo::parseJson(
        "{\n \"nodes\": [\n  {}\n ]\n}", "t.json");
    ASSERT_NE(doc.find("nodes"), nullptr);
    EXPECT_EQ(doc.find("nodes")->line, 2u);
    ASSERT_EQ(doc.find("nodes")->arr.size(), 1u);
    EXPECT_EQ(doc.find("nodes")->arr[0].line, 3u);
}

// ---------------------------------------------------------------
// Description-level errors: unknown keys are never ignored.
// ---------------------------------------------------------------

TEST(TopoDesc, DocumentMustBeObject)
{
    EXPECT_NE(descMsg("[]").find("document must be an object"),
              std::string::npos);
}

TEST(TopoDesc, UnknownTopLevelKey)
{
    std::string msg = descMsg("{\n \"stile\": \"pcie\"\n}");
    EXPECT_NE(msg.find("topology t.json:2:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown key 'stile'"), std::string::npos)
        << msg;
}

TEST(TopoDesc, UnknownConfigKey)
{
    std::string msg =
        descMsg("{\n \"config\": {\n  \"genn\": 3\n }\n}");
    EXPECT_NE(msg.find("topology t.json:3:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown config key 'genn'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, UnknownNodeKey)
{
    std::string msg = descMsg(
        "{\n \"nodes\": [\n"
        "  { \"name\": \"s\", \"kind\": \"switch\",\n"
        "    \"portz\": 4 }\n ]\n}");
    EXPECT_NE(msg.find("topology t.json:4:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown node key 'portz'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, UnknownLinkKey)
{
    std::string msg = descMsg(
        "{ \"nodes\": [ { \"name\": \"s\", \"kind\": \"switch\","
        " \"link\": { \"lanes\": 4 } } ] }");
    EXPECT_NE(msg.find("unknown link key 'lanes'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, UnknownTrafficGenKey)
{
    std::string msg =
        descMsg("{ \"traffic_gen\": { \"burst\": 1 } }");
    EXPECT_NE(msg.find("unknown traffic_gen key 'burst'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, BadStyle)
{
    std::string msg = descMsg("{ \"style\": \"flat\" }");
    EXPECT_NE(msg.find("style must be \"pcie\" or \"legacy-io\""),
              std::string::npos) << msg;
}

TEST(TopoDesc, NodesMustBeArray)
{
    EXPECT_NE(descMsg("{ \"nodes\": 3 }")
                  .find("key 'nodes' must be an array"),
              std::string::npos);
}

TEST(TopoDesc, ConfigGenOutOfRange)
{
    std::string msg = descMsg("{ \"config\": { \"gen\": 6 } }");
    EXPECT_NE(msg.find("config gen must be 1..5"),
              std::string::npos) << msg;
}

TEST(TopoDesc, NodeCountZero)
{
    std::string msg = descMsg(
        "{ \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\", \"count\": 0 } ] }");
    EXPECT_NE(msg.find("node count must be >= 1"),
              std::string::npos) << msg;
}

TEST(TopoDesc, NodeMissingName)
{
    std::string msg =
        descMsg("{ \"nodes\": [ { \"kind\": \"switch\" } ] }");
    EXPECT_NE(msg.find("node is missing a 'name'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, NodeMissingKind)
{
    std::string msg =
        descMsg("{ \"nodes\": [ { \"name\": \"s\" } ] }");
    EXPECT_NE(msg.find("node is missing a 'kind'"),
              std::string::npos) << msg;
}

TEST(TopoDesc, TypeMismatch)
{
    std::string msg = descMsg("{ \"enumerate\": 1 }");
    EXPECT_NE(msg.find("key 'enumerate' must be a bool"),
              std::string::npos) << msg;
}

// Count expansion is the one non-trivial rewrite the parser does;
// pin its naming and round-robin parent distribution.
TEST(TopoDesc, CountExpansionRoundRobin)
{
    FabricDesc desc = parseFabricDesc(
        topo::parseJson(
            "{ \"nodes\": ["
            " { \"name\": \"sw\", \"kind\": \"switch\","
            "   \"count\": 2, \"ports\": 2 },"
            " { \"name\": \"g\", \"kind\": \"traffic_gen\","
            "   \"count\": 4, \"parent\": \"sw\" } ] }",
            "t.json"),
        "t.json");
    ASSERT_EQ(desc.nodes.size(), 6u);
    EXPECT_EQ(desc.nodes[0].name, "sw0");
    EXPECT_EQ(desc.nodes[1].name, "sw1");
    EXPECT_EQ(desc.nodes[2].name, "g0");
    EXPECT_EQ(desc.nodes[2].parent, "sw0");
    EXPECT_EQ(desc.nodes[3].parent, "sw1");
    EXPECT_EQ(desc.nodes[4].parent, "sw0");
    EXPECT_EQ(desc.nodes[5].parent, "sw1");
}

// ---------------------------------------------------------------
// Builder-level semantic errors (Fabric::validate()).
// ---------------------------------------------------------------

TEST(TopoValidate, ReservedRcName)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"rc\","
        " \"kind\": \"switch\" } ] }");
    EXPECT_NE(msg.find("'rc' is reserved"), std::string::npos)
        << msg;
}

TEST(TopoValidate, DuplicateDeviceNameCitesSecondLine)
{
    std::string msg = buildMsg(
        "{\n \"nodes\": [\n"
        "  { \"name\": \"a\", \"kind\": \"traffic_gen\" },\n"
        "  { \"name\": \"a\", \"kind\": \"traffic_gen\" }\n"
        " ]\n}");
    EXPECT_NE(msg.find("topology t.json:4:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("duplicate device name 'a'"),
              std::string::npos) << msg;
}

TEST(TopoValidate, UnknownKind)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"x\","
        " \"kind\": \"gpu\" } ] }");
    EXPECT_NE(msg.find("unknown device kind 'gpu'"),
              std::string::npos) << msg;
}

TEST(TopoValidate, LinkGenOutOfRange)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\","
        " \"link\": { \"gen\": 9 } } ] }");
    EXPECT_NE(msg.find("link gen must be 1..5"), std::string::npos)
        << msg;
}

TEST(TopoValidate, LinkWidthOutOfRange)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\","
        " \"link\": { \"width\": 64 } } ] }");
    EXPECT_NE(msg.find("link width must be 1..32 lanes"),
              std::string::npos) << msg;
}

TEST(TopoValidate, LinkBerOutOfRange)
{
    std::string msg = buildMsg(
        "{\n \"nodes\": [\n"
        "  { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
        "    \"link\": { \"bit_error_rate\": 1.5 } }\n ]\n}");
    EXPECT_NE(msg.find("topology t.json:3:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("link bit error rate must be in [0, 1)"),
              std::string::npos) << msg;
}

TEST(TopoValidate, ConfigBerOutOfRange)
{
    std::string msg = buildMsg(
        "{ \"config\": { \"link_bit_error_rate\": 1.0 },"
        " \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\" } ] }");
    EXPECT_NE(
        msg.find("config link_bit_error_rate must be in [0, 1)"),
        std::string::npos) << msg;
}

TEST(TopoValidate, SwitchPortsOutOfRange)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"s\","
        " \"kind\": \"switch\", \"ports\": 17 } ] }");
    EXPECT_NE(msg.find("switch ports must be 1..16"),
              std::string::npos) << msg;
}

TEST(TopoValidate, UnknownParentForwardReference)
{
    // Parents must be declared before children; a forward (or
    // cyclic) reference is unresolvable by construction.
    std::string msg = buildMsg(
        "{\n \"nodes\": [\n"
        "  { \"name\": \"g\", \"kind\": \"traffic_gen\",\n"
        "    \"parent\": \"s\" },\n"
        "  { \"name\": \"s\", \"kind\": \"switch\" }\n ]\n}");
    EXPECT_NE(msg.find("topology t.json:3:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown parent 's'"), std::string::npos)
        << msg;
}

TEST(TopoValidate, SelfParentIsUnresolvable)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"s\","
        " \"kind\": \"switch\", \"parent\": \"s\" } ] }");
    EXPECT_NE(msg.find("unknown parent 's'"), std::string::npos)
        << msg;
}

TEST(TopoValidate, ParentMustBeSwitch)
{
    std::string msg = buildMsg(
        "{ \"nodes\": ["
        " { \"name\": \"d\", \"kind\": \"ide_disk\" },"
        " { \"name\": \"g\", \"kind\": \"traffic_gen\","
        "   \"parent\": \"d\" } ] }");
    EXPECT_NE(msg.find("parent 'd'"), std::string::npos) << msg;
}

TEST(TopoValidate, SwitchOverCommitted)
{
    std::string msg = buildMsg(
        "{ \"nodes\": ["
        " { \"name\": \"s\", \"kind\": \"switch\","
        "   \"ports\": 1 },"
        " { \"name\": \"g\", \"kind\": \"traffic_gen\","
        "   \"count\": 2, \"parent\": \"s\" } ] }");
    EXPECT_NE(msg.find("more children than its 1 downstream"),
              std::string::npos) << msg;
}

TEST(TopoValidate, TooManyRootPorts)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\", \"count\": 9 } ] }");
    EXPECT_NE(msg.find("at most 8 root ports"), std::string::npos)
        << msg;
}

TEST(TopoValidate, DuplicateLinkName)
{
    std::string msg = buildMsg(
        "{ \"nodes\": ["
        " { \"name\": \"a\", \"kind\": \"traffic_gen\","
        "   \"link\": { \"name\": \"L\" } },"
        " { \"name\": \"b\", \"kind\": \"traffic_gen\","
        "   \"link\": { \"name\": \"L\" } } ] }");
    EXPECT_NE(msg.find("duplicate link name 'L'"),
              std::string::npos) << msg;
}

TEST(TopoValidate, WireConnectsAtMostTwoNics)
{
    std::string msg = buildMsg(
        "{ \"nodes\": [ { \"name\": \"n\","
        " \"kind\": \"nic\", \"count\": 3 } ] }");
    EXPECT_NE(msg.find("more than two NICs"), std::string::npos)
        << msg;
}

TEST(TopoValidate, LegacyIoWantsExactlyOneDisk)
{
    std::string msg = buildMsg(
        "{ \"style\": \"legacy-io\","
        " \"nodes\": [ { \"name\": \"s\","
        " \"kind\": \"switch\" } ] }");
    EXPECT_NE(msg.find("legacy-io style supports exactly one "
                       "ide_disk node"),
              std::string::npos) << msg;
}

TEST(TopoValidate, NonEnumeratedRejectsDisks)
{
    std::string msg = buildMsg(
        "{ \"enumerate\": false,"
        " \"nodes\": [ { \"name\": \"d\","
        " \"kind\": \"ide_disk\" } ] }");
    EXPECT_NE(msg.find("only switch and traffic_gen"),
              std::string::npos) << msg;
}

TEST(TopoValidate, NonEnumeratedRequiresPostedWrites)
{
    std::string msg = buildMsg(
        "{ \"enumerate\": false,"
        " \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\" } ] }");
    EXPECT_NE(msg.find("require posted_writes"), std::string::npos)
        << msg;
}

TEST(TopoValidate, NonEnumeratedRejectsAer)
{
    std::string msg = buildMsg(
        "{ \"enumerate\": false,"
        " \"config\": { \"aer_enabled\": true },"
        " \"traffic_gen\": { \"posted_writes\": true },"
        " \"nodes\": [ { \"name\": \"g\","
        " \"kind\": \"traffic_gen\" } ] }");
    EXPECT_NE(msg.find("AER requires an enumerable fabric"),
              std::string::npos) << msg;
}

TEST(TopoValidate, BusBudgetOverflow)
{
    // 8 root switches x 16 ports: 8 + 8*17 = 144 bridges under the
    // roots... push past 255 with a second level. 4 roots, each
    // with 4 switch children of 16 ports: 4 + 4*5 + 16*17 = 296.
    std::string msg = buildMsg(
        "{ \"nodes\": ["
        " { \"name\": \"top\", \"kind\": \"switch\","
        "   \"count\": 4, \"ports\": 4 },"
        " { \"name\": \"mid\", \"kind\": \"switch\","
        "   \"count\": 16, \"ports\": 16, \"parent\": \"top\" },"
        " { \"name\": \"g\", \"kind\": \"traffic_gen\","
        "   \"count\": 16, \"parent\": \"mid\" } ] }");
    EXPECT_NE(msg.find("more than 255 buses"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("\"enumerate\": false"), std::string::npos)
        << msg;
}

TEST(TopoValidate, FileErrorsCiteTheFilename)
{
    std::string msg = fatalMsg(
        [] { loadFabricDesc("/nonexistent/topo.json"); });
    EXPECT_NE(msg.find("/nonexistent/topo.json"),
              std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot open file"), std::string::npos)
        << msg;
}

TEST(TopoExamples, Tree3LoadsAndRuns)
{
    Simulation sim;
    Fabric fabric(sim, loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/tree3.json"));
    EXPECT_EQ(fabric.numSwitches(), 3u);
    EXPECT_EQ(fabric.numTrafficGens(), 4u);
    fabric.boot();
    EXPECT_GT(fabric.runDirectWrites(2, 4096), 0.0);
}

TEST(TopoExamples, Fanout256LoadsAndRuns)
{
    Simulation sim;
    FabricDesc desc =
        loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/fanout256.json");
    EXPECT_FALSE(desc.enumerate);
    Fabric fabric(sim, desc);
    EXPECT_EQ(fabric.numSwitches(), 17u);
    EXPECT_EQ(fabric.numTrafficGens(), 256u);
    EXPECT_GT(fabric.runDirectWrites(1, 4096), 0.0);
}

} // namespace
