/**
 * @file
 * Strict JSON validator for the bench_smoke tests. The default
 * (line-oriented) mode requires every non-empty line of the input
 * to parse as one JSON object — the bench --json record convention.
 * With --whole, the entire file must parse as a single JSON value —
 * the stats.json convention. Exits 0 on success, 1 with a
 * "<file>:<line>: <what>" diagnostic otherwise.
 *
 * Uses the tree's RFC 8259 reader (src/sim/json), not a regex, so
 * the smoke tests genuinely prove that "--json output parses": a
 * bench emitting NaN, a bare trailing comma, or an unescaped quote
 * fails here.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"

using namespace pciesim;

int
main(int argc, char **argv)
{
    bool whole = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--whole")
            whole = true;
        else if (path == nullptr)
            path = argv[i];
        else
            path = ""; // too many positionals
    }
    if (path == nullptr || *path == '\0') {
        std::fprintf(stderr,
                     "usage: json_validate [--whole] <file>\n");
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "json_validate: cannot open %s\n",
                     path);
        return 2;
    }

    json::Value doc;
    json::Error err;
    if (whole) {
        std::ostringstream ss;
        ss << in.rdbuf();
        if (!json::parse(ss.str(), doc, err)) {
            std::fprintf(stderr, "json_validate: %s:%u: %s\n", path,
                         err.line, err.what.c_str());
            return 1;
        }
        std::printf("json_validate: whole-file document ok\n");
        return 0;
    }

    std::string line;
    std::size_t lineno = 0;
    std::size_t objects = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (!json::parse(line, doc, err)) {
            std::fprintf(stderr, "json_validate: %s:%zu: %s\n  %s\n",
                         path, lineno, err.what.c_str(), line.c_str());
            return 1;
        }
        if (doc.type != json::Value::Type::Object) {
            std::fprintf(stderr,
                         "json_validate: %s:%zu: record is a %s, "
                         "not an object\n  %s\n",
                         path, lineno, doc.typeName(), line.c_str());
            return 1;
        }
        ++objects;
    }
    if (objects == 0) {
        std::fprintf(stderr, "json_validate: %s: no JSON records\n",
                     path);
        return 1;
    }
    std::printf("json_validate: %zu records ok\n", objects);
    return 0;
}
