/**
 * @file
 * Offline reporting CLI over the simulator's machine-readable
 * artefacts (DESIGN.md Sec. 9):
 *
 *   pciesim-report diff A.json B.json [--threshold=0.05] [--all]
 *       Compare two pciesim-stats dumps stat by stat. Relative
 *       changes above the threshold are flagged and make the exit
 *       status nonzero, so CI can gate on "this change moved the
 *       stats". Identical dumps exit 0.
 *
 *   pciesim-report top stats.json [--top=N]
 *       Print the host-side profiler hot-spot table embedded in a
 *       stats.json dump (present when the run had --profile).
 *
 *   pciesim-report trajectory BENCH_*.json... [--field=NAME]
 *       Render one-object-per-line bench records (the perf
 *       trajectory convention) as an aligned table.
 *
 *   pciesim-report scaling BENCH_*.json...
 *       Tabulate a --threads sweep (events/sec, speedup, sync
 *       fraction per thread count) and diagnose where lost
 *       speedup went (DESIGN.md Sec. 14).
 *
 *   pciesim-report imbalance stats.json [--top=N]
 *       Rank the hottest and most starved link domains from the
 *       system.parallel.* flight-recorder block of a stats dump.
 *
 * Links only the dependency-free JSON reader (src/sim/json), not
 * the simulator library, so the tool keeps working on dumps from
 * any build (or from a wholly different machine).
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"

namespace
{

using pciesim::json::Value;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "pciesim-report: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/**
 * Parse @p text, which starts on line @p first_line of @p path;
 * on a syntax error print "<path>:<line>: <what>" and return false.
 */
bool
parseJson(const std::string &path, std::size_t first_line,
          const std::string &text, Value &out)
{
    pciesim::json::Error err;
    if (pciesim::json::parse(text, out, err))
        return true;
    std::fprintf(stderr, "pciesim-report: %s:%zu: %s\n", path.c_str(),
                 first_line + err.line - 1, err.what.c_str());
    return false;
}

bool
loadStatsDump(const std::string &path, Value &out)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    if (!parseJson(path, 1, text, out))
        return false;
    if (out.stringOr("schema", "") != "pciesim-stats") {
        std::fprintf(stderr,
                     "pciesim-report: %s: not a pciesim-stats "
                     "dump (schema mismatch)\n",
                     path.c_str());
        return false;
    }
    return true;
}

//
// diff
//

/**
 * Reduce one stat record to the single number the diff compares:
 * the value for counters/scalars/formulas, the total for vectors,
 * and the mean for distributions/histograms.
 */
double
headline(const Value &stat)
{
    const std::string type = stat.stringOr("type", "");
    if (type == "vector")
        return stat.numberOr("total", 0.0);
    if (type == "distribution" || type == "histogram")
        return stat.numberOr("mean", 0.0);
    return stat.numberOr("value", 0.0);
}

/** Relative change from @p a to @p b; infinity when only one side
 *  is zero (a stat appearing or vanishing entirely). */
double
relDelta(double a, double b)
{
    if (a == b)
        return 0.0;
    if (a == 0.0)
        return HUGE_VAL;
    return (b - a) / std::fabs(a);
}

int
cmdDiff(const std::vector<std::string> &args)
{
    double threshold = 0.05;
    bool show_all = false;
    std::vector<std::string> paths;
    for (const std::string &a : args) {
        if (a.rfind("--threshold=", 0) == 0)
            threshold = std::strtod(a.c_str() + 12, nullptr);
        else if (a == "--all")
            show_all = true;
        else
            paths.push_back(a);
    }
    if (paths.size() != 2) {
        std::fprintf(stderr, "usage: pciesim-report diff A.json "
                             "B.json [--threshold=F] [--all]\n");
        return 2;
    }

    Value a, b;
    if (!loadStatsDump(paths[0], a) || !loadStatsDump(paths[1], b))
        return 2;

    std::map<std::string, double> va, vb;
    auto collect = [](const Value &dump,
                      std::map<std::string, double> &out) {
        const Value *stats = dump.find("stats");
        if (!stats)
            return;
        for (const Value &s : stats->arr)
            out[s.stringOr("name", "?")] = headline(s);
    };
    collect(a, va);
    collect(b, vb);

    struct Row
    {
        std::string name;
        double a, b, rel;
        bool flagged;
    };
    std::vector<Row> rows;
    std::set<std::string> names;
    for (const auto &[n, v] : va)
        names.insert(n);
    for (const auto &[n, v] : vb)
        names.insert(n);

    int flagged = 0;
    for (const std::string &n : names) {
        auto ia = va.find(n);
        auto ib = vb.find(n);
        if (ia == va.end() || ib == vb.end()) {
            std::printf("! %-52s %s\n", n.c_str(),
                        ia == va.end() ? "only in B" : "only in A");
            ++flagged;
            continue;
        }
        double rel = relDelta(ia->second, ib->second);
        bool flag = std::fabs(rel) > threshold;
        if (flag)
            ++flagged;
        if (flag || show_all)
            rows.push_back({n, ia->second, ib->second, rel, flag});
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row &x, const Row &y) {
                  if (std::fabs(x.rel) != std::fabs(y.rel))
                      return std::fabs(x.rel) > std::fabs(y.rel);
                  return x.name < y.name;
              });
    for (const Row &r : rows) {
        char pct[32];
        if (std::isinf(r.rel))
            std::snprintf(pct, sizeof(pct), "new/gone");
        else
            std::snprintf(pct, sizeof(pct), "%+8.2f%%",
                          r.rel * 100.0);
        std::printf("%c %-52s %14g -> %14g  %s\n",
                    r.flagged ? '!' : ' ', r.name.c_str(), r.a, r.b,
                    pct);
    }
    std::printf("%d of %zu stats changed by more than %.1f%%\n",
                flagged, names.size(), threshold * 100.0);
    return flagged ? 1 : 0;
}

//
// top
//

int
cmdTop(const std::vector<std::string> &args)
{
    std::size_t top_n = 10;
    std::vector<std::string> paths;
    for (const std::string &a : args) {
        if (a.rfind("--top=", 0) == 0)
            top_n = std::strtoul(a.c_str() + 6, nullptr, 10);
        else
            paths.push_back(a);
    }
    if (paths.size() != 1) {
        std::fprintf(stderr, "usage: pciesim-report top "
                             "stats.json [--top=N]\n");
        return 2;
    }

    Value dump;
    if (!loadStatsDump(paths[0], dump))
        return 2;
    const Value *prof = dump.find("profiler");
    if (!prof || prof->type != Value::Type::Array) {
        std::fprintf(stderr,
                     "pciesim-report: %s has no profiler section "
                     "(run with profiling enabled)\n",
                     paths[0].c_str());
        return 1;
    }

    std::printf("%4s %12s %12s %10s  %s\n", "#", "events", "est_ms",
                "avg_ns", "event");
    std::size_t rank = 0;
    double total_ms = 0.0;
    for (const Value &spot : prof->arr) {
        double count = spot.numberOr("count", 0.0);
        double est_ms = spot.numberOr("estMs", 0.0);
        total_ms += est_ms;
        if (rank >= top_n)
            continue;
        ++rank;
        double avg_ns =
            count > 0.0 ? est_ms * 1e6 / count : 0.0;
        std::printf("%4zu %12.0f %12.3f %10.1f  %s\n", rank, count,
                    est_ms, avg_ns,
                    spot.stringOr("name", "?").c_str());
    }
    std::printf("%zu event types, %.3f ms attributed\n",
                prof->arr.size(), total_ms);
    return 0;
}

//
// trajectory
//

int
cmdTrajectory(const std::vector<std::string> &args)
{
    std::string only_field;
    std::vector<std::string> paths;
    for (const std::string &a : args) {
        if (a.rfind("--field=", 0) == 0)
            only_field = a.substr(8);
        else
            paths.push_back(a);
    }
    if (paths.empty()) {
        std::fprintf(stderr, "usage: pciesim-report trajectory "
                             "BENCH_*.json... [--field=NAME]\n");
        return 2;
    }

    int status = 0;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr,
                         "pciesim-report: cannot open %s\n",
                         path.c_str());
            status = 2;
            continue;
        }
        std::printf("== %s ==\n", path.c_str());
        std::string line;
        std::size_t lineno = 0;
        std::size_t records = 0;
        // Thread-sweep records (bench_kernel mdev16/tN) summarize
        // into one scaling line after the per-record rows.
        std::vector<std::pair<double, double>> sweep;
        while (std::getline(in, line)) {
            ++lineno;
            if (line.find_first_not_of(" \t\r") ==
                std::string::npos)
                continue;
            Value rec;
            if (!parseJson(path, lineno, line, rec)) {
                status = 2;
                break;
            }
            ++records;
            const Value *thr = rec.find("threads");
            const Value *spd = rec.find("speedup_vs_1t");
            if (thr != nullptr && spd != nullptr &&
                thr->type == Value::Type::Number &&
                spd->type == Value::Type::Number)
                sweep.emplace_back(thr->number, spd->number);
            std::printf("%-10s %-12s",
                        rec.stringOr("bench", "?").c_str(),
                        rec.stringOr("config", "?").c_str());
            for (const auto &[key, v] : rec.obj) {
                if (v.type != Value::Type::Number)
                    continue;
                if (!only_field.empty() && key != only_field)
                    continue;
                std::printf("  %s=%g", key.c_str(), v.number);
            }
            std::printf("\n");
        }
        if (!sweep.empty() &&
            (only_field.empty() || only_field == "speedup_vs_1t")) {
            std::printf("parallel scaling:");
            for (const auto &[threads, speedup] : sweep)
                std::printf("  %gt=%.2fx", threads, speedup);
            std::printf("\n");
        }
        if (records == 0) {
            std::fprintf(stderr,
                         "pciesim-report: %s: no records\n",
                         path.c_str());
            status = status ? status : 1;
        }
    }
    return status;
}

//
// scaling
//

/** Strip a "/t<N>" thread-count suffix so a sweep's records group
 *  under one configuration name. */
std::string
sweepKey(const std::string &config)
{
    std::size_t slash = config.rfind("/t");
    if (slash == std::string::npos)
        return config;
    std::size_t digits = slash + 2;
    if (digits >= config.size())
        return config;
    for (std::size_t i = digits; i < config.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(config[i])))
            return config;
    }
    return config.substr(0, slash);
}

int
cmdScaling(const std::vector<std::string> &args)
{
    std::vector<std::string> paths;
    for (const std::string &a : args)
        paths.push_back(a);
    if (paths.empty()) {
        std::fprintf(stderr, "usage: pciesim-report scaling "
                             "BENCH_*.json...\n");
        return 2;
    }

    struct Point
    {
        double threads;
        double eps;       //!< events per second
        double sync;      //!< sync overhead fraction (-1: absent)
        double imbalance; //!< load imbalance (-1: absent)
    };
    // Group (bench, config-without-/tN) -> thread sweep points,
    // in file order.
    std::vector<std::pair<std::string, std::vector<Point>>> groups;
    int status = 0;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr,
                         "pciesim-report: cannot open %s\n",
                         path.c_str());
            status = 2;
            continue;
        }
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            if (line.find_first_not_of(" \t\r") ==
                std::string::npos)
                continue;
            Value rec;
            if (!parseJson(path, lineno, line, rec)) {
                status = 2;
                break;
            }
            const Value *thr = rec.find("threads");
            if (thr == nullptr || thr->type != Value::Type::Number)
                continue; // not a thread-sweep record
            if (thr->number < 1.0)
                continue; // single-queue run, not part of a sweep
            std::string key = rec.stringOr("bench", "?") + " " +
                              sweepKey(rec.stringOr("config", "?"));
            Point p;
            p.threads = thr->number;
            p.eps = rec.numberOr("events_per_sec", 0.0);
            p.sync = rec.numberOr("sync_fraction", -1.0);
            p.imbalance = rec.numberOr("load_imbalance", -1.0);
            auto it = std::find_if(
                groups.begin(), groups.end(),
                [&](const auto &g) { return g.first == key; });
            if (it == groups.end()) {
                groups.push_back({key, {}});
                it = groups.end() - 1;
            }
            it->second.push_back(p);
        }
    }
    if (groups.empty()) {
        std::fprintf(stderr,
                     "pciesim-report: no thread-sweep records "
                     "(need a 'threads' field; run the bench with "
                     "--json across --threads values)\n");
        return status ? status : 1;
    }

    for (auto &[key, pts] : groups) {
        std::sort(pts.begin(), pts.end(),
                  [](const Point &a, const Point &b) {
                      return a.threads < b.threads;
                  });
        double base = 0.0;
        for (const Point &p : pts)
            if (p.threads == 1.0)
                base = p.eps;
        if (base == 0.0 && !pts.empty())
            base = pts.front().eps;
        std::printf("== %s ==\n", key.c_str());
        std::printf("%8s %14s %9s %11s %10s %11s\n", "threads",
                    "events/sec", "speedup", "efficiency",
                    "sync_frac", "imbalance");
        double worst_sync = -1.0;
        for (const Point &p : pts) {
            double speedup = base > 0.0 ? p.eps / base : 0.0;
            double eff =
                p.threads > 0.0 ? speedup / p.threads : 0.0;
            char sync[16] = "-";
            if (p.sync >= 0.0) {
                std::snprintf(sync, sizeof(sync), "%.3f", p.sync);
                worst_sync = std::max(worst_sync, p.sync);
            }
            char imb[16] = "-";
            if (p.imbalance >= 0.0)
                std::snprintf(imb, sizeof(imb), "%.2f",
                              p.imbalance);
            std::printf("%8g %14.3g %8.2fx %10.1f%% %10s %11s\n",
                        p.threads, p.eps, speedup, eff * 100.0,
                        sync, imb);
        }
        // One-line diagnosis: where did the lost speedup go?
        const Point &last = pts.back();
        double speedup = base > 0.0 ? last.eps / base : 0.0;
        double eff = last.threads > 0.0 ? speedup / last.threads
                                        : 0.0;
        if (pts.size() < 2) {
            std::printf("verdict: single point; rerun across "
                        "--threads values for a sweep\n");
        } else if (eff >= 0.7) {
            std::printf("verdict: scaling healthy "
                        "(%.0f%% efficient at %g threads)\n",
                        eff * 100.0, last.threads);
        } else if (worst_sync >= 0.3) {
            std::printf("verdict: synchronization-bound (%.0f%% of "
                        "wall time at barriers); grow the quantum "
                        "or fuse chatty domains\n",
                        worst_sync * 100.0);
        } else if (last.imbalance >= 2.0) {
            std::printf("verdict: load-imbalanced (hottest domain "
                        "%.1fx the mean); see pciesim-report "
                        "imbalance for the partition map\n",
                        last.imbalance);
        } else {
            std::printf("verdict: %.0f%% efficient at %g threads; "
                        "check imbalance and sync_frac with "
                        "--profile telemetry\n",
                        eff * 100.0, last.threads);
        }
    }
    return status;
}

//
// imbalance
//

/** Find one stat record by name in a stats dump; null if absent. */
const Value *
findStat(const Value &dump, const std::string &name)
{
    const Value *stats = dump.find("stats");
    if (!stats)
        return nullptr;
    for (const Value &s : stats->arr)
        if (s.stringOr("name", "") == name)
            return &s;
    return nullptr;
}

double
statValue(const Value &dump, const std::string &name)
{
    const Value *s = findStat(dump, name);
    return s ? headline(*s) : 0.0;
}

int
cmdImbalance(const std::vector<std::string> &args)
{
    std::size_t top_n = 5;
    std::vector<std::string> paths;
    for (const std::string &a : args) {
        if (a.rfind("--top=", 0) == 0)
            top_n = std::strtoul(a.c_str() + 6, nullptr, 10);
        else
            paths.push_back(a);
    }
    if (paths.size() != 1) {
        std::fprintf(stderr, "usage: pciesim-report imbalance "
                             "stats.json [--top=N]\n");
        return 2;
    }

    Value dump;
    if (!loadStatsDump(paths[0], dump))
        return 2;
    const Value *events =
        findStat(dump, "system.parallel.domainEvents");
    if (events == nullptr) {
        std::fprintf(stderr,
                     "pciesim-report: %s has no parallel telemetry "
                     "(system.parallel.*); run with --threads >= 1 "
                     "on a partitionable fabric, in a profiling "
                     "build\n",
                     paths[0].c_str());
        return 1;
    }

    // Pull the per-domain vectors apart; they share subname order.
    const Value *subnames = events->find("subnames");
    const Value *values = events->find("values");
    if (subnames == nullptr || values == nullptr ||
        subnames->arr.size() != values->arr.size()) {
        std::fprintf(stderr,
                     "pciesim-report: %s: malformed domainEvents "
                     "vector\n",
                     paths[0].c_str());
        return 2;
    }
    auto vecValues = [&](const char *name) {
        std::vector<double> out(values->arr.size(), 0.0);
        const Value *s = findStat(dump, name);
        const Value *v = s ? s->find("values") : nullptr;
        if (v == nullptr || v->arr.size() != out.size())
            return out;
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = v->arr[i].number;
        return out;
    };
    std::vector<double> ev(values->arr.size());
    for (std::size_t i = 0; i < ev.size(); ++i)
        ev[i] = values->arr[i].number;
    std::vector<double> active =
        vecValues("system.parallel.domainActiveWindows");
    std::vector<double> stalls =
        vecValues("system.parallel.domainStallWindows");
    std::vector<double> sent =
        vecValues("system.parallel.mailboxSent");
    std::vector<double> recv =
        vecValues("system.parallel.mailboxReceived");

    double total = 0.0;
    for (double e : ev)
        total += e;
    const double mean =
        ev.empty() ? 0.0 : total / static_cast<double>(ev.size());
    std::printf("domains: %zu   windows: %g   events: %g   "
                "quantum: %g ticks\n",
                ev.size(), statValue(dump, "system.parallel.windows"),
                total,
                statValue(dump, "system.parallel.quantumTicks"));
    std::printf("load imbalance (max/mean events): %.2f   "
                "mailbox ops/window: %.3f\n",
                statValue(dump, "system.parallel.loadImbalance"),
                statValue(dump,
                          "system.parallel.mailboxIntensity"));
    double sync =
        statValue(dump, "system.parallel.syncOverheadFraction");
    if (sync > 0.0)
        std::printf("sync overhead fraction: %.3f\n", sync);

    std::vector<std::size_t> order(ev.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    auto row = [&](std::size_t i) {
        std::printf("  %-20s %12.0f %7.1f%% %9.0f %9.0f %9.0f "
                    "%9.0f\n",
                    subnames->arr[i].str.c_str(), ev[i],
                    total > 0.0 ? ev[i] / total * 100.0 : 0.0,
                    active[i], stalls[i], sent[i], recv[i]);
    };
    std::printf("hottest domains (of mean %.0f events):\n", mean);
    std::printf("  %-20s %12s %8s %9s %9s %9s %9s\n", "domain",
                "events", "share", "active", "stalled", "mailTx",
                "mailRx");
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (ev[a] != ev[b])
                      return ev[a] > ev[b];
                  return a < b;
              });
    for (std::size_t i = 0; i < order.size() && i < top_n; ++i)
        row(order[i]);

    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (stalls[a] != stalls[b])
                      return stalls[a] > stalls[b];
                  return a < b;
              });
    if (!order.empty() && stalls[order[0]] > 0.0) {
        std::printf("most starved (lookahead-limited windows):\n");
        for (std::size_t i = 0; i < order.size() && i < top_n; ++i) {
            if (stalls[order[i]] == 0.0)
                break;
            row(order[i]);
        }
    }
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: pciesim-report <command> [args]\n"
        "  diff A.json B.json [--threshold=F] [--all]\n"
        "      compare two stats.json dumps; nonzero exit when any\n"
        "      stat moved more than the threshold (default 0.05)\n"
        "  top stats.json [--top=N]\n"
        "      print the embedded profiler hot-spot table\n"
        "  trajectory BENCH_*.json... [--field=NAME]\n"
        "      render one-object-per-line bench records\n"
        "  scaling BENCH_*.json...\n"
        "      tabulate a --threads sweep (events/sec, speedup,\n"
        "      sync fraction) and diagnose lost parallel speedup\n"
        "  imbalance stats.json [--top=N]\n"
        "      rank the hottest / most starved link domains from\n"
        "      the system.parallel.* telemetry in a stats dump\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "top")
        return cmdTop(args);
    if (cmd == "trajectory")
        return cmdTrajectory(args);
    if (cmd == "scaling")
        return cmdScaling(args);
    if (cmd == "imbalance")
        return cmdImbalance(args);
    return usage();
}
