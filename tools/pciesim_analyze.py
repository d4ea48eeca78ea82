#!/usr/bin/env python3
"""Semantic static analyzer for the pciesim tree.

Where tools/gem5_lint.py checks *style*, this tool checks the
*contracts* the simulator's architecture rests on (DESIGN.md Sec. 11)
in three passes:

  layering       the #include graph must respect the declared layer
                 order (sim <- mem <- pci <- pcie <- dev <- os <-
                 topo <- bench/tools) and contain no include cycles.
                 `--dot FILE` writes the observed layer graph as DOT.

  determinism    model code under src/ must not read wall clocks,
                 use unseeded randomness, iterate unordered
                 containers on any path that feeds a stats dump /
                 trace sink / JSON emitter, or order data by raw
                 pointer values.  All of these make output depend on
                 host state and break the byte-identical 1-vs-N
                 parallel determinism gates.

  domain safety  under the parallel engine (DESIGN.md Sec. 10) a
                 SimObject may only schedule onto its own home
                 queue; cross-domain event traffic goes through the
                 PcieLink mailbox.  File-scope mutable state in src/
                 must be synchronized or declared single-threaded.

Rule ids:

  layering               upward or sideways #include between layers
  include-cycle          cycle in the file-level include graph
  topo-dev-include       src/topo/ file other than the fabric
                         builder's registration surface including a
                         dev/ header; topologies are declarative
                         descriptions, only the builder names models
  wall-clock             std::chrono clocks, time(), gettimeofday()
  unseeded-rng           rand()/srand(), std::random_device, or a
                         std <random> engine with no Rng-derived seed
  unordered-emit         unordered container iterated inside a
                         function reachable from an emit entry point
  pointer-order          ordered container keyed by a pointer type
  cross-domain-schedule  ->schedule()/->deschedule() on a queue that
                         is not the caller's own home queue
  shared-state           mutable file-scope/static state without
                         atomics, a lock, or an annotation
  bad-suppression        ignore[...] pragma with no reason string

Escape hatches (shared grammar with gem5-lint, see
pciesim_common.py; the reason string is mandatory):

  // pciesim-analyze: ignore[rule-id]: <why this is safe>
  // pciesim-analyze: single-threaded: <why> (shared-state only)
  // pciesim-analyze: ignore-file   (first 10 lines) skip the file

A `--baseline findings.json` file tolerates pre-existing findings
per (file, rule) with a count, so a legacy tree can be ratcheted
down instead of blocking; baseline entries that no longer fire
print a "stale baseline" warning so the file shrinks over time.

Usage: pciesim_analyze.py [--tree ROOT | PATH ...] [--dot FILE]
                          [--baseline FILE] [--quiet]
Exits 0 when clean, 1 when any finding survives, 2 on usage error.
"""

import argparse
import json
import re
import sys
from pathlib import Path

from pciesim_common import Finding, PragmaSet, iter_files, \
    strip_comments

PRAGMA_TAG = "pciesim-analyze"
SINGLE_THREADED = PRAGMA_TAG + ": single-threaded"

# ---------------------------------------------------------------
# Layer contract.  A layer may include itself and anything listed;
# the list is the transitive closure of the architecture diagram in
# DESIGN.md Sec. 11.  bench/, tools/, tests/ and examples/ sit above
# topo and may include any src layer.
# ---------------------------------------------------------------

LAYER_ORDER = ["sim", "mem", "pci", "pcie", "dev", "os", "topo"]

ALLOWED_INCLUDES = {}
for _i, _layer in enumerate(LAYER_ORDER):
    ALLOWED_INCLUDES[_layer] = set(LAYER_ORDER[:_i + 1])

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# ---------------------------------------------------------------
# Determinism patterns.
# ---------------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0|&|\))"
    r"|\bclock\s*\(\s*\)")

RNG_CALL_RE = re.compile(
    r"\b(?:rand|srand|rand_r|drand48|random)\s*\("
    r"|std::random_device")

RNG_ENGINE_RE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|"
    r"default_random_engine|knuth_b)\b")

RNG_SEEDED_RE = re.compile(r"[Rr]ng|[Ss]eed")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;(){]*>\s*"
    r"&?\s*([A-Za-z_]\w*)\s*[;{=(,)]")

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^;:()]*:\s*([^)]+)\)")

POINTER_KEY_RE = re.compile(
    r"(?<!unordered_)\b(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*")

# Function names that write simulator output: stats dumps, trace
# sinks, JSON emitters, report tables.  These seed the emit taint.
EMIT_NAME_RE = re.compile(
    r"^(?:dump|emit|flush|print|report|serialize)"
    r"|json|sink", re.IGNORECASE)

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "alignof", "decltype", "static_assert", "assert", "defined",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

# ---------------------------------------------------------------
# Domain-safety patterns.
# ---------------------------------------------------------------

SCHEDULE_RE = re.compile(
    r"([A-Za-z_]\w*(?:\(\))?(?:(?:->|\.)[A-Za-z_]\w*(?:\(\))?)*)"
    r"\s*->\s*((?:de|re)?schedule)\s*\(")

# Receivers that are by construction the caller's own home queue.
OWN_QUEUE_RECEIVERS = {"homeQueue_", "eventq()", "this"}

# Files implementing the sanctioned cross-domain machinery: the
# parallel engine itself and the PcieLink mailbox paths. Everything
# else crosses domains through Simulation::callAt (DESIGN.md §10).
CROSS_DOMAIN_FILES = ("sim/parallel.cc", "pcie/pcie_link.cc")

STATIC_DECL_RE = re.compile(
    r"^\s*static\s+(?!constexpr\b|const\b|class\b|struct\b|enum\b)"
    r"(?:[\w:]+(?:\s*<[^;{}]*>)?(?:\s*[*&])*\s+)+"
    r"\*?\s*([A-Za-z_]\w*)\s*(?:[;={(]|\[)")

SYNC_TYPE_RE = re.compile(
    r"std::\s*(?:mutex|recursive_mutex|shared_mutex|once_flag|"
    r"atomic|condition_variable)")

LOCK_RE = re.compile(r"\b(?:lock_guard|scoped_lock|unique_lock|"
                     r"shared_lock)\b")


def layer_of(path):
    """Return (layer, relpath-within-src) for a file under a src/
    directory, or (None, None) for bench/tools/tests files, which
    are unconstrained by the layer contract."""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "src" and i + 2 < len(parts) + 1:
            rest = parts[i + 1:]
            if len(rest) >= 2:
                return rest[0], "/".join(rest)
    return None, None


class FileInfo:
    """Parsed per-file facts shared by the passes."""

    def __init__(self, path):
        self.path = path
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.pragmas = PragmaSet(PRAGMA_TAG, self.lines)
        self.code = strip_comments(self.lines)
        self.layer, self.src_rel = layer_of(path)
        self.includes = []          # (lineno, target-string)
        for i, line in enumerate(self.code, start=1):
            m = INCLUDE_RE.match(line)
            if m:
                self.includes.append((i, m.group(1)))


# ---------------------------------------------------------------
# Pass A: layering + include cycles + DOT dump.
# ---------------------------------------------------------------

def check_layering(info, report):
    if info.layer is None:
        return
    allowed = ALLOWED_INCLUDES.get(info.layer)
    if allowed is None:
        return                      # unknown dir under src/: skip
    for lineno, target in info.includes:
        tparts = target.split("/")
        tlayer = tparts[0] if len(tparts) > 1 else info.layer
        if tlayer not in ALLOWED_INCLUDES:
            continue                # not a layer-qualified include
        if tlayer not in allowed:
            report(info, lineno, "layering",
                   "layer '%s' must not include layer '%s' "
                   "(order: %s)"
                   % (info.layer, tlayer,
                      " <- ".join(LAYER_ORDER)))


# The builder's registration surface: the only topo files allowed
# to name concrete device models. Everything else under src/topo/
# (topology wrappers, future shapes) must stay declarative and go
# through FabricDesc/FabricNodeDesc instead.
TOPO_DEV_ALLOWED = {
    "topo/fabric_builder.hh",
    "topo/fabric_builder.cc",
    "topo/system_config.hh",
}


def check_topo_dev(info, report):
    """Downward dev/ includes are legal layering-wise, but in topo
    they re-open the door the declarative builder closed: a wrapper
    that wires device objects by hand can drift from the JSON path
    it is supposed to mirror."""
    if info.layer != "topo" or info.src_rel in TOPO_DEV_ALLOWED:
        return
    for lineno, target in info.includes:
        if target.split("/")[0] == "dev":
            report(info, lineno, "topo-dev-include",
                   "topo file includes '%s'; device models are "
                   "reachable only through the fabric builder's "
                   "registration surface (%s)"
                   % (target, ", ".join(sorted(TOPO_DEV_ALLOWED))))


def resolve_include(info, target, by_rel):
    """Map an include string to a FileInfo in the analyzed set."""
    if "/" in target:
        return by_rel.get(target)
    if info.src_rel is None:
        return None
    samedir = str(Path(info.src_rel).parent / target)
    return by_rel.get(samedir.replace("\\", "/"))


def check_cycles(infos, report):
    """DFS over the file-level include graph; report each cycle
    once, on its lexicographically first member."""
    by_rel = {i.src_rel: i for i in infos if i.src_rel}
    graph = {}
    for info in infos:
        if not info.src_rel:
            continue
        edges = []
        for _, target in info.includes:
            dep = resolve_include(info, target, by_rel)
            if dep is not None and dep.src_rel != info.src_rel:
                edges.append(dep.src_rel)
        graph[info.src_rel] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack = []
    cycles = []

    def dfs(n):
        color[n] = GREY
        stack.append(n)
        for dep in graph.get(n, ()):
            if color.get(dep, BLACK) == WHITE:
                dfs(dep)
            elif color.get(dep) == GREY:
                cyc = stack[stack.index(dep):] + [dep]
                cycles.append(cyc)
        stack.pop()
        color[n] = BLACK

    for n in sorted(graph):
        if color[n] == WHITE:
            dfs(n)

    seen = set()
    for cyc in cycles:
        key = frozenset(cyc)
        if key in seen:
            continue
        seen.add(key)
        first = min(cyc[:-1])
        info = by_rel[first]
        report(info, 1, "include-cycle",
               "include cycle: %s" % " -> ".join(cyc))


def write_dot(infos, out_path):
    """Write the observed layer-level include graph as DOT, for the
    docs (checked in as docs/layers.dot)."""
    edges = set()
    layers = set()
    for info in infos:
        if info.layer is None:
            continue
        layers.add(info.layer)
        for _, target in info.includes:
            tparts = target.split("/")
            tlayer = tparts[0] if len(tparts) > 1 else info.layer
            if tlayer in ALLOWED_INCLUDES and tlayer != info.layer:
                edges.add((info.layer, tlayer))
                layers.add(tlayer)
    lines = [
        "// Layer-level #include graph of src/, generated by",
        "//   tools/pciesim_analyze.py --tree src --dot ...",
        "// An edge A -> B means files in layer A include layer B.",
        "digraph pciesim_layers {",
        "    rankdir=BT;",
        "    node [shape=box, fontname=\"monospace\"];",
    ]
    for layer in LAYER_ORDER:
        if layer in layers:
            lines.append("    \"%s\";" % layer)
    for a, b in sorted(edges):
        lines.append("    \"%s\" -> \"%s\";" % (a, b))
    lines.append("}")
    Path(out_path).write_text("\n".join(lines) + "\n",
                              encoding="utf-8")


# ---------------------------------------------------------------
# Pass B: determinism.
# ---------------------------------------------------------------

def check_determinism_lines(info, report):
    if info.layer is None:
        return                      # model-code rules: src/ only
    for i, line in enumerate(info.code, start=1):
        if WALL_CLOCK_RE.search(line):
            report(info, i, "wall-clock",
                   "wall-clock read in model code; simulated time "
                   "must come from curTick()")
        if RNG_CALL_RE.search(line):
            report(info, i, "unseeded-rng",
                   "unseeded/libc randomness; use the seeded "
                   "sim/rng.hh Rng")
        elif RNG_ENGINE_RE.search(line) and \
                not RNG_SEEDED_RE.search(line):
            report(info, i, "unseeded-rng",
                   "std <random> engine constructed without an "
                   "Rng-derived seed")
        if POINTER_KEY_RE.search(line):
            report(info, i, "pointer-order",
                   "ordered container keyed by a pointer; "
                   "iteration order follows the allocator, not "
                   "the simulation")


def parse_functions(info):
    """Lexically split a file into (name, start, end, body-lines)
    top-level function extents.  Handles the repo's two definition
    styles: .cc definitions with the declarator at column 0 under
    its return type, and indented inline methods in class bodies.
    Nested braces (lambdas, scopes) stay inside the enclosing
    function."""
    sig_re = re.compile(
        r"(~?[A-Za-z_]\w*)\s*\([^;{}]*(?:\)[\s\w:]*)?$")
    funcs = []
    depth_at_open = None
    cur = None
    depth = 0
    pending_sig = None
    for i, line in enumerate(info.code, start=1):
        stripped = line.strip()
        if cur is None and depth_at_open is None:
            if "{" not in line:
                # Remember a potential signature; `{` may come on
                # the next line (gem5 style).
                seg = stripped.rstrip()
                if seg.endswith(")") or seg.endswith("const") \
                        or seg.endswith("noexcept") \
                        or seg.endswith("override"):
                    m = sig_re.search(seg)
                    if m and m.group(1) not in CALL_KEYWORDS:
                        pending_sig = (m.group(1), i)
                    else:
                        pending_sig = None
                elif seg and not seg.endswith(","):
                    pending_sig = None
        for ch in line:
            if ch == "{":
                if cur is None:
                    name = None
                    start = i
                    before = line[:line.index("{")].strip()
                    if before:
                        m = sig_re.search(before)
                        if m and m.group(1) not in CALL_KEYWORDS:
                            name = m.group(1)
                    elif pending_sig:
                        name, start = pending_sig
                    if name:
                        cur = [name, start, None]
                        depth_at_open = depth
                depth += 1
            elif ch == "}":
                depth -= 1
                if cur is not None and depth == depth_at_open:
                    cur[2] = i
                    funcs.append(tuple(cur))
                    cur = None
                    depth_at_open = None
        if "{" in line or stripped.endswith(";"):
            pending_sig = None
    return funcs


def check_unordered_emit(info, report):
    if info.layer is None:
        return
    unordered = set()
    for line in info.code:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered.add(m.group(1))
    funcs = parse_functions(info)
    if not funcs:
        return

    def body(f):
        return info.code[f[1] - 1:f[2]]

    calls = {}
    for f in funcs:
        callees = set()
        for line in body(f):
            for m in CALL_RE.finditer(line):
                if m.group(1) not in CALL_KEYWORDS:
                    callees.add(m.group(1))
        calls[f] = callees

    tainted = {f for f in funcs if EMIT_NAME_RE.search(f[0])}
    by_name = {}
    for f in funcs:
        by_name.setdefault(f[0], []).append(f)
    frontier = list(tainted)
    while frontier:
        f = frontier.pop()
        for callee in calls[f]:
            for g in by_name.get(callee, ()):
                if g not in tainted:
                    tainted.add(g)
                    frontier.append(g)

    for f in sorted(tainted, key=lambda f: f[1]):
        for off, line in enumerate(body(f)):
            m = RANGE_FOR_RE.search(line)
            if not m:
                continue
            expr = m.group(1)
            words = set(re.findall(r"[A-Za-z_]\w*", expr))
            hit = sorted(words & unordered)
            if not hit and "unordered" not in expr:
                continue
            report(info, f[1] + off, "unordered-emit",
                   "iteration over unordered container '%s' in "
                   "'%s', which is reachable from an emit entry "
                   "point; unordered iteration order may leak "
                   "into dumps" % (hit[0] if hit else "?", f[0]))


# ---------------------------------------------------------------
# Pass C: domain safety.
# ---------------------------------------------------------------

def check_cross_domain(info, report):
    if info.layer is None:
        return
    if info.src_rel and info.src_rel.endswith(CROSS_DOMAIN_FILES):
        return
    for i, line in enumerate(info.code, start=1):
        for m in SCHEDULE_RE.finditer(line):
            receiver = m.group(1)
            if receiver in OWN_QUEUE_RECEIVERS:
                continue
            report(info, i, "cross-domain-schedule",
                   "'%s->%s(' schedules through '%s', which is "
                   "not the caller's home queue; cross-domain "
                   "events must go through the PcieLink mailbox"
                   % (receiver, m.group(2), receiver))


def annotated_single_threaded(info, lineno):
    """The annotation may trail the declaration or sit in the
    contiguous comment block directly above it."""
    if SINGLE_THREADED in info.lines[lineno - 1]:
        return True
    j = lineno - 1
    while j >= 1 and info.lines[j - 1].strip().startswith("//"):
        if SINGLE_THREADED in info.lines[j - 1]:
            return True
        j -= 1
    return False


def check_shared_state(info, report):
    if info.layer is None or info.path.suffix not in (".cc", ".cpp"):
        return
    for i, line in enumerate(info.code, start=1):
        if "thread_local" in line or "static_assert" in line:
            continue
        m = STATIC_DECL_RE.match(line)
        if not m:
            continue
        if SYNC_TYPE_RE.search(line):
            continue                # the guard object itself
        # A static whose use is bracketed by a lock on the very
        # next lines counts as guarded.
        window = info.code[i:i + 3]
        if any(LOCK_RE.search(w) for w in window):
            continue
        if annotated_single_threaded(info, i):
            continue
        report(info, i, "shared-state",
               "mutable static '%s' is shared across parallel "
               "workers; use std::atomic, guard it with a lock, "
               "or annotate '// %s: <why>'"
               % (m.group(1), SINGLE_THREADED))


# ---------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------

def analyze(paths):
    """Run all passes; returns (findings, infos)."""
    findings = []
    infos = []
    for path in iter_files(paths):
        info = FileInfo(path)
        if info.pragmas.skip_file:
            continue
        infos.append(info)

    def report(info, lineno, rule, message):
        if info.pragmas.line_off(lineno):
            return
        if info.pragmas.rule_ignored(lineno, rule):
            return
        findings.append(Finding(info.path, lineno, rule, message))

    for info in infos:
        for lineno, rule in info.pragmas.bad_suppressions:
            findings.append(Finding(
                info.path, lineno, "bad-suppression",
                "ignore[%s] pragma without a reason string; write "
                "'// %s: ignore[%s]: <why this is safe>'"
                % (rule, PRAGMA_TAG, rule)))
        check_layering(info, report)
        check_topo_dev(info, report)
        check_determinism_lines(info, report)
        check_unordered_emit(info, report)
        check_cross_domain(info, report)
        check_shared_state(info, report)
    check_cycles(infos, report)

    findings.sort(key=lambda f: (str(f.path), f.line, f.check))
    return findings, infos


def apply_baseline(findings, baseline_path):
    """Subtract baselined findings; return (kept, stale) where
    stale lists (file, rule, allowed, seen) for ratcheting."""
    data = json.loads(Path(baseline_path).read_text())
    allowance = {}
    for entry in data.get("findings", []):
        key = (entry["file"], entry["rule"])
        allowance[key] = allowance.get(key, 0) + \
            int(entry.get("count", 1))
    seen = {}
    kept = []
    for f in findings:
        key = (norm_key(f.path), f.check)
        seen[key] = seen.get(key, 0) + 1
        if seen.get(key, 0) <= allowance.get(key, 0):
            continue
        kept.append(f)
    stale = []
    for key, allowed in sorted(allowance.items()):
        if seen.get(key, 0) < allowed:
            stale.append((key[0], key[1], allowed,
                          seen.get(key, 0)))
    return kept, stale


def norm_key(path):
    """Baseline file keys: path from the last src/ component when
    present, else the plain path, so baselines survive both
    `--tree src` and absolute-path invocations."""
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "src":
            return "/".join(parts[i:])
    return "/".join(parts)


def main(argv):
    parser = argparse.ArgumentParser(
        description="semantic static analyzer for the pciesim tree "
                    "(layering, determinism, domain safety)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--tree", metavar="ROOT",
                        help="analyze the whole tree rooted at ROOT")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the layer include graph as DOT")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON of tolerated pre-existing "
                             "findings (ratchet)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args(argv)

    paths = list(args.paths)
    if args.tree:
        paths.append(args.tree)
    if not paths:
        parser.error("no paths given (use --tree ROOT or PATH ...)")

    try:
        findings, infos = analyze(paths)
    except FileNotFoundError as e:
        print("pciesim_analyze: no such path: %s" % e,
              file=sys.stderr)
        return 2

    if args.dot:
        write_dot(infos, args.dot)

    if args.baseline:
        try:
            findings, stale = apply_baseline(findings,
                                             args.baseline)
        except (OSError, ValueError, KeyError) as e:
            print("pciesim_analyze: bad baseline: %s" % e,
                  file=sys.stderr)
            return 2
        for file, rule, allowed, seen in stale:
            print("pciesim_analyze: stale baseline entry: "
                  "%s [%s] allows %d finding(s) but only %d "
                  "fire(s); ratchet the baseline down"
                  % (file, rule, allowed, seen), file=sys.stderr)

    if not args.quiet:
        for f in findings:
            print(f)
    print("pciesim_analyze: %d file(s), %d finding(s)"
          % (len(infos), len(findings)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
