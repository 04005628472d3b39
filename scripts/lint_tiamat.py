#!/usr/bin/env python3
"""Tiamat repo analyzer: determinism, hygiene and concurrency rules.

The matching engine's correctness contract (DESIGN.md #7, #8) rests on
ordering invariants that ordinary C++ review tools do not see: candidate
lists must be produced in ascending id order, waiter wakeup must be FIFO,
and nothing in library code may consult a nondeterministic source (hash-map
iteration order, wall clocks, raw PRNGs). On top of those per-file rules,
the analyzer reads build/compile_commands.json and parses across
translation units to machine-check the repo's *concurrency* story
(DESIGN.md #11): the strand-confinement contract protocol code is written
against, the thread-safety-annotation coverage the `tsa` preset compiles
under, and the trace-event vocabulary `tiamat-inspect` must stay able to
parse.

Per-file rules (each finding is `path:line: [rule] message`):

  unordered-iter  Range-for over (or *.begin() of) a container declared as
                  std::unordered_map/std::unordered_set anywhere in the
                  file's direct include scope. Results, replies and victim
                  selection must flow through sorted-id or engine paths.
  wall-clock      std::chrono clocks / time() / gettimeofday in src/:
                  protocol code must read time via transport::Clock only.
                  Exempt under src/transport/ — the loopback backend is the
                  one place that legitimately consults steady_clock.
  raw-random      rand()/srand()/std::random_device/std::mt19937 outside
                  src/sim/random.h: all randomness flows through sim::Rng
                  so runs are seed-reproducible.
  stdio           std::cout / std::cerr / printf-family in src/: library
                  code reports through obs:: or return values, never the
                  process's stdio (the audit trap dump is allowlisted).
  pragma-once     Every header in src/ starts its include guard with
                  #pragma once.
  include-path    Quoted project includes are root-relative ("tuple/x.h",
                  never "x.h" or "../tuple/x.h") and must resolve to a file
                  under src/.
  layering        The engine layers may only include downward:
                  src/audit -> {audit}; src/sim -> {sim, transport};
                  src/transport -> {transport, sim};
                  src/obs -> {obs, transport, audit};
                  src/tuple -> {tuple, obs, transport, audit}.
  sim-network     `#include "sim/network.h"` is confined to src/sim/, the
                  fault-scripting chaos harness (src/chaos/), and the
                  SimTransport adapter (src/transport/sim_transport.h).
                  Everything else talks transport::Transport; naming the sim
                  directly would silently couple protocol code to one
                  backend.
  concurrency     <thread>/<mutex>/<atomic>/<condition_variable> (and kin)
                  only under src/transport/. Protocol and engine code is
                  single-strand by contract — serialized per node by the
                  transport — and must not grow its own locking. The two
                  lock-free observability primitives (obs/cells.h relaxed
                  cells, obs/trace_ring.h SPSC ring) are the explicit,
                  file-by-file <atomic> allowlist — nothing else in obs/
                  gets threads or locks.
  unused-include  A header from the watched set (<unordered_map>,
                  <iostream>, <fstream>, <sstream>, <map>, ...) included
                  with no matching token use in the file. Applies to src/
                  and bench/ (headers dragging <fstream> tax every
                  includer).
  metric-name     Every metric name passed to Registry::counter/gauge/
                  sketch in src/ or bench/ (string literal, or the
                  `prefix + ".suffix"` idiom) must appear in the
                  checked-in catalog src/obs/metric_names.h, so a typo
                  cannot silently mint a fresh forever-zero instrument —
                  and every catalogued name must still be minted somewhere,
                  so the catalog cannot drift into fiction.

Cross-TU rules (compile-DB-aware; fall back to walking src/ when
build/compile_commands.json does not exist, e.g. on a fresh checkout):

  strand-confinement   The contract that keeps protocol code lock-free:
                  work crosses strands only through the audited transport
                  entry points (Transport::post/bind/wait_until,
                  TimerService::schedule_at/schedule_after). Findings:
                  (a) a std::function-taking virtual on the Transport/
                  TimerService surface that is not in the audited sink
                  list; (b) protocol code (src/ outside transport/ and
                  sim/) passing a capturing lambda to a non-sink method of
                  a Transport/TimerService-typed receiver; (c) any
                  std::thread/std::async/std::jthread expression in
                  protocol code.
  event-kind      Every obs::EventKind enumerator must (a) have a
                  `case EventKind::kX:` in to_string (trace.cc) — the one
                  table event_kind_from_string and the inspectors walk;
                  (b) be produced somewhere in src/ outside the obs
                  consumer files; and (c) the event_kind_from_string loop
                  bound must name the *last* enumerator, or kinds appended
                  after it are silently unparseable by tiamat-inspect.
  annotation-coverage  Every mutex-typed member in src/ must be a
                  transport::Mutex (clang TSA cannot see through a raw
                  std::mutex) and must appear in at least one
                  TIAMAT_GUARDED_BY / TIAMAT_REQUIRES / TIAMAT_ACQUIRE /
                  TIAMAT_EXCLUDES relationship somewhere in the tree.
                  src/transport/thread_annotations.h (the wrapper's own
                  internals) is exempt.
  stale-allowlist Every entry in scripts/lint_allowlist.txt must suppress
                  at least one live finding; an entry that no longer
                  matches anything is rot and must be deleted. Only checked
                  when the entry's rule is in the active rule set.

Audited exceptions live in scripts/lint_allowlist.txt; see that file for
the format and policy.

Usage: scripts/lint_tiamat.py [--root DIR] [--list-rules]
                              [--rules R1,R2,...] [--format text|json]
                              [--output FILE] [--compile-db PATH]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

SRC_EXTS = (".h", ".cc")

# Layer -> project include prefixes it may use. Directories not listed are
# unconstrained (they sit above the engine layers).
LAYERS = {
    "audit": ("audit/",),  # trap infra sits below everything it audits
    # sim/event_queue.h implements transport::TimerService (the queue IS the
    # simulator's timer backend), so sim reaches up to that one vocabulary
    # layer; everything else in sim stays self-contained.
    "sim": ("sim/", "transport/"),
    # transport's vocabulary aliases the sim's leaf headers (clock, random)
    # and SimTransport adapts the full simulator; the sim-network rule below
    # still confines sim/network.h to that single adapter.
    "transport": ("transport/", "sim/"),
    "obs": ("obs/", "transport/", "audit/"),  # time/ids via transport types
    "tuple": ("tuple/", "obs/", "transport/", "audit/"),
}

# Who may include the simulator's network header. Protocol code (src/net,
# src/core, src/lease, src/space, ...) must reach the substrate exclusively
# through transport::Transport; scenario scripting in tests/benches goes
# through SimTransport::network(). The chaos harness is scenario scripting
# that lives in src/ (it drives partitions, loss bursts and mobility against
# the simulated network directly), so src/chaos/ joins src/sim/ and the
# SimTransport adapter on the allowed list.
SIM_NETWORK_HEADER = "sim/network.h"
SIM_NETWORK_SCRIPTING = ("src/sim/", "src/chaos/")
SIM_NETWORK_ADAPTER = "src/transport/sim_transport.h"

# Real-thread machinery is the loopback backend's implementation detail;
# protocol and engine code must stay single-strand (deterministic under the
# sim, strand-serialized under loopback) and so may not name it.
CONCURRENCY_HEADERS = {
    "thread", "mutex", "shared_mutex", "atomic", "condition_variable",
    "future", "stop_token", "semaphore", "barrier", "latch",
}

# The concurrent-observability primitives: relaxed-atomic metric cells and
# the per-thread SPSC trace ring. They may use <atomic> (and only <atomic>)
# outside src/transport/ — writers are loopback strands, so the cells must
# be lock-free, but threads/mutexes stay banned (drain/snapshot protocols
# go through transport::Mutex via transport/thread_annotations.h).
CONCURRENCY_OBS_ALLOWLIST = {
    "src/obs/cells.h": {"atomic"},
    "src/obs/trace_ring.h": {"atomic"},
}

UNUSED_INCLUDE_TOKENS = {
    "unordered_map": "unordered_map",
    "unordered_set": "unordered_set",
    "iostream": r"std::(cin|cout|cerr|clog)",
    "cstdio": r"\b(printf|fprintf|sprintf|snprintf|puts|fputs|fopen)\b",
    "fstream": r"std::(i|o)?fstream|std::filebuf",
    "sstream": r"std::[io]?stringstream|std::stringbuf",
    "optional": r"std::optional|std::nullopt|std::make_optional",
    "map": r"std::(multi)?map\s*<",
    "set": r"std::(multi)?set\s*<",
    "deque": r"std::deque\s*<",
    "queue": r"std::(priority_)?queue\s*<",
    "array": r"std::array\s*<",
}

RULES = (
    "unordered-iter",
    "wall-clock",
    "raw-random",
    "stdio",
    "pragma-once",
    "include-path",
    "layering",
    "sim-network",
    "concurrency",
    "unused-include",
    "metric-name",
    "strand-confinement",
    "event-kind",
    "annotation-coverage",
    "stale-allowlist",
)

# Rules that apply to bench/ sources as well as src/. Bench code records
# into the same registry (names share the catalog contract) and its headers
# tax includers the same way; the determinism rules stay src/-only — benches
# legitimately use stdio, wall clocks, and google-benchmark internals.
BENCH_RULES = ("metric-name", "unused-include")

METRIC_CATALOG_HEADER = os.path.join("src", "obs", "metric_names.h")
ALLOWLIST_PATH = os.path.join("scripts", "lint_allowlist.txt")
DEFAULT_COMPILE_DB = os.path.join("build", "compile_commands.json")

# ---- strand-confinement vocabulary ------------------------------------------

# The audited cross-strand entry points. A callback handed to one of these
# runs on the destination node's strand (transport/transport.h's threading
# contract), so protocol code stays single-threaded by construction. Any
# OTHER path that moves a capturing lambda through the transport surface —
# or a new std::function-taking virtual on that surface — needs a strand-
# safety argument and a deliberate extension of this list.
STRAND_SINKS = frozenset(
    {"post", "bind", "wait_until", "schedule_at", "schedule_after"})

TRANSPORT_SURFACE_HEADERS = (
    os.path.join("src", "transport", "transport.h"),
    os.path.join("src", "transport", "timer.h"),
)

# Layers exempt from the protocol-side confinement scan: transport IS the
# threaded substrate, and sim is the single-threaded backend driving
# callbacks synchronously.
STRAND_EXEMPT_PREFIXES = ("src/transport/", "src/sim/")

THREAD_SPAWN_RE = re.compile(r"std::(thread|jthread|async)\b")

# `transport::Transport& tx_;` / `Transport* t` / constructor params — the
# receiver index for the confinement scan.
TRANSPORT_RECV_DECL_RE = re.compile(
    r"(?:transport::)?(?:Transport|TimerService)\s*[&*]\s*(\w+)")

MEMBER_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*(\w+)\s*\(")
TIMERS_CALL_RE = re.compile(r"\btimers\s*\(\s*[^()]*\)\s*(?:\.|->)\s*(\w+)\s*\(")

# A lambda with a non-empty capture list ("[&]", "[this]", "[x, &y]" — not
# "[]"): the only lambda shape that can smuggle strand state.
CAPTURING_LAMBDA_RE = re.compile(r"\[(?=[^\]]*[^\s\]])[^\]]*\]\s*[({]|"
                                 r"\[(?=[^\]]*[^\s\]])[^\]]*\]\s*mutable")

VIRTUAL_FN_RE = re.compile(r"\bvirtual\b([^;{]*?)\b(\w+)\s*\(([^;{]*?)\)",
                           re.S)

# ---- event-kind vocabulary --------------------------------------------------

TRACE_HEADER = os.path.join("src", "obs", "trace.h")
TRACE_IMPL = os.path.join("src", "obs", "trace.cc")
# Consumer files: naming a kind here is bookkeeping, not production.
EVENT_CONSUMER_FILES = frozenset({
    "src/obs/trace.h", "src/obs/trace.cc",
    "src/obs/analysis.cc", "src/obs/analysis.h",
    "src/obs/chrome_trace.cc", "src/obs/chrome_trace.h",
})

# ---- annotation-coverage vocabulary -----------------------------------------

THREAD_ANNOTATIONS_HEADER = "src/transport/thread_annotations.h"
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?P<type>std::(?:recursive_|shared_|timed_)?mutex|(?:transport::)?Mutex)"
    r"\b\s+(?P<name>\w+)\s*(?:;|=|\{|TIAMAT_)",
    re.M)
TSA_ANNOTATION_RE = re.compile(
    r"TIAMAT_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY|"
    r"ACQUIRED_BEFORE|ACQUIRED_AFTER)\s*\(([^()]*)\)")

# ---- per-file regexes (unchanged rules) -------------------------------------

# Registry instrument factories with a first argument we can check
# statically: a string literal, or the `<expr> + ".suffix"` idiom used by
# prefix-parameterised helpers (tuple/matcher.h MatchMetrics).
METRIC_CALL_RE = re.compile(
    r'\b(?:counter|gauge|sketch)\s*\(\s*'
    r'(?:"(?P<name>[^"]+)"|[\w().\->\[\]]+\s*\+\s*"(?P<suffix>\.[^"]+)")'
)

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
RAW_RANDOM_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|std::mt19937"
)
STDIO_RE = re.compile(
    r"std::cout|std::cerr|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\(|\bfputs\s*\("
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?[^;()]*?:\s*(\*?[A-Za-z_][\w.>\-]*)\s*\)"
)
BEGIN_DEREF_RE = re.compile(r"\*\s*([A-Za-z_]\w*)\.begin\s*\(\s*\)")
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set)\s*<")
IDENT_AFTER_TYPE_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*(?:;|=|\{|\()")


def strip_comments(text):
    """Blanks out // and /* */ comments, preserving line structure."""
    out = []
    i, n = 0, len(text)
    in_block = False
    while i < n:
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
            else:
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            in_block = True
            i += 2
        elif text[i] in "\"'":
            quote = text[i]
            out.append(text[i])
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i : i + 2])
                    i += 2
                    continue
                out.append(text[i])
                i += 1
            if i < n:
                out.append(text[i])
                i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def balanced_paren_span(text, open_pos):
    """Returns (end, inner) for the '(' at open_pos, or (None, '')."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i, text[open_pos + 1 : i]
    return None, ""


def unordered_decl_names(text):
    """Names declared in `text` with an unordered_map/unordered_set type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        # Walk the template argument list to its matching '>'.
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        ident = IDENT_AFTER_TYPE_RE.match(text, i)
        if ident:
            names.add(ident.group(1))
    return names


class Allowlist:
    """Audited exceptions: `path-glob<TAB/space>rule<TAB/space>substring`.

    Every entry tracks how many findings it suppressed this run; the
    stale-allowlist rule turns a zero count into a finding.
    """

    def __init__(self, path):
        self.entries = []  # [glob, rule, substring, lineno, hits]
        self.path = path
        if not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(None, 2)
                if len(parts) < 2:
                    continue
                glob, rule = parts[0], parts[1]
                sub = parts[2] if len(parts) > 2 else "*"
                self.entries.append([glob, rule, sub, lineno, 0])

    def allows(self, rel, rule, line_text):
        hit = False
        for entry in self.entries:
            glob, arule, sub = entry[0], entry[1], entry[2]
            if arule != rule and arule != "*":
                continue
            if not fnmatch.fnmatch(rel, glob):
                continue
            if sub == "*" or sub in line_text:
                entry[4] += 1
                hit = True
                # Keep scanning: several entries may cover the same site,
                # and each deserves its hit for staleness accounting.
        return hit


class CompileDb:
    """TU universe from build/compile_commands.json (CMake exports it for
    the release preset). Degrades to walking src/ when absent — same rules,
    same findings on a fully-built tree; the DB just pins the universe to
    what is actually compiled."""

    def __init__(self, root, path):
        self.root = root
        self.sources = []  # rel paths of compiled .cc files under src/
        self.loaded = False
        if path is None or not os.path.exists(path):
            return
        try:
            with open(path, encoding="utf-8") as f:
                entries = json.load(f)
        except (OSError, ValueError):
            return
        seen = set()
        for e in entries:
            fn = e.get("file", "")
            if not os.path.isabs(fn):
                fn = os.path.normpath(os.path.join(e.get("directory", ""), fn))
            rel = os.path.relpath(fn, root).replace(os.sep, "/")
            if rel.startswith("src/") and rel.endswith(".cc") and \
                    rel not in seen and os.path.exists(os.path.join(root, fn if os.path.isabs(fn) else rel)):
                seen.add(rel)
                self.sources.append(rel)
        self.sources.sort()
        self.loaded = bool(self.sources)


class Linter:
    def __init__(self, root, active_rules=None, compile_db=None):
        self.root = root
        self.src = os.path.join(root, "src")
        self.active = frozenset(active_rules) if active_rules else \
            frozenset(RULES)
        self.full_run = self.active == frozenset(RULES)
        self.allow = Allowlist(os.path.join(root, ALLOWLIST_PATH))
        self.findings = []  # dicts: path, line, rule, message
        self._decl_cache = {}
        self._text_cache = {}
        self._closure_cache = {}
        self.catalog = self._load_metric_catalog()
        self.metric_uses = set()  # catalog names actually minted somewhere
        db_path = compile_db if compile_db is not None else \
            os.path.join(root, DEFAULT_COMPILE_DB)
        self.compile_db = CompileDb(root, db_path)

    # ---- shared infrastructure ----------------------------------------------

    def rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def abspath(self, rel):
        return os.path.join(self.root, rel.replace("/", os.sep))

    def text_of(self, rel):
        """Comment-stripped text of a repo-relative file ('' if unreadable)."""
        if rel not in self._text_cache:
            try:
                with open(self.abspath(rel), encoding="utf-8") as f:
                    self._text_cache[rel] = strip_comments(f.read())
            except OSError:
                self._text_cache[rel] = ""
        return self._text_cache[rel]

    def enabled(self, rule):
        return rule in self.active

    def report(self, path, lineno, rule, msg, line_text=""):
        if rule not in self.active:
            return
        if os.path.isabs(path):
            rel = self.rel(path)
        else:
            # Cross-TU rules pass repo-relative paths; per-file rules pass
            # paths rooted at self.root (which may itself be relative).
            rel = os.path.normpath(path).replace(os.sep, "/")
            if self.root not in (".", "") and rel.startswith(
                    self.root.rstrip("/") + "/"):
                rel = rel[len(self.root.rstrip("/")) + 1:]
        if self.allow.allows(rel, rule, line_text):
            return
        self.findings.append(
            {"path": rel, "line": lineno, "rule": rule, "message": msg})

    def source_files(self):
        for dirpath, _, files in os.walk(self.src):
            for f in sorted(files):
                if f.endswith(SRC_EXTS):
                    yield os.path.join(dirpath, f)

    def bench_files(self):
        bench = os.path.join(self.root, "bench")
        if not os.path.isdir(bench):
            return
        for dirpath, _, files in os.walk(bench):
            for f in sorted(files):
                if f.endswith(SRC_EXTS):
                    yield os.path.join(dirpath, f)

    def include_closure(self, rel):
        """rel + transitively included project files under src/."""
        if rel in self._closure_cache:
            return self._closure_cache[rel]
        closure = set()
        stack = [rel]
        while stack:
            cur = stack.pop()
            if cur in closure:
                continue
            closure.add(cur)
            for line in self.text_of(cur).splitlines():
                m = INCLUDE_RE.match(line)
                if m and m.group(1) == '"':
                    target = "src/" + m.group(2)
                    if os.path.exists(self.abspath(target)):
                        stack.append(target)
        self._closure_cache[rel] = closure
        return closure

    def tu_universe(self):
        """Repo-relative src/ files the cross-TU rules reason over: the
        compile DB's TUs plus their include closures, or — without a DB —
        every file under src/."""
        if self.compile_db.loaded:
            universe = set()
            for cc in self.compile_db.sources:
                universe |= self.include_closure(cc)
            return sorted(universe)
        return sorted(self.rel(p) for p in self.source_files())

    # ---- metric catalog -----------------------------------------------------

    def _load_metric_catalog(self):
        """name -> line number, from the checked-in catalog header."""
        path = os.path.join(self.root, METRIC_CATALOG_HEADER)
        try:
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
        except OSError:
            return None
        catalog = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in re.findall(r'"([^"]+)"', line):
                catalog.setdefault(name, lineno)
        return catalog

    # ---- per-file pass ------------------------------------------------------

    def decls_of(self, path):
        if path not in self._decl_cache:
            try:
                with open(path, encoding="utf-8") as f:
                    text = strip_comments(f.read())
            except OSError:
                text = ""
            self._decl_cache[path] = unordered_decl_names(text)
        return self._decl_cache[path]

    def include_scope(self, path, text):
        """Unordered names visible to `path`: its own + direct includes'."""
        names = set(unordered_decl_names(text))
        for line in text.splitlines():
            m = INCLUDE_RE.match(line)
            if m and m.group(1) == '"':
                target = os.path.join(self.src, m.group(2))
                if os.path.exists(target):
                    names |= self.decls_of(target)
        return names

    def lint_file(self, path):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        text = strip_comments(raw)
        lines = text.splitlines()
        rel = self.rel(path)
        is_header = path.endswith(".h")

        unordered = self.include_scope(path, text)

        if is_header and "#pragma once" not in raw:
            self.report(path, 1, "pragma-once",
                        "header lacks '#pragma once'")

        self._lint_includes(path, rel, lines, text)
        self._lint_metric_names(path, text)

        for i, line in enumerate(lines, 1):
            self._lint_line(path, i, line, unordered)

    def _lint_metric_names(self, path, text):
        """Registry factory calls must use catalogued names (or suffixes)."""
        if self.catalog is None:
            return  # reported once, in run()
        if self.rel(path) == METRIC_CATALOG_HEADER:
            return
        for m in METRIC_CALL_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            name, suffix = m.group("name"), m.group("suffix")
            if name is not None:
                if name in self.catalog:
                    self.metric_uses.add(name)
                else:
                    self.report(path, lineno, "metric-name",
                                f'metric name "{name}" is not in '
                                f"{METRIC_CATALOG_HEADER}", m.group(0))
            elif suffix is not None:
                matching = [c for c in self.catalog if c.endswith(suffix)]
                if matching:
                    self.metric_uses.update(matching)
                else:
                    self.report(path, lineno, "metric-name",
                                f'no catalogued metric name ends in "{suffix}" '
                                f"({METRIC_CATALOG_HEADER})", m.group(0))

    def _lint_catalog_drift(self):
        """Catalogued names nothing mints any more are drift: the catalog is
        a reviewed contract, and a dead entry masks the next typo."""
        if self.catalog is None:
            self.report(os.path.join(self.root, METRIC_CATALOG_HEADER), 1,
                        "metric-name",
                        f"{METRIC_CATALOG_HEADER} is missing; the metric "
                        "name catalog is a checked-in contract")
            return
        for name in sorted(self.catalog):
            if name not in self.metric_uses:
                self.report(os.path.join(self.root, METRIC_CATALOG_HEADER),
                            self.catalog[name], "metric-name",
                            f'catalogued metric name "{name}" is never '
                            "minted in src/ or bench/ (stale catalog entry)",
                            name)

    def _lint_includes(self, path, rel, lines, text, rules=None):
        layer = rel.split("/")[1] if rel.count("/") >= 2 else ""
        allowed = LAYERS.get(layer)
        on = (lambda r: True) if rules is None else (lambda r: r in rules)
        for i, line in enumerate(lines, 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            kind, inc = m.groups()
            if kind == '"':
                if not on("include-path"):
                    continue
                if inc.startswith(".") or "/" not in inc:
                    self.report(path, i, "include-path",
                                f'"{inc}" must be root-relative '
                                '(e.g. "tuple/index.h")', line)
                elif not os.path.exists(os.path.join(self.src, inc)):
                    self.report(path, i, "include-path",
                                f'"{inc}" does not resolve under src/', line)
                if allowed and "/" in inc and not inc.startswith(allowed):
                    self.report(path, i, "layering",
                                f"src/{layer} may only include "
                                f"{{{', '.join(allowed)}}}, got \"{inc}\"",
                                line)
                if (inc == SIM_NETWORK_HEADER
                        and not rel.startswith(SIM_NETWORK_SCRIPTING)
                        and rel != SIM_NETWORK_ADAPTER):
                    self.report(path, i, "sim-network",
                                f'"{SIM_NETWORK_HEADER}" may only be '
                                f"included by {', '.join(SIM_NETWORK_SCRIPTING)} and "
                                f"{SIM_NETWORK_ADAPTER}; go through "
                                "transport::Transport", line)
            else:
                if (on("concurrency") and inc in CONCURRENCY_HEADERS
                        and not rel.startswith("src/transport/")
                        and inc not in CONCURRENCY_OBS_ALLOWLIST.get(
                            rel, ())):
                    self.report(path, i, "concurrency",
                                f"<{inc}> outside src/transport/: protocol "
                                "code is single-strand; threads and locks "
                                "live in the transport backends (lock-free "
                                "obs cells are allowlisted file-by-file)",
                                line)
                token = UNUSED_INCLUDE_TOKENS.get(inc)
                if token and on("unused-include"):
                    body = "\n".join(l for j, l in enumerate(lines, 1)
                                     if j != i)
                    if not re.search(token, body):
                        self.report(path, i, "unused-include",
                                    f"<{inc}> included but never used", line)

    def _lint_line(self, path, lineno, line, unordered):
        m = WALL_CLOCK_RE.search(line)
        if m and not self.rel(path).startswith("src/transport/"):
            self.report(path, lineno, "wall-clock",
                        f"wall-clock source '{m.group(0).strip()}' in "
                        "library code (use transport::Clock)", line)
        m = RAW_RANDOM_RE.search(line)
        if m:
            self.report(path, lineno, "raw-random",
                        f"raw randomness '{m.group(0).strip()}' (use "
                        "sim::Rng)", line)
        m = STDIO_RE.search(line)
        if m:
            self.report(path, lineno, "stdio",
                        f"stdio output '{m.group(0).strip()}' in src/", line)

        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1).lstrip("*")
            if expr.endswith(")"):
                continue  # function-call result, not a member walk
            tail = re.split(r"\.|->", expr)[-1]
            if tail in unordered:
                self.report(path, lineno, "unordered-iter",
                            f"range-for over unordered container '{expr}' "
                            "(iterate a sorted copy or an ordered index)",
                            line)
        for m in BEGIN_DEREF_RE.finditer(line):
            if m.group(1) in unordered:
                self.report(path, lineno, "unordered-iter",
                            f"*{m.group(1)}.begin() on unordered container "
                            "is a nondeterministic pick", line)

    # ---- cross-TU rules -----------------------------------------------------

    def _lint_strand_confinement(self, universe):
        # (a) Audit the transport surface itself: every std::function-taking
        # virtual is a cross-strand entry point and must be in the audited
        # sink list.
        for header in TRANSPORT_SURFACE_HEADERS:
            rel = header.replace(os.sep, "/")
            text = self.text_of(rel)
            for m in VIRTUAL_FN_RE.finditer(text):
                name, args = m.group(2), m.group(3)
                if "std::function" not in args:
                    continue
                if name not in STRAND_SINKS:
                    lineno = text.count("\n", 0, m.start()) + 1
                    self.report(rel, lineno, "strand-confinement",
                                f"'{name}' is a std::function-taking virtual "
                                "on the transport surface but not in the "
                                "audited sink list "
                                f"({{{', '.join(sorted(STRAND_SINKS))}}}); "
                                "extend the list only with a strand-safety "
                                "argument (DESIGN.md #11)", m.group(0))

        # (b) Receiver index: names declared anywhere in the universe with a
        # Transport/TimerService reference or pointer type.
        receivers = set()
        for rel in universe:
            for m in TRANSPORT_RECV_DECL_RE.finditer(self.text_of(rel)):
                receivers.add(m.group(1))

        # (c) Protocol-side scan: capturing lambdas may cross the transport
        # surface only through the sinks; thread spawning is banned outright.
        for rel in universe:
            if rel.startswith(STRAND_EXEMPT_PREFIXES):
                continue
            text = self.text_of(rel)
            for lineno, line in enumerate(text.splitlines(), 1):
                m = THREAD_SPAWN_RE.search(line)
                if m:
                    self.report(rel, lineno, "strand-confinement",
                                f"'{m.group(0)}' in protocol code: strands "
                                "are the only concurrency; cross them via "
                                "Transport::post or TimerService", line)
            for m in MEMBER_CALL_RE.finditer(text):
                recv, method = m.group(1), m.group(2)
                if recv not in receivers or method in STRAND_SINKS:
                    continue
                end, inner = balanced_paren_span(text, m.end() - 1)
                if end is None or not CAPTURING_LAMBDA_RE.search(inner):
                    continue
                lineno = text.count("\n", 0, m.start()) + 1
                self.report(rel, lineno, "strand-confinement",
                            f"capturing lambda passed to '{recv}.{method}'"
                            ": not an audited strand re-entry point "
                            f"({{{', '.join(sorted(STRAND_SINKS))}}}) — "
                            "state captured here may escape its strand",
                            text.splitlines()[lineno - 1])
            for m in TIMERS_CALL_RE.finditer(text):
                method = m.group(1)
                if method in STRAND_SINKS or method == "cancel" \
                        or method == "now":
                    continue
                end, inner = balanced_paren_span(text, m.end() - 1)
                if end is None or not CAPTURING_LAMBDA_RE.search(inner):
                    continue
                lineno = text.count("\n", 0, m.start()) + 1
                self.report(rel, lineno, "strand-confinement",
                            f"capturing lambda passed to timers().{method}: "
                            "not an audited strand re-entry point",
                            text.splitlines()[lineno - 1])

    def _lint_event_kinds(self, universe):
        header_rel = TRACE_HEADER.replace(os.sep, "/")
        impl_rel = TRACE_IMPL.replace(os.sep, "/")
        header = self.text_of(header_rel)
        if not header:
            return  # no trace vocabulary in this tree (fixture roots)
        m = re.search(r"enum\s+class\s+EventKind[^{]*\{", header)
        if not m:
            return
        end, inner = None, ""
        depth = 0
        for i in range(m.end() - 1, len(header)):
            if header[i] == "{":
                depth += 1
            elif header[i] == "}":
                depth -= 1
                if depth == 0:
                    end, inner = i, header[m.end() : i]
                    break
        if end is None:
            return
        enumerators = []  # (name, lineno)
        for em in re.finditer(r"\b(k[A-Z]\w*)\s*(?:=\s*\d+)?\s*(?=,|\}|$)",
                              inner):
            lineno = header.count("\n", 0, m.end() + em.start()) + 1
            enumerators.append((em.group(1), lineno))
        if not enumerators:
            return

        impl = self.text_of(impl_rel)
        cases = set(re.findall(r"case\s+EventKind::(k\w+)", impl))
        for name, lineno in enumerators:
            if name not in cases:
                self.report(header_rel, lineno, "event-kind",
                            f"EventKind::{name} has no case in to_string "
                            f"({impl_rel}): unprintable and — via the "
                            "from_string walk — unparseable by "
                            "tiamat-inspect", name)

        bound = re.search(
            r"<=\s*static_cast<\s*int\s*>\(\s*EventKind::(k\w+)\s*\)", impl)
        last = enumerators[-1][0]
        if bound and bound.group(1) != last:
            lineno = impl.count("\n", 0, bound.start()) + 1
            self.report(impl_rel, lineno, "event-kind",
                        "event_kind_from_string walks the enum only up to "
                        f"EventKind::{bound.group(1)}, but the last "
                        f"enumerator is {last}: kinds after the bound are "
                        "silently unparseable", bound.group(0))

        produced = set()
        for rel in universe:
            if rel in EVENT_CONSUMER_FILES:
                continue
            for name in re.findall(r"EventKind::(k\w+)", self.text_of(rel)):
                produced.add(name)
        for name, lineno in enumerators:
            if name not in produced:
                self.report(header_rel, lineno, "event-kind",
                            f"EventKind::{name} is never produced in src/ "
                            "(outside the obs consumer files): dead "
                            "vocabulary, or the producer was lost in a "
                            "refactor", name)

    def _lint_annotation_coverage(self, universe):
        refs = set()
        for rel in universe:
            for args in TSA_ANNOTATION_RE.findall(self.text_of(rel)):
                for arg in args.split(","):
                    idents = re.findall(r"[A-Za-z_]\w*", arg)
                    if idents:
                        refs.add(idents[-1])
        for rel in universe:
            if rel == THREAD_ANNOTATIONS_HEADER:
                continue  # the wrapper's own std::mutex internals
            text = self.text_of(rel)
            for m in MUTEX_MEMBER_RE.finditer(text):
                lineno = text.count("\n", 0, m.start()) + 1
                mtype, name = m.group("type"), m.group("name")
                line = text.splitlines()[lineno - 1]
                if mtype.startswith("std::"):
                    self.report(rel, lineno, "annotation-coverage",
                                f"raw {mtype} member '{name}': declare it "
                                "transport::Mutex "
                                "(transport/thread_annotations.h) so clang "
                                "TSA can track it", line)
                elif name not in refs:
                    self.report(rel, lineno, "annotation-coverage",
                                f"Mutex member '{name}' appears in no "
                                "TIAMAT_GUARDED_BY/REQUIRES/ACQUIRE/EXCLUDES "
                                "relationship: unprovable locking discipline",
                                line)

    def _lint_stale_allowlist(self):
        """Entries that suppressed nothing are rot. Skipped for entries whose
        rule did not run (partial --rules invocations must not cry stale)."""
        for glob, rule, sub, lineno, hits in self.allow.entries:
            if hits > 0:
                continue
            if rule == "*" and not self.full_run:
                continue
            if rule != "*" and (rule not in self.active or rule not in RULES):
                if rule in RULES:
                    continue
                self.report(ALLOWLIST_PATH.replace(os.sep, "/"), lineno,
                            "stale-allowlist",
                            f"allowlist entry names unknown rule '{rule}'",
                            rule)
                continue
            self.report(ALLOWLIST_PATH.replace(os.sep, "/"), lineno,
                        "stale-allowlist",
                        f"allowlist entry ({glob} {rule} {sub}) no longer "
                        "suppresses any finding; delete it", sub)

    # ---- driver -------------------------------------------------------------

    def run(self):
        per_file_rules = set(RULES) - {
            "strand-confinement", "event-kind", "annotation-coverage",
            "stale-allowlist"}
        if self.active & per_file_rules:
            for path in self.source_files():
                self.lint_file(path)
            self._lint_bench_files()
            if self.enabled("metric-name"):
                self._lint_catalog_drift()
        universe = None
        for rule, fn in (("strand-confinement", self._lint_strand_confinement),
                         ("event-kind", self._lint_event_kinds),
                         ("annotation-coverage",
                          self._lint_annotation_coverage)):
            if self.enabled(rule):
                if universe is None:
                    universe = self.tu_universe()
                fn(universe)
        if self.enabled("stale-allowlist"):
            self._lint_stale_allowlist()
        self.findings.sort(key=lambda f: (f["path"], f["line"], f["rule"]))
        return self.findings

    def _lint_bench_files(self):
        """bench/ shares the catalog contract and the include-hygiene rules
        (BENCH_RULES); the determinism rules stay src/-only."""
        for path in self.bench_files():
            try:
                with open(path, encoding="utf-8") as fh:
                    text = strip_comments(fh.read())
            except OSError:
                continue
            self._lint_metric_names(path, text)
            self._lint_includes(path, self.rel(path), text.splitlines(),
                                text, rules=("unused-include",))


def render_text(findings):
    return [f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}"
            for f in findings]


def render_json(linter, findings):
    counts = {}
    for f in findings:
        counts[f["rule"]] = counts.get(f["rule"], 0) + 1
    return json.dumps(
        {
            "tool": "lint_tiamat",
            "version": 2,
            "compile_db": ("build/compile_commands.json"
                           if linter.compile_db.loaded else None),
            "rules": sorted(linter.active),
            "findings": findings,
            "counts": dict(sorted(counts.items())),
            "clean": not findings,
        },
        indent=2) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--output", default=None,
                    help="write the report here instead of stdout")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json path "
                         "(default: build/compile_commands.json)")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    active = None
    if args.rules:
        active = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in active if r not in RULES]
        if unknown:
            print(f"lint_tiamat: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint_tiamat: no src/ under {root}", file=sys.stderr)
        return 2

    linter = Linter(root, active_rules=active, compile_db=args.compile_db)
    findings = linter.run()

    if args.format == "json":
        out = render_json(linter, findings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(out)
        else:
            sys.stdout.write(out)
    else:
        lines = render_text(findings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + ("\n" if lines else ""))
        else:
            for line in lines:
                print(line)
    if findings:
        print(f"lint_tiamat: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if args.format != "json" and not args.output:
        print("lint_tiamat: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
