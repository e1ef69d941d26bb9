#!/usr/bin/env python3
"""pto_lint.py -- static HTM-safety lint for prefix transaction bodies.

Every pto data structure funnels its speculative work through the
prefix<P>(policy, fast, slow, stats) combinator (src/core/prefix.h). The
*fast* lambda is TxCode: it runs inside a best-effort hardware transaction,
so it must not do anything a hardware abort cannot unwind. This lint walks
every prefix call site under src/ds/ (or the files given on the command
line), extracts the fast body, and rejects:

  - allocation / reclamation   new, delete, malloc/free, make_unique, ...
                               (an abort rolls back the tx's stores but not
                               the allocator's host-level bookkeeping)
  - syscalls and I/O           any kernel entry aborts the transaction
  - raw std::atomic_thread_fence  mfence aborts HTM; use P::fence(), whose
                               sim/native implementations are tx-aware
  - unbounded loops            a loop the lint cannot bound will eventually
                               blow the duration budget; annotate loops that
                               are bounded for non-syntactic reasons with
                                 // pto-lint: bounded(EXPR)
                               on the loop's line or the line before it

and, outside the fast body, a *sentinel fallback*: a slow lambda that only
returns a literal (or does nothing), which leaves the real fallback to run
after prefix() returns, where no telemetry layer sees it. Pass the real
fallback as `slow`, or call the attempt loop alone (pto::kCallerFallback)
and run the fallback under a pto::FallbackScope.

and emits a per-site static read/write-set footprint estimate checked
against the HTM capacity, parsed at startup from HtmConfig in src/sim/sim.h
via tools/htm_params.py (shared with tools/analyze/'s pto-analyze; a parse
failure is a hard error, never a silent fallback to stale constants). The
estimate is structural -- each .load()/.store()/RMW site
counts as one cache line, loop bodies multiply by the trip count when it is
a literal (or a numeric bounded() annotation) and count once otherwise --
so it is a lower bound, useful for catching prefixes that are over capacity
by construction.

Site extraction is driven by clang's JSON AST dump when a clang binary is
available (exact lambda source ranges); otherwise a token-level fallback
parses the balanced-paren argument list directly. Both feed the same
checks. The fallback is authoritative: if clang extraction finds fewer
sites than the fallback for a file, the fallback's sites are used.

Usage:
  tools/pto_lint.py [--json] [--root DIR] [--no-clang] [files...]

Exit status: 0 clean, 1 violations found, 2 bad invocation.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from htm_params import HtmParamsError, parse_htm_params  # noqa: E402

# HTM capacity limits, parsed from HtmConfig in src/sim/sim.h at startup
# (tools/htm_params.py is the single source of truth shared with
# tools/analyze/). Populated by main(); the placeholders keep lint_file
# usable from tests that set them explicitly.
MAX_WRITE_LINES = None
MAX_READ_LINES = None

ANNOT_RE = re.compile(r"//\s*pto-lint:\s*bounded\(([^)]*)\)")

ALLOC_RE = re.compile(
    r"(?:(?<![\w.:>])\bnew\b(?!\s*\())|"        # new-expression (allow fn named new_())
    r"(?<![\w.:>])\bdelete\b|"
    r"(?<![\w.>])\b(?:malloc|calloc|realloc|aligned_alloc|posix_memalign|"
    r"strdup|free)\s*\(|"
    r"\bmake_(?:unique|shared)\b|"
    r"\bP\s*::\s*(?:template\s+)?(?:make|create|destroy)\b|"
    r"\balloc_node\s*\("
)
SYSCALL_RE = re.compile(
    r"(?<![\w.>])\b(?:open|close|read|write|pread|pwrite|lseek|mmap|munmap|"
    r"ioctl|fcntl|fork|execve?|nanosleep|usleep|sleep|syscall|sched_yield|"
    r"gettimeofday|clock_gettime|printf|fprintf|sprintf|snprintf|puts|fputs|"
    r"fwrite|fread|fopen|fclose|perror|abort|exit)\s*\(|"
    r"\bstd\s*::\s*c(?:out|err|log)\b"
)
FENCE_RE = re.compile(r"\batomic_thread_fence\b")

READ_RE = re.compile(r"\.\s*load\s*\(")
WRITE_RE = re.compile(r"\.\s*store\s*\(")
RMW_RE = re.compile(r"\.\s*(?:compare_exchange_\w+|fetch_\w+|exchange)\s*\(")

SITE_NAME_RE = re.compile(r'PTO_TELEMETRY_SITE\s*\(\s*"([^"]+)"\s*\)')

PREFIX_CALL_RE = re.compile(r"\bprefix\s*(?:<[^;(){}]*>)?\s*\(")

INT_RE = re.compile(r"^\s*(\d+)\s*$")

# A slow lambda body (comments stripped) that only returns a literal, or is
# empty.
SENTINEL_BODY_RE = re.compile(
    r"^\s*(?:return\s+(?:-?\d[\w.']*|true|false|nullptr)\s*;)?\s*$")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving offsets and
    newlines so line numbers survive. Annotations are collected separately
    before stripping."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == q:
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


def line_of(text, off):
    return text.count("\n", 0, off) + 1


def match_paren(text, open_off):
    """Return offset one past the parenthesis/brace/bracket that closes the
    one at open_off, or -1. Assumes comments/strings already stripped."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    close = pairs[text[open_off]]
    depth = 0
    i = open_off
    n = len(text)
    while i < n:
        c = text[i]
        if c in pairs:
            depth += 1
        elif c in ")}]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def split_top_args(text):
    """Split an argument-list body on top-level commas. `text` excludes the
    surrounding parens; comments/strings already stripped. Handles template
    angle brackets well enough for this codebase (no shift operators at arg
    top level)."""
    args = []
    depth = 0
    angle = 0
    start = 0
    for i, c in enumerate(text):
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == "<" and depth == 0:
            angle += 1
        elif c == ">" and depth == 0 and angle > 0:
            angle -= 1
        elif c == "," and depth == 0 and angle == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return args


def lambda_body(arg):
    """Given an argument that should be a lambda, return (body, body_off)
    where body excludes the braces and body_off is the offset of the text
    after '{' within `arg`. Returns (None, -1) if not a lambda."""
    s = arg
    i = 0
    n = len(s)
    while i < n and s[i].isspace():
        i += 1
    if i >= n or s[i] != "[":
        return None, -1
    i = match_paren(s, i)  # capture list
    if i < 0:
        return None, -1
    brace = s.find("{", i)
    if brace < 0:
        return None, -1
    end = match_paren(s, brace)
    if end < 0:
        return None, -1
    return s[brace + 1 : end - 1], brace + 1


class Loop:
    __slots__ = ("kind", "line", "head", "body", "body_line", "trip", "annot",
                 "head_end_line", "tail_line")

    def __init__(self, kind, line, head, body, body_line, head_end_line=None,
                 tail_line=None):
        self.kind = kind
        self.line = line
        self.head = head
        self.body = body
        self.body_line = body_line
        self.trip = None   # numeric trip count when derivable
        self.annot = None  # bounded(...) annotation text when present
        # Last line of the loop's header construct: the closing paren of a
        # for/while head, or the closing paren of a do-while's trailing
        # condition. Annotations may sit on any header line (headers that
        # span lines put the "loop's line" several lines before the body).
        self.head_end_line = head_end_line if head_end_line is not None \
            else line
        # do-while only: line of the trailing `while` keyword. The header
        # lines of a do loop are disjoint from its body lines; tracking the
        # tail separately keeps a nested loop's annotation inside the body
        # from being misread as the do's.
        self.tail_line = tail_line


LOOP_HEAD_RE = re.compile(r"(?<![\w.:>])\b(for|while|do)\b")


def find_loops(body, base_line):
    """Top-level loops in `body` (stripped text). Returns a list of Loop with
    nested loops discoverable by recursing on loop.body."""
    loops = []
    i = 0
    n = len(body)
    while i < n:
        m = LOOP_HEAD_RE.search(body, i)
        if not m:
            break
        kind = m.group(1)
        at = m.start()
        line = base_line + body.count("\n", 0, at)
        if kind == "do":
            bo = body.find("{", m.end())
            if bo < 0:
                i = m.end()
                continue
            be = match_paren(body, bo)
            if be < 0:
                i = m.end()
                continue
            # Consume the trailing `while (cond);` too: left in the stream it
            # would be re-matched as a phantom standalone while loop (whose
            # own line the annotation on the `do` can never cover).
            body_end = be
            head = ""
            head_end = bo
            tail_at = None
            j = be
            while j < n and body[j].isspace():
                j += 1
            if body.startswith("while", j):
                tail_at = j
                po = body.find("(", j + 5)
                pe = match_paren(body, po) if po >= 0 else -1
                if pe >= 0:
                    head = body[po + 1 : pe - 1]
                    head_end = pe - 1
                    j = pe
                    while j < n and body[j].isspace():
                        j += 1
                    if j < n and body[j] == ";":
                        j += 1
                    be = j
            loops.append(Loop("do", line, head, body[bo + 1 : body_end - 1],
                              base_line + body.count("\n", 0, bo),
                              base_line + body.count("\n", 0, head_end),
                              None if tail_at is None else
                              base_line + body.count("\n", 0, tail_at)))
            i = be
            continue
        po = body.find("(", m.end())
        if po < 0:
            i = m.end()
            continue
        pe = match_paren(body, po)
        if pe < 0:
            i = m.end()
            continue
        head = body[po + 1 : pe - 1]
        head_end_line = base_line + body.count("\n", 0, pe - 1)
        # Loop body: next '{' block, or single statement up to ';'.
        j = pe
        while j < n and body[j].isspace():
            j += 1
        if j < n and body[j] == "{":
            be = match_paren(body, j)
            if be < 0:
                i = pe
                continue
            lb = body[j + 1 : be - 1]
            lb_line = base_line + body.count("\n", 0, j)
            i = be
        else:
            semi = body.find(";", j)
            semi = n if semi < 0 else semi
            lb = body[j:semi]
            lb_line = base_line + body.count("\n", 0, j)
            i = semi + 1
        loops.append(Loop(kind, line, head, lb, lb_line, head_end_line))
    return loops


def for_trip_count(head):
    """Literal trip count of a canonical `for (T i = A; i < B; ++i)` head
    when A and B are integer literals; else None. `for (;;)` returns -1
    (unbounded marker)."""
    parts = head.split(";")
    if len(parts) != 3:
        return None
    init, cond, _ = (p.strip() for p in parts)
    if cond == "":
        return -1
    m = re.search(r"(\w+)\s*(<=|<|!=)\s*(.+)$", cond)
    if not m:
        return None
    bound = m.group(3).strip()
    mb = INT_RE.match(bound)
    if not mb:
        return None
    b = int(mb.group(1))
    mi = re.search(r"=\s*(\d+)\s*$", init)
    if not mi:
        return None
    a = int(mi.group(1))
    trip = b - a
    if m.group(1 if False else 2) == "<=":
        trip += 1
    return max(trip, 0)


def loop_is_syntactically_bounded(loop):
    """True when the loop's own header proves termination: a for loop with a
    non-empty condition comparing the induction variable against a bound.
    while/do and for(;;) need an annotation."""
    if loop.kind != "for":
        return False
    parts = loop.head.split(";")
    if len(parts) != 3:
        return False  # range-for etc.: treat as needing annotation
    cond = parts[1].strip()
    return cond != "" and re.search(r"(<=|<|>=|>|!=)", cond) is not None


def annotation_for(annots, loop):
    """bounded() annotation on the line before the loop or on any of its
    header lines. Headers may span lines (a multi-line for/while head, or a
    do-while whose condition trails the body), so matching only the keyword
    line would attribute the annotation to the wrong line."""
    if loop.kind == "do":
        # Header lines of a do loop: `do` itself (and the line before), plus
        # the trailing `while (cond);` -- but not the body lines in between.
        lines = [loop.line - 1, loop.line]
        if loop.tail_line is not None:
            lines.extend(range(loop.tail_line, loop.head_end_line + 1))
    else:
        lines = range(loop.line - 1, loop.head_end_line + 1)
    for ln in lines:
        if ln in annots:
            return annots[ln]
    return None


def count_accesses(body, base_line, annots, problems, site_label):
    """Recursive footprint estimate: (reads, writes) with loop multipliers.
    Also flags unbounded loops into `problems`."""
    loops = find_loops(body, base_line)
    # Mask loop bodies out of the flat text so top-level accesses are counted
    # exactly once.
    flat = body
    for lp in loops:
        idx = flat.find(lp.body)
        if idx >= 0:
            flat = flat[:idx] + " " * len(lp.body) + flat[idx + len(lp.body):]
    reads = len(READ_RE.findall(flat))
    writes = len(WRITE_RE.findall(flat))
    rmws = len(RMW_RE.findall(flat))
    reads += rmws
    writes += rmws
    for lp in loops:
        lp.annot = annotation_for(annots, lp)
        trip = for_trip_count(lp.head) if lp.kind == "for" else None
        if trip == -1:
            trip = None
        if lp.annot is not None:
            m = INT_RE.match(lp.annot)
            if m:
                trip = int(m.group(1))
        bounded = lp.annot is not None or loop_is_syntactically_bounded(lp)
        if not bounded:
            problems.append({
                "kind": "unbounded-loop",
                "line": lp.line,
                "site": site_label,
                "detail": "%s loop has no syntactic bound; annotate with "
                          "// pto-lint: bounded(EXPR)" % lp.kind,
            })
        mult = trip if trip is not None else 1
        r, w = count_accesses(lp.body, lp.body_line, annots, problems,
                              site_label)
        reads += mult * r
        writes += mult * w
    return reads, writes


class Site:
    def __init__(self, path, line, name, fast_body, fast_line,
                 slow_body=None):
        self.path = path
        self.line = line
        self.name = name
        self.fast_body = fast_body
        self.fast_line = fast_line
        self.slow_body = slow_body  # None unless `slow` is a lambda
        self.problems = []
        self.reads = 0
        self.writes = 0


def check_site(site, annots):
    if site.slow_body is not None and SENTINEL_BODY_RE.match(site.slow_body):
        site.problems.append({
            "kind": "sentinel-fallback",
            "line": site.line,
            "site": site.name,
            "detail": "the slow path only returns a literal, so the real "
                      "fallback runs after prefix() returns, unseen; pass it "
                      "as slow, or use pto::kCallerFallback and a "
                      "pto::FallbackScope",
        })
    body = site.fast_body
    for regex, kind, why in (
        (ALLOC_RE, "allocation",
         "allocation/reclamation inside a prefix body; aborts cannot unwind "
         "host allocator state"),
        (SYSCALL_RE, "syscall",
         "syscall or I/O inside a prefix body; any kernel entry aborts the "
         "transaction"),
        (FENCE_RE, "raw-fence",
         "raw std::atomic_thread_fence inside a prefix body; use P::fence()"),
    ):
        for m in regex.finditer(body):
            line = site.fast_line + body.count("\n", 0, m.start())
            site.problems.append({
                "kind": kind,
                "line": line,
                "site": site.name,
                "detail": "%s (matched '%s')" % (why, m.group(0).strip()),
            })
    site.reads, site.writes = count_accesses(
        body, site.fast_line, annots, site.problems, site.name)
    if site.writes > MAX_WRITE_LINES:
        site.problems.append({
            "kind": "over-capacity",
            "line": site.line,
            "site": site.name,
            "detail": "static write-set estimate %d lines exceeds HTM "
                      "capacity %d" % (site.writes, MAX_WRITE_LINES),
        })
    if site.reads + site.writes > MAX_READ_LINES:
        site.problems.append({
            "kind": "over-capacity",
            "line": site.line,
            "site": site.name,
            "detail": "static footprint estimate %d lines exceeds tracked "
                      "read-set capacity %d" % (site.reads + site.writes,
                                                MAX_READ_LINES),
        })


def collect_annotations(raw):
    annots = {}
    for i, text_line in enumerate(raw.splitlines(), start=1):
        m = ANNOT_RE.search(text_line)
        if m:
            annots[i] = m.group(1).strip()
    return annots


def extract_sites_regex(path, raw, stripped):
    sites = []
    for m in PREFIX_CALL_RE.finditer(stripped):
        open_off = m.end() - 1
        end = match_paren(stripped, open_off)
        if end < 0:
            continue
        call_line = line_of(stripped, m.start())
        args = split_top_args(stripped[open_off + 1 : end - 1])
        if len(args) < 3:
            continue  # not the combinator (e.g. a doc-comment mention)
        body, rel = lambda_body(args[1])
        if body is None:
            continue
        # Offset of the fast arg within the call text.
        args_off = open_off + 1
        fast_off = args_off + len(args[0]) + 1 + rel
        fast_line = line_of(stripped, fast_off)
        name = None
        mname = SITE_NAME_RE.search(raw[m.start():end])
        if mname:
            name = mname.group(1)
        if name is None:
            name = "%s:%d" % (os.path.basename(path), call_line)
        slow_body, _ = lambda_body(args[2])
        sites.append(Site(path, call_line, name, body, fast_line, slow_body))
    return sites


def find_clang():
    for c in ("clang++", "clang", "clang++-18", "clang++-17", "clang++-16"):
        if shutil.which(c):
            return c
    return None


def extract_sites_clang(clang, path, raw, stripped, root):
    """Best-effort clang -ast-dump=json extraction: locate prefix CallExprs
    and slice the fast (and a slow) lambda's source range. Any failure
    returns None and the caller uses the regex extractor."""
    try:
        proc = subprocess.run(
            [clang, "-x", "c++", "-std=c++20", "-fsyntax-only",
             "-I", os.path.join(root, "src"),
             "-Xclang", "-ast-dump=json", path],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or not proc.stdout:
            return None
        ast = json.loads(proc.stdout)
    except Exception:
        return None

    sites = []

    def is_lambda(node):
        return '"LambdaExpr"' in json.dumps(node)

    def sliced_lambda(node):
        """(body, offset of the body, offset of the lambda) of an argument
        node's source range; body is None when it is not a lambda."""
        rng = node.get("range", {})
        b = rng.get("begin", {}).get("offset")
        e = rng.get("end", {}).get("offset")
        if b is None or e is None or e <= b:
            return None, -1, b
        body, rel = lambda_body(stripped[b : e + 1])
        return body, rel, b

    def walk(node):
        if not isinstance(node, dict):
            return
        if node.get("kind") == "CallExpr":
            inner = node.get("inner", [])
            callee_txt = json.dumps(inner[0]) if inner else ""
            if '"prefix"' in callee_txt and len(inner) >= 3:
                k = next((i for i in range(1, len(inner))
                          if is_lambda(inner[i])), None)
                body, rel, b = (None, -1, None) if k is None else \
                    sliced_lambda(inner[k])
                if body is not None:
                    slow_body = None
                    if k + 1 < len(inner) and is_lambda(inner[k + 1]):
                        slow_body = sliced_lambda(inner[k + 1])[0]
                    call_line = line_of(stripped, b)
                    mname = SITE_NAME_RE.search(raw[b : b + 4096])
                    name = mname.group(1) if mname else (
                        "%s:%d" % (os.path.basename(path), call_line))
                    sites.append(Site(path, call_line, name, body,
                                      line_of(stripped, b + rel), slow_body))
        for child in node.get("inner", []) or []:
            walk(child)

    try:
        walk(ast)
    except RecursionError:
        return None
    return sites


def lint_file(path, root, clang):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    stripped = strip_comments_and_strings(raw)
    annots = collect_annotations(raw)
    sites = extract_sites_regex(path, raw, stripped)
    if clang:
        csites = extract_sites_clang(clang, path, raw, stripped, root)
        # The regex extractor is authoritative on coverage: only prefer the
        # clang result when it found at least as many call sites.
        if csites is not None and len(csites) >= len(sites):
            sites = csites
    for s in sites:
        check_site(s, annots)
    return sites


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to lint (default: all headers in src/ds/)")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--no-clang", action="store_true",
                    help="skip clang AST extraction even if clang is present")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    # HTM capacity limits come from the simulator's HtmConfig, never from
    # constants duplicated here (tools/htm_params.py; drift is a hard error).
    global MAX_WRITE_LINES, MAX_READ_LINES
    sim_header = os.path.join(root, "src", "sim", "sim.h")
    try:
        params = parse_htm_params(sim_header)
    except HtmParamsError as e:
        print("pto_lint: %s" % e, file=sys.stderr)
        return 2
    MAX_WRITE_LINES = params["max_write_lines"]
    MAX_READ_LINES = params["max_read_lines"]

    files = args.files
    if not files:
        ds = os.path.join(root, "src", "ds")
        files = sorted(
            os.path.join(dp, f)
            for dp, _, fs in os.walk(ds)
            for f in fs if f.endswith((".h", ".hpp", ".cc", ".cpp")))
    if not files:
        print("pto_lint: no input files", file=sys.stderr)
        return 2

    clang = None if args.no_clang else find_clang()
    all_sites = []
    for path in files:
        if not os.path.isfile(path):
            print("pto_lint: no such file: %s" % path, file=sys.stderr)
            return 2
        all_sites.extend(lint_file(path, root, clang))

    violations = [dict(p, file=s.path) for s in all_sites for p in s.problems]

    if args.json:
        site_counts = {}
        for s in all_sites:
            rel = os.path.relpath(s.path, root)
            site_counts[rel] = site_counts.get(rel, 0) + 1
        doc = {
            "tool": "pto_lint",
            "extractor": "clang" if clang else "regex",
            "htm_params": params,
            "htm_params_source": os.path.relpath(sim_header, root),
            "max_write_lines": MAX_WRITE_LINES,
            "max_read_lines": MAX_READ_LINES,
            "files": len(files),
            "site_counts": site_counts,
            "sites": [{
                "file": os.path.relpath(s.path, root),
                "line": s.line,
                "site": s.name,
                "est_read_lines": s.reads,
                "est_write_lines": s.writes,
                "violations": s.problems,
            } for s in all_sites],
            "violation_count": len(violations),
            "ok": not violations,
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print("pto_lint: %d prefix site(s) in %d file(s) [%s extractor]"
              % (len(all_sites), len(files), "clang" if clang else "regex"))
        for s in all_sites:
            print("  %-28s %s:%d  est footprint: %d read / %d write lines"
                  % (s.name, os.path.relpath(s.path, root), s.line,
                     s.reads, s.writes))
        for v in violations:
            print("%s:%d: error: [%s] %s (site %s)"
                  % (os.path.relpath(v["file"], root), v["line"], v["kind"],
                     v["detail"], v["site"]))
        print("pto_lint: %d violation(s)" % len(violations))

    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
