#!/usr/bin/env python3
"""pam_lint: repo-specific invariants the compiler cannot check.

Rules (each can be waived per-site with a comment on the offending line or
on the comment line(s) immediately above it: `pam-lint: allow(<rule>)`):

  naked-new           `new` expressions in src/** outside the sanctioned
                      allocation surface: the pool layer and the bulk
                      scratch buffer (src/alloc/**) plus the coded-block
                      skeleton (src/pam/coded_block.h), which owns the
                      byte-class pool tables and the counted overflow path
                      for oversized blocks of every codec. Tree nodes, leaf
                      blocks and payloads must come from these so epoch
                      reclamation and the space accounting (Table 4) see
                      every allocation.
  naked-delete        `delete` in src/** outside the same surface: frees
                      must go through epoch::retire or a pool, never
                      directly.
  unguarded-mutex     a mutex member in src/** must be referenced by at
                      least one thread-safety annotation in the same file
                      (PAM_GUARDED_BY companion, PAM_REQUIRES(mu) method,
                      ...): an unannotated mutex protects nothing the
                      analysis can see.
  bench-json          every bench/bench_*.cpp must report through the
                      machine-readable path (bench_json / row / row_seq) so
                      PAM_BENCH_JSON sweeps never silently lose a binary.
  include-discipline  outside src/, the tree kernel is reached through the
                      pam/pam.h facade only; including pam/ internals
                      (node.h, tree_ops.h, ...) directly bypasses the public
                      surface. Subsystem headers (server/, util/, alloc/,
                      parallel/, apps/, baselines/) are public. The
                      durability layer (src/store/**) is held to the same
                      rule even though it lives in src/: checkpoints
                      serialize through the facade's serialize/deserialize
                      surface, never by reaching into node internals, so a
                      format change is always a facade change. The
                      observability layer (src/obs/**) likewise: it observes
                      every subsystem, so letting it reach into the tree
                      kernel would make it a dependency cycle magnet.
  metric-name         every obs::counter / obs::gauge / obs::histogram
                      constructed with a literal name must follow the naming
                      contract: the `pam_` prefix plus a unit suffix by kind
                      (counter: `_total`; gauge: `_bytes`, `_depth`,
                      `_entries`, `_keys`, `_ns`, `_ratio`; histogram: `_ns`,
                      `_bytes`, `_ops`). Dashboards and the exposition sort
                      by name; an unsuffixed metric is ambiguous forever.
  env-catalogue       every `PAM_*` environment knob read anywhere in the
                      tree (env_long / env_double / getenv) must have a row
                      in util/env.h's env_knobs() catalogue — the config
                      provenance benches dump. `PAM_TEST_*` names are test
                      fixtures and exempt.
  wal-append-site     one write path: in src/** outside the durability layer
                      (src/store/**), only src/server/kv_store.h may call
                      `log_round(`, and only once — in the sink it hands
                      the write combiner, which logs every round under the
                      flush locks it applies under. A second call site
                      would be a second log→apply path with its own
                      ordering. bench/ stays exempt (bench_durability
                      drives the WAL directly).
  publish-site        one publication primitive: in src/**, `epoch::retire(`
                      appears only in src/alloc/arena.h (the epoch itself)
                      and src/pam/snapshot.h (published<T>, whose retire
                      runs after its publish mutex drops). Any other site
                      would be a second atomic-pointer publication
                      protocol; publish through published<T> instead.
  isa-intrinsics      in src/**, ISA intrinsic headers (<immintrin.h>,
                      <nmmintrin.h>, <x86intrin.h>, ... and <arm_neon.h>)
                      and __AVX*__ / __SSE*__ feature-macro branches appear
                      only in src/store/crc32c.h, whose SSE4.2 CRC has a
                      committed bench row (bench_durability crc32c
                      hw_over_sw). Hand-written SIMD lands only with a
                      committed row showing it beats the plain loop the
                      compiler vectorizes; a new site adds its row and its
                      path here together.
  leaf-tag            the low-bit tag that marks a child pointer as a leaf
                      block is set, tested and stripped only in
                      src/pam/node.h (node_manager's is_block / block_of /
                      as_leaf). Anywhere else, an integer view of a pointer
                      (uintptr_t / intptr_t) masked with 1 is a second copy
                      of the tag protocol; go through the helpers instead.

Usage:
  pam_lint.py --root <repo-root>    lint the repository (exit 1 on findings)
  pam_lint.py --self-test           run against tools/lint_fixtures
"""

import argparse
import os
import re
import sys

RULES = (
    "naked-new",
    "naked-delete",
    "unguarded-mutex",
    "bench-json",
    "include-discipline",
    "metric-name",
    "env-catalogue",
    "wal-append-site",
    "publish-site",
    "isa-intrinsics",
    "leaf-tag",
)

WAIVER_RE = re.compile(r"pam-lint:\s*allow\(([a-z-]+)\)")

# ---------------------------------------------------------------- scanning --


def strip_code(text):
    """Blank out comments and string/char literals, preserving line structure.

    Keeps every newline so match offsets still map to source lines. Good
    enough for lint purposes: raw strings are treated as plain strings
    (none in this tree contain code-like tokens).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    j += 1
                    break
                j += 1
            # Preserve newlines inside the blanked span: a lone quote (e.g.
            # a digit separator misread as a char literal reaching the line
            # end) must not merge two lines and desync line numbering.
            out.append(quote + "".join(
                ch if ch == "\n" or ch == quote else " "
                for ch in text[i + 1:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def waived(lines, lineno, rule):
    """True if `pam-lint: allow(rule)` covers 1-based line `lineno`.

    A waiver counts on the line itself or on the contiguous run of
    comment-only lines immediately above it.
    """

    def has_waiver(line):
        m = WAIVER_RE.search(line)
        return m is not None and m.group(1) == rule

    if has_waiver(lines[lineno - 1]):
        return True
    i = lineno - 2
    while i >= 0 and lines[i].lstrip().startswith("//"):
        if has_waiver(lines[i]):
            return True
        i -= 1
    return False


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


# Placement new (`new (&slot) T(...)`) constructs into pool storage and is
# the blessed idiom, so `new (` is exempt. (std::nothrow would slip through
# this test, but the tree never uses it.)
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
DELETE_RE = re.compile(r"\bdelete\b")
# `= delete;` on the same line declares a deleted function, not a free.
DELETED_FN_RE = re.compile(r"=\s*delete\b")
# Leading whitespace is horizontal-only: with MULTILINE a bare \s* would
# swallow newlines and pin the match (and its line number) lines too early.
MUTEX_MEMBER_RE = re.compile(
    r"^[ \t]*(?:mutable[ \t]+)?(?:pam::|std::)?(?:shared_)?mutex[ \t]+(\w+)[ \t]*;",
    re.MULTILINE,
)
PAM_ANNOTATION_RE = re.compile(r"PAM_[A-Z_]+\(([^()]*)\)")
BENCH_EMIT_RE = re.compile(r"\b(?:bench_json|row|row_seq)\s*\(")
# Matched against ORIGINAL lines (strip_code blanks string literals, which
# would erase the include path).
PAM_INTERNAL_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s+"(pam/(?!pam\.h)[^"]+)"')
# Metric constructions are located in STRIPPED code (so commented examples
# in doc headers don't fire), then the name literal is recovered from the
# original line. A type mention with no literal on the line (references,
# parameters, obs::histogram::bucket_of(...)) is not a construction.
OBS_METRIC_TYPE_RE = re.compile(r"\bobs::(counter|gauge|histogram)\b")
# Anchored at the type mention: an optional `>` (make_unique<obs::gauge>),
# an optional variable name, then the ctor's ( or { and the name literal.
# Anything else after the type (`::`, `&`, a bare parameter) is a reference,
# not a construction.
OBS_METRIC_CTOR_RE = re.compile(
    r'\Aobs::(?:counter|gauge|histogram)\s*(?:>\s*)?(?:[A-Za-z_]\w*\s*)?'
    r'[({]\s*"([^"]*)"')
METRIC_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("_bytes", "_depth", "_entries", "_keys", "_ns", "_ratio"),
    "histogram": ("_ns", "_bytes", "_ops"),
}
# Env-knob reads, matched against ORIGINAL lines for the same reason as
# includes. setenv/unsetenv calls are writes, not reads, and don't count.
ENV_READ_RE = re.compile(
    r'\b(?:env_long|env_double|getenv)\s*\(\s*"(PAM_\w+)"')
# Rows of the env_knobs() table in util/env.h.
ENV_CATALOGUE_ROW_RE = re.compile(r'\{"(PAM_\w+)"')
# A WAL append call (matched in stripped code: a comment naming it is not a
# call site).
LOG_ROUND_RE = re.compile(r"\blog_round\s*\(")
# The one file allowed to append to the WAL, and how often.
WAL_APPEND_SITE = "src/server/kv_store.h"
# An epoch retirement (stripped code), and the files allowed to make one.
EPOCH_RETIRE_RE = re.compile(r"\bepoch\s*::\s*retire\s*\(")
PUBLISH_SITES = ("src/alloc/arena.h", "src/pam/snapshot.h")
# ISA intrinsics, matched in stripped code (a comment naming a header or a
# feature macro is not a use): intrinsic headers, and the compiler's
# per-ISA feature macros that gate hand-written kernels.
ISA_HEADER_RE = re.compile(
    r"^[ \t]*#[ \t]*include[ \t]*<(\w*intrin\.h|arm_neon\.h)>", re.MULTILINE)
ISA_MACRO_RE = re.compile(r"\b__(?:AVX|SSE)\w*__\b")
# The one src/ file whose intrinsics are backed by a committed bench row.
ISA_INTRINSICS_SITE = "src/store/crc32c.h"
# Pointer low-bit tagging, matched in stripped code: within one statement, an
# integer view of a pointer and a bitwise op against 1 (or ~1, or the tag
# constant) — the set, test and strip of a leaf tag.
LEAF_TAG_RE = re.compile(
    r"\bu?intptr_t\b[^;{}]*?[&|^]=?\s*~?\s*\(?\s*"
    r"(?:u?intptr_t\s*[({]\s*)?(?:1|0x1|kLeafTag)\b")
# The one file that owns the leaf-tag protocol.
LEAF_TAG_SITE = "src/pam/node.h"


def lineno_of(text, pos):
    return text.count("\n", 0, pos) + 1


def lint_file(relpath, text, env_catalogue=None):
    """Lint one file; `relpath` decides which rules apply.

    `env_catalogue` is the set of PAM_* names listed in util/env.h's
    env_knobs() table (None skips the env-catalogue rule — e.g. when the
    table could not be parsed).
    """
    findings = []
    lines = text.split("\n")
    code = strip_code(text)
    code_lines = code.split("\n")
    unix = relpath.replace(os.sep, "/")

    in_src = unix.startswith("src/")
    # The sanctioned allocation surface: the pool layer itself, plus the
    # coded-block skeleton, which owns the byte-granular pool tables and the
    # atomically counted overflow allocations for oversized blocks.
    in_pool_layer = (unix.startswith("src/alloc/")
                     or unix == "src/pam/coded_block.h")
    is_wrapper = unix == "src/util/thread_annotations.h"

    if in_src and not in_pool_layer and not is_wrapper:
        for m in NEW_RE.finditer(code):
            ln = lineno_of(code, m.start())
            if not waived(lines, ln, "naked-new"):
                findings.append(Finding(
                    relpath, ln, "naked-new",
                    "allocate through the pool layer (src/alloc) or waive "
                    "with a rationale"))
        for m in DELETE_RE.finditer(code):
            ln = lineno_of(code, m.start())
            line_code = code.split("\n")[ln - 1]
            if DELETED_FN_RE.search(line_code):
                continue
            if not waived(lines, ln, "naked-delete"):
                findings.append(Finding(
                    relpath, ln, "naked-delete",
                    "free through epoch::retire or a pool, or waive with a "
                    "rationale"))

    if in_src and not is_wrapper:
        annotated = set()
        for m in PAM_ANNOTATION_RE.finditer(code):
            for tok in re.findall(r"\w+", m.group(1)):
                annotated.add(tok)
        for m in MUTEX_MEMBER_RE.finditer(code):
            name = m.group(1)
            ln = lineno_of(code, m.start())
            if name in annotated:
                continue
            if not waived(lines, ln, "unguarded-mutex"):
                findings.append(Finding(
                    relpath, ln, "unguarded-mutex",
                    f"mutex member '{name}' has no thread-safety annotation "
                    "companion (PAM_GUARDED_BY / PAM_REQUIRES / ...)"))

    if unix.startswith("bench/bench_") and unix.endswith(".cpp"):
        if not BENCH_EMIT_RE.search(code):
            findings.append(Finding(
                relpath, 1, "bench-json",
                "bench binary never reports through bench_json/row/row_seq; "
                "PAM_BENCH_JSON sweeps would silently miss it"))

    # Metric naming. Constructions are found in stripped code; the name comes
    # from the original line (the literal is blanked in `code`). src/obs/ is
    # the definition site, not a consumer, and is exempt.
    if not unix.startswith("src/obs/"):
        for m in OBS_METRIC_TYPE_RE.finditer(code):
            kind = m.group(1)
            ln = lineno_of(code, m.start())
            col = m.start() - (code.rfind("\n", 0, m.start()) + 1)
            # The name literal sits on the construction line or, for wrapped
            # member initializers, the next one.
            tail = lines[ln - 1][col:]
            if ln < len(lines):
                tail += "\n" + lines[ln]
            nm = OBS_METRIC_CTOR_RE.match(tail)
            if nm is None:
                continue  # a reference or parameter, not a construction
            name = nm.group(1)
            suffixes = METRIC_SUFFIXES[kind]
            ok = name.startswith("pam_") and name.endswith(suffixes)
            if not ok and not waived(lines, ln, "metric-name"):
                findings.append(Finding(
                    relpath, ln, "metric-name",
                    f"{kind} '{name}' must start with 'pam_' and end with "
                    f"one of {'/'.join(suffixes)}"))

    # Every env knob read must be in the util/env.h catalogue, or config
    # provenance silently under-reports. PAM_TEST_* are test fixtures. Calls
    # are detected in stripped code (a commented-out read is not a read);
    # the knob name comes from the original line.
    if env_catalogue is not None and unix != "src/util/env.h":
        for i, line in enumerate(lines):
            if not re.search(r"\b(?:env_long|env_double|getenv)\s*\(",
                             code_lines[i]):
                continue
            for m in ENV_READ_RE.finditer(line):
                name = m.group(1)
                if name.startswith("PAM_TEST_") or name in env_catalogue:
                    continue
                ln = i + 1
                if not waived(lines, ln, "env-catalogue"):
                    findings.append(Finding(
                        relpath, ln, "env-catalogue",
                        f"knob '{name}' is read here but missing from "
                        "env_knobs() in src/util/env.h"))

    # One write path: the only WAL append outside the durability layer is
    # the combiner sink kv_store wires up.
    if in_src and not unix.startswith("src/store/"):
        allowed = 1 if unix == WAL_APPEND_SITE else 0
        for n, m in enumerate(LOG_ROUND_RE.finditer(code)):
            ln = lineno_of(code, m.start())
            if n >= allowed and not waived(lines, ln, "wal-append-site"):
                findings.append(Finding(
                    relpath, ln, "wal-append-site",
                    "WAL append outside the combiner sink in "
                    f"{WAL_APPEND_SITE}: every WAL append must ride the "
                    "write combiner's flush locks"))

    # One publication primitive: published<T> is the only retire site
    # besides the epoch itself.
    if in_src and unix not in PUBLISH_SITES:
        for m in EPOCH_RETIRE_RE.finditer(code):
            ln = lineno_of(code, m.start())
            if not waived(lines, ln, "publish-site"):
                findings.append(Finding(
                    relpath, ln, "publish-site",
                    "epoch::retire( outside published<T> "
                    "(src/pam/snapshot.h): publish through published<T> "
                    "instead of a second atomic-pointer protocol"))

    # Hand-written SIMD only where a committed bench row shows it wins.
    if in_src and unix != ISA_INTRINSICS_SITE:
        hits = [(m.start(), f"<{m.group(1)}>")
                for m in ISA_HEADER_RE.finditer(code)]
        hits += [(m.start(), m.group(0)) for m in ISA_MACRO_RE.finditer(code)]
        for pos, what in sorted(hits):
            ln = lineno_of(code, pos)
            if not waived(lines, ln, "isa-intrinsics"):
                findings.append(Finding(
                    relpath, ln, "isa-intrinsics",
                    f"{what} outside {ISA_INTRINSICS_SITE}: intrinsics need "
                    "a committed bench row showing they beat the plain "
                    "loop"))

    # Leaf tags live behind node_manager's helpers.
    if unix != LEAF_TAG_SITE:
        for m in LEAF_TAG_RE.finditer(code):
            ln = lineno_of(code, m.start())
            if not waived(lines, ln, "leaf-tag"):
                findings.append(Finding(
                    relpath, ln, "leaf-tag",
                    f"pointer low-bit tag outside {LEAF_TAG_SITE}: use "
                    "node_manager's is_block / block_of / as_leaf"))

    # src/store/ is inside src/ but is a CONSUMER of the tree kernel, not
    # part of it: the checkpoint format depends only on the facade's
    # serialize/deserialize surface, and the lint keeps it that way.
    # src/obs/ likewise: the observability layer may see subsystem headers'
    # metrics but never the tree kernel's internals.
    if (not in_src or unix.startswith("src/store/")
            or unix.startswith("src/obs/")):
        for i, line in enumerate(lines):
            m = PAM_INTERNAL_INCLUDE_RE.match(line)
            if m is None:
                continue
            ln = i + 1
            if not waived(lines, ln, "include-discipline"):
                findings.append(Finding(
                    relpath, ln, "include-discipline",
                    f'"{m.group(1)}" is a tree-kernel internal; include '
                    '"pam/pam.h" instead'))

    return findings


LINT_DIRS = ("src", "tests", "bench", "examples")
LINT_EXTS = (".h", ".hpp", ".cpp", ".cc")


def read_env_catalogue(root):
    """The set of PAM_* knobs listed in util/env.h, or None if unparsable."""
    path = os.path.join(root, "src", "util", "env.h")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        names = set(ENV_CATALOGUE_ROW_RE.findall(f.read()))
    return names or None


def lint_tree(root):
    findings = []
    catalogue = read_env_catalogue(root)
    for d in LINT_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for fn in sorted(filenames):
                if not fn.endswith(LINT_EXTS):
                    continue
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as f:
                    findings.extend(lint_file(rel, f.read(), catalogue))
    return findings


# --------------------------------------------------------------- self-test --
# Fixtures live in tools/lint_fixtures/{pass,fail}. Each fixture's first
# line declares the path it pretends to be:
#     // pam-lint-fixture-path: src/pam/example.h
# A pass fixture must produce zero findings; a fail fixture must produce at
# least one finding whose rule matches the `expect:` declaration:
#     // pam-lint-fixture-expect: naked-new

FIXTURE_PATH_RE = re.compile(r"pam-lint-fixture-path:\s*(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"pam-lint-fixture-expect:\s*([a-z-]+)")


def self_test(fixtures_dir):
    failures = []
    ran = 0
    for kind in ("pass", "fail"):
        d = os.path.join(fixtures_dir, kind)
        for fn in sorted(os.listdir(d)):
            path = os.path.join(d, fn)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            pm = FIXTURE_PATH_RE.search(text)
            if pm is None:
                failures.append(f"{fn}: missing pam-lint-fixture-path header")
                continue
            ran += 1
            # Fixtures exercising env-catalogue declare knobs against this
            # synthetic two-row table.
            findings = lint_file(pm.group(1), text,
                                 env_catalogue={"PAM_LISTED"})
            if kind == "pass":
                if findings:
                    failures.append(
                        f"{fn}: expected clean, got: "
                        + "; ".join(str(x) for x in findings))
            else:
                em = FIXTURE_EXPECT_RE.search(text)
                if em is None:
                    failures.append(
                        f"{fn}: missing pam-lint-fixture-expect header")
                    continue
                rules = {x.rule for x in findings}
                if em.group(1) not in rules:
                    failures.append(
                        f"{fn}: expected a {em.group(1)} finding, got "
                        f"{sorted(rules) if rules else 'none'}")
    for msg in failures:
        print("SELF-TEST FAIL:", msg)
    print(f"pam_lint self-test: {ran} fixtures, {len(failures)} failures")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", help="repository root to lint")
    ap.add_argument("--self-test", action="store_true",
                    help="validate the linter against tools/lint_fixtures")
    args = ap.parse_args()

    if args.self_test:
        here = os.path.dirname(os.path.abspath(__file__))
        return self_test(os.path.join(here, "lint_fixtures"))

    if not args.root:
        ap.error("--root is required unless --self-test")
    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    print(f"pam_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
