#!/usr/bin/env python3
"""Determinism lint for the PALMED tree.

The repo's core guarantee is bitwise reproducibility: mappings and stats
are identical across Serial/Parallel(N) execution, and mapping files
round-trip bit-exactly. Example-based tests enforce this after the fact;
this lint statically flags the code patterns that silently break it:

  unordered-iter        iteration over std::unordered_map/set (range-for
                        or .begin()): hash-table iteration order is
                        implementation- and run-dependent, so anything it
                        feeds (output, serialization, float accumulation)
                        is nondeterministic. Sort before emitting.
  pointer-key           associative container keyed by pointer value:
                        ordering/iteration follows allocation addresses,
                        which differ run to run (ASLR, allocator state).
  raw-random            rand()/srand()/std::random_device/time() outside
                        src/support/Rng: all randomness must flow through
                        the seedable deterministic Rng.
  parallel-float-accum  compound float accumulation (+=, -=, *=) onto a
                        shared, non-indexed target inside an
                        Executor::parallelFor body: float addition is not
                        associative, so thread interleaving changes the
                        result. Write per-index slots, reduce serially.

Findings carry file:line and a rule id. A justified hazard is waived with
an inline suppression on the same line or the line above:

    // LINT-DETERMINISM: allow(unordered-iter) order-independent sum

The reason is mandatory; suppressions are counted and reported so waivers
stay visible. Exit status is 1 when any unsuppressed finding remains.

The scanner is pure regex over comment/string-stripped source: zero
dependencies, runs anywhere.
"""

import argparse
import bisect
import os
import re
import sys

RULES = {
    "unordered-iter":
        "iteration over an unordered container; hash order is "
        "run-dependent — sort keys before emitting/accumulating, or "
        "suppress with the order-independence reason",
    "pointer-key":
        "associative container keyed by pointer value; iteration and "
        "ordering follow allocation addresses, which change run to run",
    "raw-random":
        "raw randomness/time source; use the seedable palmed::Rng "
        "(src/support/Rng.h) so runs are reproducible",
    "parallel-float-accum":
        "compound accumulation onto a shared target inside a parallelFor "
        "body; float reduction order depends on thread interleaving — "
        "write an index-ordered slot and reduce serially",
}

SUPPRESS_RE = re.compile(
    r"//\s*LINT-DETERMINISM:\s*allow\(([a-z-]+)\)\s*(\S.*)?$")

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
ASSOC_RE = re.compile(
    r"\b(?:unordered_)?(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
BEGIN_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*"
    r"(?:\.|->)\s*c?begin\s*\(")
RAW_RANDOM_RES = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
]
PARALLEL_FOR_RE = re.compile(r"\bparallelFor\s*\(")
COMPOUND_ASSIGN_RE = re.compile(
    r"(?<![\w\]\)])([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*"
    r"(\+=|-=|\*=)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message
        self.suppressed = False
        self.suppression_reason = None

    def __str__(self):
        tag = " (suppressed: %s)" % self.suppression_reason \
            if self.suppressed else ""
        return "%s:%d: [%s] %s%s" % (
            self.path, self.line, self.rule, self.message, tag)


def strip_comments_and_strings(text):
    """Returns text of identical length/line structure with comments,
    string literals, and char literals blanked out, so regexes cannot
    match inside them. Handles //, /* */, "...", '...', and R"tag(...)tag"
    raw strings."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == "R" and text[i:i + 2] == 'R"' and \
                (i == 0 or not (text[i - 1].isalnum() or
                                text[i - 1] == "_")):
            m = re.match(r'R"([^(\s]{0,16})\(', text[i:])
            if not m:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j < 0 else j + len(close)
            blank(i + 1, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j = j + 2 if text[j] == "\\" else j + 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(offsets, pos):
    """1-based line for a character offset, given sorted newline offsets."""
    return bisect.bisect_right(offsets, pos) + 1


def newline_offsets(text):
    return [m.start() for m in re.finditer(r"\n", text)]


def match_bracket(text, pos, open_ch, close_ch):
    """Offset just past the bracket matching text[pos] (which must be
    open_ch), or -1 when unbalanced. Text must be pre-stripped."""
    assert text[pos] == open_ch
    depth = 0
    for i in range(pos, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text, pos):
    """Like match_bracket for template angle brackets; tolerates >> and
    stops on obvious non-template characters ( ; { } )."""
    assert text[pos] == "<"
    depth = 0
    for i in range(pos, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
    return -1


def split_top_level(args, sep=","):
    """Splits template-argument text on top-level separators."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(args):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    parts.append(args[start:])
    return parts


def tail_identifier(expr):
    """Last identifier component of an expression like `M->Cache->Done`,
    `S.InFlight`, or `Done` (ignoring trailing calls/subscripts)."""
    expr = expr.strip()
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else None


def unordered_var_names(stripped):
    """Names of variables/members declared with an unordered container
    type anywhere in this file (a regex approximation of a type
    lookup)."""
    names = set()
    for m in UNORDERED_RE.finditer(stripped):
        lt = m.end() - 1
        end = match_angle(stripped, lt)
        if end < 0:
            continue
        decl = re.match(r"\s*(?:&|\*|const\b|\s)*([A-Za-z_]\w*)\s*[;={(\[]",
                        stripped[end:end + 160])
        if decl:
            names.add(decl.group(1))
    return names


def find_unordered_iter(path, stripped, offsets, extra_names=None):
    findings = []
    names = unordered_var_names(stripped)
    if extra_names:
        names = names | extra_names

    for m in RANGE_FOR_RE.finditer(stripped):
        paren = m.end() - 1
        end = match_bracket(stripped, paren, "(", ")")
        if end < 0:
            continue
        head = stripped[paren + 1:end - 1]
        parts = split_top_level(head, ":")
        if len(parts) != 2:
            continue
        target = tail_identifier(parts[1])
        is_unordered_decl = UNORDERED_RE.search(parts[1]) is not None
        if target in names or is_unordered_decl:
            findings.append(Finding(
                path, line_of(offsets, m.start()), "unordered-iter",
                "range-for over unordered container '%s': %s" % (
                    target, RULES["unordered-iter"])))

    for m in BEGIN_RE.finditer(stripped):
        target = tail_identifier(m.group(1))
        if target in names:
            findings.append(Finding(
                path, line_of(offsets, m.start()), "unordered-iter",
                "iterator over unordered container '%s': %s" % (
                    target, RULES["unordered-iter"])))
    return findings


def find_pointer_key(path, stripped, offsets):
    findings = []
    for m in ASSOC_RE.finditer(stripped):
        lt = m.end() - 1
        end = match_angle(stripped, lt)
        if end < 0:
            continue
        args = stripped[lt + 1:end - 1]
        key = split_top_level(args)[0].strip()
        # A pointer key is `T *` (possibly const/qualified); smart
        # pointers and `T *const` casts inside deeper args don't count.
        if re.search(r"\*\s*(?:const\s*)?$", key):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "pointer-key",
                "container keyed by pointer type '%s': %s" % (
                    key, RULES["pointer-key"])))
    return findings


def find_raw_random(path, stripped, offsets):
    if re.search(r"(^|/)support/Rng\.(h|cpp)$", path.replace(os.sep, "/")):
        return []
    findings = []
    for rx, what in RAW_RANDOM_RES:
        for m in rx.finditer(stripped):
            findings.append(Finding(
                path, line_of(offsets, m.start()), "raw-random",
                "%s: %s" % (what, RULES["raw-random"])))
    return findings


def parallel_for_bodies(stripped):
    """(start, end) offset ranges of lambda bodies inside parallelFor
    call arguments."""
    bodies = []
    for m in PARALLEL_FOR_RE.finditer(stripped):
        paren = m.end() - 1
        end = match_bracket(stripped, paren, "(", ")")
        if end < 0:
            continue
        args = stripped[paren + 1:end - 1]
        brace = args.find("{")
        while brace >= 0:
            body_end = match_bracket(args, brace, "{", "}")
            if body_end < 0:
                break
            bodies.append((paren + 1 + brace, paren + 1 + body_end))
            brace = args.find("{", body_end)
    return bodies


def find_parallel_float_accum(path, stripped, offsets):
    findings = []
    for start, end in parallel_for_bodies(stripped):
        body = stripped[start:end]
        for m in COMPOUND_ASSIGN_RE.finditer(body):
            target = m.group(1)
            findings.append(Finding(
                path, line_of(offsets, start + m.start()),
                "parallel-float-accum",
                "'%s %s' inside a parallelFor body: %s" % (
                    target, m.group(2), RULES["parallel-float-accum"])))
    return findings


def apply_suppressions(findings, original_text):
    """Marks findings waived by `// LINT-DETERMINISM: allow(<rule>)
    <reason>` on the same line or the line above. Returns the list of
    (line, rule, reason) suppression comments found, used or not."""
    lines = original_text.split("\n")
    suppressions = {}
    for idx, line in enumerate(lines):
        m = SUPPRESS_RE.search(line)
        if m:
            reason = (m.group(2) or "").strip()
            suppressions[idx + 1] = (m.group(1), reason)
    for f in findings:
        for cand in (f.line, f.line - 1):
            entry = suppressions.get(cand)
            if entry and entry[0] == f.rule:
                f.suppressed = True
                f.suppression_reason = entry[1] or "<no reason given>"
                break
    return [(ln, rule, reason)
            for ln, (rule, reason) in sorted(suppressions.items())]


def lint_text(path, text, extra_names=None):
    """All findings for one file's contents.

    extra_names: unordered-container member/variable names declared in
    *other* files under the lint root (headers, most importantly), so a
    .cpp iterating a member its header declares is still caught. The
    union trades some precision for recall — a same-named ordered
    container elsewhere would misfire — but misfires are visible and
    suppressible, while silent misses are not.
    """
    stripped = strip_comments_and_strings(text)
    offsets = newline_offsets(stripped)
    findings = []
    findings += find_unordered_iter(path, stripped, offsets, extra_names)
    findings += find_pointer_key(path, stripped, offsets)
    findings += find_raw_random(path, stripped, offsets)
    findings += find_parallel_float_accum(path, stripped, offsets)
    suppression_comments = apply_suppressions(findings, text)
    bad_reason = [s for s in suppression_comments if not s[2]]
    for ln, rule, _ in bad_reason:
        findings.append(Finding(
            path, ln, rule,
            "suppression without a reason; write "
            "`// LINT-DETERMINISM: allow(%s) <why this is safe>`" % rule))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(root):
    exts = (".h", ".hpp", ".cpp", ".cc", ".cxx")
    out = []
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(exts):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default="src",
                    help="directory (or single file) to lint [src]")
    ap.add_argument("--list-suppressions", action="store_true",
                    help="also print every active suppression")
    args = ap.parse_args(argv)

    files = [args.root] if os.path.isfile(args.root) \
        else collect_files(args.root)
    texts = {}
    for path in files:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            texts[path] = fh.read()
    # Cross-file pass: unordered declarations anywhere under the root are
    # visible when linting every file (headers declare, .cpps iterate).
    global_names = set()
    for path, text in texts.items():
        global_names |= unordered_var_names(
            strip_comments_and_strings(text))
    all_findings = []
    for path in files:
        all_findings += lint_text(path, texts[path], global_names)

    unsuppressed = [f for f in all_findings if not f.suppressed]
    suppressed = [f for f in all_findings if f.suppressed]
    for f in unsuppressed:
        print(f)
    if args.list_suppressions or suppressed:
        for f in suppressed:
            print(f)
    print("determinism_lint: %d file(s), %d finding(s), %d suppressed" % (
        len(files), len(unsuppressed), len(suppressed)))
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
