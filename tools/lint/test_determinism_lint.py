#!/usr/bin/env python3
"""Self-tests for determinism_lint.py.

Each test feeds a minimal known-bad C++ snippet through lint_text and
asserts the expected rule fires exactly where intended — and nowhere
else — plus the suppression machinery. Run directly, via
`python3 -m unittest`, or through the lint.self_test CTest entry.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import determinism_lint as dl  # noqa: E402


def run(snippet, extra_names=None, path="snippet.cpp"):
    return dl.lint_text(path, snippet, extra_names)


def rules(findings, suppressed=False):
    return [f.rule for f in findings if f.suppressed == suppressed]


class UnorderedIterTest(unittest.TestCase):
    def test_range_for_fires_once(self):
        findings = run(
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> Stats;\n"
            "void emit(std::string &Out) {\n"
            "  for (const auto &KV : Stats)\n"
            "    Out += std::to_string(KV.second);\n"
            "}\n")
        self.assertEqual(rules(findings), ["unordered-iter"])
        self.assertEqual(findings[0].line, 4)

    def test_iterator_begin_fires(self):
        findings = run(
            "std::unordered_set<int> Seen;\n"
            "int count() {\n"
            "  int N = 0;\n"
            "  for (auto It = Seen.begin(); It != Seen.end(); ++It) ++N;\n"
            "  return N;\n"
            "}\n")
        self.assertEqual(rules(findings), ["unordered-iter"])
        self.assertEqual(findings[0].line, 4)

    def test_ordered_map_does_not_fire(self):
        findings = run(
            "#include <map>\n"
            "std::map<int, double> Stats;\n"
            "void emit(std::string &Out) {\n"
            "  for (const auto &KV : Stats) Out += 'x';\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_vector_does_not_fire(self):
        findings = run(
            "std::vector<int> Items;\n"
            "void f() { for (int I : Items) (void)I; }\n")
        self.assertEqual(findings, [])

    def test_cross_file_member_fires(self):
        # The declaration lives in another file (the header); the name is
        # passed in through extra_names like main()'s cross-file pass.
        findings = run(
            "void flush(Cache &C, std::string &Out) {\n"
            "  for (const auto &KV : C.Done) Out += KV.first;\n"
            "}\n",
            extra_names={"Done"})
        self.assertEqual(rules(findings), ["unordered-iter"])

    def test_mention_in_comment_or_string_ignored(self):
        findings = run(
            "// for (auto &KV : UnorderedThing) would be bad\n"
            "const char *S = \"for (auto &X : Hash.begin())\";\n"
            "std::unordered_map<int,int> M;\n"
            "int f() { return M.count(3); }\n")
        self.assertEqual(findings, [])


class PointerKeyTest(unittest.TestCase):
    def test_pointer_keyed_map_fires_once(self):
        findings = run(
            "#include <map>\n"
            "struct Node {};\n"
            "std::map<Node *, int> ByAddr;\n")
        self.assertEqual(rules(findings), ["pointer-key"])
        self.assertEqual(findings[0].line, 3)

    def test_pointer_keyed_unordered_set_fires(self):
        findings = run("std::unordered_set<const Node *> Visited;\n")
        # The pointer key fires; declaring an unordered container alone
        # must not trip unordered-iter.
        self.assertEqual(rules(findings), ["pointer-key"])

    def test_pointer_value_does_not_fire(self):
        findings = run("std::map<int, Node *> ById;\n")
        self.assertEqual(findings, [])

    def test_smart_pointer_key_does_not_fire(self):
        findings = run(
            "std::map<std::shared_ptr<Node>, int> ByOwner;\n")
        self.assertEqual(findings, [])


class RawRandomTest(unittest.TestCase):
    def test_rand_fires_once(self):
        findings = run(
            "#include <cstdlib>\n"
            "int f() { return rand(); }\n")
        self.assertEqual(rules(findings), ["raw-random"])
        self.assertEqual(findings[0].line, 2)

    def test_random_device_fires(self):
        findings = run("std::random_device Rd;\n")
        self.assertEqual(rules(findings), ["raw-random"])

    def test_time_null_fires(self):
        findings = run("long Seed = time(nullptr);\n")
        self.assertEqual(rules(findings), ["raw-random"])

    def test_rng_h_is_exempt(self):
        findings = run("int f() { return rand(); }\n",
                       path="src/support/Rng.cpp")
        self.assertEqual(findings, [])

    def test_time_in_comment_does_not_fire(self):
        findings = run(
            "// computed at creation time (each round)\n"
            "int strand(int X); // 'strand' is not srand\n"
            "int g(int X) { return strand(X); }\n")
        self.assertEqual(findings, [])

    def test_member_time_call_does_not_fire(self):
        findings = run("double T = Clock.time();\n")
        self.assertEqual(findings, [])


class ParallelFloatAccumTest(unittest.TestCase):
    def test_shared_accumulation_fires_once(self):
        findings = run(
            "void f(Executor &E, const double *Vals) {\n"
            "  double Total = 0.0;\n"
            "  E.parallelFor(8, [&](size_t I, unsigned) {\n"
            "    Total += Vals[I];\n"
            "  });\n"
            "}\n")
        self.assertEqual(rules(findings), ["parallel-float-accum"])
        self.assertEqual(findings[0].line, 4)

    def test_indexed_slot_write_does_not_fire(self):
        findings = run(
            "void f(Executor &E, double *Slots, const double *Vals) {\n"
            "  E.parallelFor(8, [&](size_t I, unsigned) {\n"
            "    Slots[I] = Vals[I] * 2.0;\n"
            "    Slots[I] += 1.0;\n"
            "  });\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_accumulation_outside_parallel_for_does_not_fire(self):
        findings = run(
            "double sum(const std::vector<double> &V) {\n"
            "  double Total = 0.0;\n"
            "  for (double X : V) Total += X;\n"
            "  return Total;\n"
            "}\n")
        self.assertEqual(findings, [])


class SuppressionTest(unittest.TestCase):
    SNIPPET = (
        "std::unordered_map<int,int> M;\n"
        "int f() {\n"
        "  int N = 0;\n"
        "  // LINT-DETERMINISM: allow(unordered-iter) order-independent sum\n"
        "  for (auto &KV : M) N += KV.second;\n"
        "  return N;\n"
        "}\n")

    def test_suppression_on_previous_line_honored(self):
        findings = run(self.SNIPPET)
        self.assertEqual(rules(findings, suppressed=True),
                         ["unordered-iter"])
        self.assertEqual(rules(findings, suppressed=False), [])
        self.assertEqual(findings[0].suppression_reason,
                         "order-independent sum")

    def test_same_line_suppression_honored(self):
        findings = run(
            "std::unordered_map<int,int> M;\n"
            "void f(int &N) {\n"
            "  for (auto &KV : M) N += KV.second; "
            "// LINT-DETERMINISM: allow(unordered-iter) sum is commutative\n"
            "}\n")
        self.assertEqual(rules(findings, suppressed=True),
                         ["unordered-iter"])
        self.assertEqual(rules(findings, suppressed=False), [])

    def test_wrong_rule_suppression_ignored(self):
        findings = run(self.SNIPPET.replace("unordered-iter", "raw-random"))
        self.assertEqual(rules(findings, suppressed=False),
                         ["unordered-iter"])

    def test_reasonless_suppression_is_itself_a_finding(self):
        findings = run(
            "std::unordered_map<int,int> M;\n"
            "void f(int &N) {\n"
            "  // LINT-DETERMINISM: allow(unordered-iter)\n"
            "  for (auto &KV : M) N += KV.second;\n"
            "}\n")
        # The iteration is waived, but the empty reason is reported as an
        # unsuppressed finding of its own (anchored at the comment line).
        unsuppressed = [f for f in findings if not f.suppressed]
        self.assertEqual(len(unsuppressed), 1)
        self.assertIn("without a reason", unsuppressed[0].message)
        self.assertEqual(unsuppressed[0].line, 3)


class StripperTest(unittest.TestCase):
    def test_line_structure_preserved(self):
        text = 'int a; // x\n/* multi\nline */ int b;\n"str\\"ing"\n'
        stripped = dl.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("multi", stripped)
        self.assertNotIn("str", stripped)
        self.assertIn("int a;", stripped)
        self.assertIn("int b;", stripped)

    def test_raw_string_stripped(self):
        text = 'auto S = R"(for (auto &X : M) rand();)"; int c;\n'
        stripped = dl.strip_comments_and_strings(text)
        self.assertNotIn("rand", stripped)
        self.assertIn("int c;", stripped)


class TreeIsCleanTest(unittest.TestCase):
    def test_src_tree_has_no_unsuppressed_findings(self):
        """The enforced invariant: the real tree lints clean (suppressed
        waivers are allowed; new unsuppressed hazards are not)."""
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "src")
        root = os.path.normpath(root)
        if not os.path.isdir(root):
            self.skipTest("src/ not present")
        rc = dl.main(["--root", root])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
