#!/usr/bin/env python3
"""hades-analyze fixture suite (ctest label: static-analysis).

Every rule runs against fixture_repo/, a miniature HADES tree where
each rule has a violating, a clean, and a suppressed case. The
EXPECTED findings are declared in the fixture sources themselves with
`EXPECT: <rule>` comments on the exact line, so the assertion is: the
set of (file, line) findings equals the set of EXPECT markers for that
rule -- nothing missing (the violating case fires), nothing extra
(clean and suppressed cases stay quiet).
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", "..", ".."))
FIXTURE_REPO = os.path.join(HERE, "fixture_repo")
EXPECT_RE = re.compile(r"EXPECT:\s*([a-z-]+)")

sys.path.insert(0, REPO)

from tools.hades_analyze.config import ALL_RULES  # noqa: E402

failures = []


def check(what, cond, detail=""):
    if cond:
        print("  ok: %s" % what)
    else:
        failures.append(what)
        print("FAIL: %s%s" % (what, ("\n      " + detail) if detail else ""))


def expected_markers():
    """rule -> set((relpath, line)) scraped from the fixture sources."""
    exp = {r: set() for r in ALL_RULES}
    for dirpath, _dirs, files in os.walk(FIXTURE_REPO):
        for fname in sorted(files):
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, FIXTURE_REPO).replace(os.sep, "/")
            with open(full, "r", encoding="utf-8") as fh:
                for i, line in enumerate(fh, 1):
                    m = EXPECT_RE.search(line)
                    if m and m.group(1) in exp:
                        exp[m.group(1)].add((rel, i))
    return exp


def run_rule(rule):
    """Findings from one rule over the fixture repo, via the CLI."""
    out = os.path.join(tempfile.mkdtemp(prefix="hades-analyze-"),
                       "findings.json")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.hades_analyze",
         "--repo", FIXTURE_REPO, "--rules", rule, "--quiet", "--json", out],
        cwd=REPO, capture_output=True, text=True)
    with open(out, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return proc.returncode, report["findings"]


def test_rule_fixtures():
    exp = expected_markers()
    # Sanity: the fixture tree actually declares work for every rule.
    for rule in ALL_RULES:
        check("fixtures declare at least one %s case" % rule,
              bool(exp[rule]))
    for rule in ALL_RULES:
        rc, findings = run_rule(rule)
        got = {(f["file"], f["line"]) for f in findings}
        check("%s: exact findings" % rule, got == exp[rule],
              "expected %s, got %s" % (sorted(exp[rule]), sorted(got)))
        check("%s: exit code signals findings" % rule,
              rc == (1 if exp[rule] else 0), "rc=%d" % rc)
        for f in findings:
            check("%s: finding carries its rule name" % rule,
                  f["rule"] == rule, json.dumps(f))
    # Message-content spot checks (the part line numbers cannot prove).
    _, unordered = run_rule("unordered-iter")
    check("unordered-iter resolved the cross-file field type",
          any("unordered_map" in f["detail"] for f in unordered))
    _, lane = run_rule("lane-escape")
    check("lane-escape explains the escape",
          any("not gate-covered" in f["detail"] for f in lane))


def main():
    print("== rule fixtures (%s)" % os.path.relpath(FIXTURE_REPO, REPO))
    test_rule_fixtures()
    if failures:
        print("\n%d check(s) FAILED:" % len(failures))
        for f in failures:
            print("  - %s" % f)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
