#!/usr/bin/env python3
"""CTest entry proving the static gates fire.

Runs tools/neu10_analyze.py (the determinism gate) and
tools/check_headers.py (header self-containment) against the fixture
trees under tests/analyzer_fixtures/:

  violations/    every rule must flag its known file:line anchors —
                 the per-file rules (banned-random, float-eq,
                 naked-new) and both scopes of unordered-iter, each
                 site once; impure-path with the full multi-hop call
                 chain; mutable-global on each un-annotated
                 global/static; pointer-key-iter on both walk shapes;
                 stale-allow on dead directives of any rule — and the
                 broken header must fail the self-containment compile;
  clean/         idiomatic look-alikes must pass silently: sanctioned
                 boundaries (common/random, common/env,
                 common/logging), `clk.now()` / `frame.time()` /
                 `gen.rand()` / `Clock clock(...)` name collisions,
                 sorted-after-iteration and sentinel equality behind
                 allow(), deleted special members, order-insensitive
                 erasure walks, ordered or lookup-only maps, and
                 exempt globals (const/atomic/thread_local/mutex/
                 NEU10_GUARDED_BY);
  unknown_rule/  an allow() naming a rule the gate does not own is a
                 file:line error;

then checks the JSON report contract (schema-versioned, emitted even
on a clean run) and finally the real tree: zero findings on src/ and
every header self-contained, mirroring the CI gates.

The checks come in two parts, each its own ctest entry:

  --part lint      the per-file rules (banned-random, unordered-iter,
                   float-eq, naked-new, stale-allow) on their anchors,
                   the clean and unknown_rule trees, and the header
                   self-containment check (ctest `lint_tools`);
  --part analyzer  the whole-program rules (impure-path,
                   mutable-global, pointer-key-iter) and call chains,
                   the JSON report, the parse cache, the frontend
                   choices and the real-tree certification (ctest
                   `analyzer_tools`).

Without --part both run.

The exact-anchor assertions pin the textual frontend (the one
guaranteed everywhere); a second pass with --frontend auto asserts
only the exit code, so runners with libclang exercise that path too.

Usage: python3 tests/test_analyzer_tools.py [repo-root]
                                            [--part lint|analyzer]
Exit status: 0 when every expectation holds.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

FAILURES = []

# (file, line, rule) every violation the textual frontend must report.
VIOLATION_ANCHORS = [
    # impure-path: chrono clock + thread id, two hops deep
    ("src/sim/hot_path.cc", 22, "impure-path"),
    ("src/sim/hot_path.cc", 30, "impure-path"),
    # impure-path: random_device, rand(), printf outside the
    # sanctioned common/ boundaries
    ("src/models/seeded_badly.cc", 17, "impure-path"),
    ("src/models/seeded_badly.cc", 18, "impure-path"),
    ("src/models/seeded_badly.cc", 24, "impure-path"),
    # banned-random fires per file, reachable or not
    ("src/sim/hot_path.cc", 22, "banned-random"),
    ("src/models/seeded_badly.cc", 17, "banned-random"),
    ("src/models/seeded_badly.cc", 18, "banned-random"),
    ("src/models/bad_rng.cc", 11, "banned-random"),  # srand + time
    ("src/models/bad_rng.cc", 12, "banned-random"),
    ("src/models/bad_rng.cc", 18, "banned-random"),
    ("src/models/bad_rng.cc", 25, "banned-random"),
    ("src/models/bad_rng.cc", 26, "banned-random"),
    # unordered-iter, type-based: member-typed result flow
    ("src/cluster/unordered_result.cc", 34, "unordered-iter"),
    ("src/cluster/unordered_result.cc", 38, "unordered-iter"),
    ("src/cluster/unordered_result.cc", 47, "unordered-iter"),
    ("src/sched/queue_json.cc", 24, "unordered-iter"),
    # unordered-iter, file scope: a *Result-naming file (a parameter
    # walk the type-based half misses), and obs/ and llm/ on the path
    # alone
    ("src/cluster/bad_unordered.cc", 19, "unordered-iter"),
    ("src/cluster/bad_unordered.cc", 24, "unordered-iter"),
    ("src/obs/bad_trace_export.cc", 14, "unordered-iter"),
    ("src/obs/bad_trace_export.cc", 21, "unordered-iter"),
    ("src/llm/bad_kv_accounting.cc", 26, "unordered-iter"),
    ("src/llm/bad_kv_accounting.cc", 30, "unordered-iter"),
    # float-eq in the accounting scopes (llm/ is one)
    ("src/vnpu/bad_float_eq.cc", 13, "float-eq"),
    ("src/vnpu/bad_float_eq.cc", 15, "float-eq"),
    ("src/llm/bad_kv_accounting.cc", 16, "float-eq"),
    ("src/llm/bad_kv_accounting.cc", 18, "float-eq"),
    # naked-new: both news, both deletes
    ("src/runtime/bad_naked_new.cc", 11, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 12, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 19, "naked-new"),
    ("src/runtime/bad_naked_new.cc", 20, "naked-new"),
    # mutable-global: plain, static, anon-namespace, fn-local
    ("src/common/global_state.cc", 8, "mutable-global"),
    ("src/common/global_state.cc", 10, "mutable-global"),
    ("src/common/global_state.cc", 14, "mutable-global"),
    ("src/common/global_state.cc", 20, "mutable-global"),
    # pointer-key-iter: range-for and begin() walk
    ("src/sched/ptr_key.cc", 20, "pointer-key-iter"),
    ("src/sched/ptr_key.cc", 23, "pointer-key-iter"),
    # stale-allow: a dead per-file and a dead whole-program escape
    ("src/runtime/stale_allow.cc", 22, "stale-allow"),
    ("src/runtime/stale_allow.cc", 39, "stale-allow"),
]
# Findings in the violations tree, counting the second banned-random
# on bad_rng.cc:11.
VIOLATION_TOTAL = len(VIOLATION_ANCHORS) + 1

# Rules judged per file on stripped text; the rest need the call graph.
PER_FILE_RULES = {"banned-random", "unordered-iter", "float-eq",
                  "naked-new", "stale-allow"}


def run(tool, *argv):
    cmd = [sys.executable, str(tool), *map(str, argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond, what):
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        FAILURES.append(what)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("root", nargs="?", default=".")
    parser.add_argument("--part", choices=("lint", "analyzer"))
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    tool = root / "tools" / "neu10_analyze.py"
    headers = root / "tools" / "check_headers.py"
    fixtures = root / "tests" / "analyzer_fixtures"

    if args.part in (None, "lint"):
        check_per_file_rules(tool, headers, fixtures, root)
    if args.part in (None, "analyzer"):
        check_whole_program(tool, fixtures, root)

    if FAILURES:
        print(f"\n{len(FAILURES)} expectation(s) failed")
        return 1
    print("\nall static-gate expectations hold")
    return 0


def violation_lines(tool, fixtures, per_file):
    """Runs the gate on the violations tree and asserts the anchors of
    the per-file rules (per_file) or of the whole-program ones."""
    rc, out = run(tool, "--root", fixtures / "violations",
                  "--frontend", "textual")
    lines = out.splitlines()
    expect(rc == 1, "violations tree exits 1")
    for path, line, rule in VIOLATION_ANCHORS:
        if (rule in PER_FILE_RULES) != per_file:
            continue
        anchor = f"{path}:{line}: {rule}:"
        expect(any(l.startswith(anchor) for l in lines),
               f"{rule} fires at {path}:{line}")
    return lines


def check_per_file_rules(tool, headers, fixtures, root):
    lines = violation_lines(tool, fixtures, per_file=True)

    # A walk both unordered-iter scopes see is one site, one finding.
    for site in ("src/cluster/bad_unordered.cc:24",
                 "src/cluster/unordered_result.cc:34"):
        hits = [l for l in lines
                if l.startswith(f"{site}: unordered-iter:")]
        expect(len(hits) == 1,
               f"unordered-iter reports {site} once (got {len(hits)})")

    # stale-allow precision: only the two dead directives; the live
    # banned-random and mutable-global escapes stay silent.
    stale = [l for l in lines if " stale-allow: " in l]
    expect(len(stale) == 2 and "allow(naked-new)" in stale[0]
           and "allow(pointer-key-iter)" in stale[1],
           "stale-allow flags only the dead directives, naming the rule")
    expect(not any(l.startswith(("src/runtime/stale_allow.cc:30:",
                                 "src/runtime/stale_allow.cc:34:"))
                   for l in lines),
           "live allow(banned-random) / allow(mutable-global) honoured")

    # ---- clean tree: look-alikes stay silent ----------------------
    rc, out = run(tool, "--root", fixtures / "clean",
                  "--frontend", "textual")
    expect(rc == 0,
           "clean tree passes: " + out.strip().splitlines()[-1])
    expect("3 allowed" in out,
           "allow(unordered-iter) x2 and allow(float-eq) honoured "
           "and counted")

    # ---- an allow() naming an unknown rule is a file:line error ---
    rc, out = run(tool, "--root", fixtures / "unknown_rule",
                  "--frontend", "textual")
    expect(rc == 2 and
           "src/runtime/bogus_allow.cc:10: unknown rule(s) in allow(): "
           "float-equal" in out,
           "unknown allow() rule exits 2 with file:line")

    # ---- header self-containment: fixture proof both ways ---------
    rc, out = run(headers, "--root", fixtures / "violations")
    expect(rc == 1 and "bad_header.hh" in out,
           "broken header flagged as not self-contained")
    rc, _ = run(headers, "--root", fixtures / "clean")
    expect(rc == 0, "self-contained header passes")

    # ---- the real tree's headers (mirror of the CI gate) ----------
    rc, out = run(headers, "--root", root)
    expect(rc == 0, "repo src/ headers self-contained: "
           + out.strip().splitlines()[-1])


def check_whole_program(tool, fixtures, root):
    lines = violation_lines(tool, fixtures, per_file=False)
    out = "\n".join(lines)

    # impure-path findings must carry the full chain, one hop per
    # line, each with a file:line anchor.
    expect("runFleet -> neu10::(anon)::stampNow" in out,
           "impure-path reports the call chain")
    expect("    via src/sim/hot_path.cc:" in out,
           "every chain hop carries file:line")

    # ---- JSON report: schema-versioned, present even when clean ---
    with tempfile.TemporaryDirectory() as td:
        report = pathlib.Path(td) / "findings.json"
        rc, _ = run(tool, "--root", fixtures / "clean",
                    "--frontend", "textual", "--json", report)
        expect(rc == 0 and report.exists(),
               "clean run still writes the JSON report")
        doc = json.loads(report.read_text())
        expect(doc.get("schema") == "neu10-analyze-v1",
               "report is schema-versioned")
        expect(doc.get("findings") == [],
               "clean report has an empty findings list")
        for key in ("frontend", "rules", "entry_points",
                    "files_analyzed", "call_edges"):
            expect(key in doc, f"report carries '{key}'")

        report2 = pathlib.Path(td) / "violations.json"
        rc, _ = run(tool, "--root", fixtures / "violations",
                    "--frontend", "textual", "--json", report2)
        doc2 = json.loads(report2.read_text())
        expect(rc == 1 and len(doc2["findings"]) == VIOLATION_TOTAL,
               f"violations report lists all {VIOLATION_TOTAL} "
               f"findings (got {len(doc2['findings'])})")
        chains = [f for f in doc2["findings"]
                  if f["rule"] == "impure-path"]
        expect(all(f.get("chain") for f in chains),
               "JSON impure-path findings embed the machine-readable "
               "chain")

    # ---- cache: second run must reuse every parse -----------------
    with tempfile.TemporaryDirectory() as td:
        cache = pathlib.Path(td) / "cache"
        run(tool, "--root", fixtures / "clean",
            "--frontend", "textual", "--cache-dir", cache)
        rc, out = run(tool, "--root", fixtures / "clean",
                      "--frontend", "textual", "--cache-dir", cache)
        expect(rc == 0 and "(10 from cache)" in out,
               "warm cache reuses all parsed IR")

    # ---- explicit unavailable frontend is a setup error (rc 2) ----
    if not _has_libclang():
        rc, out = run(tool, "--root", fixtures / "clean",
                      "--frontend", "libclang")
        expect(rc == 2 and "python3-clang" in out,
               "explicit libclang without bindings exits 2 with hint")

    # ---- the retired ast-json frontend is an unknown choice -------
    rc, out = run(tool, "--root", fixtures / "clean",
                  "--frontend", "ast-json")
    expect(rc == 2 and "invalid choice" in out,
           "--frontend ast-json is rejected with exit 2")

    # ---- auto frontend: verdicts agree on any runner --------------
    rc, _ = run(tool, "--root", fixtures / "violations",
                "--frontend", "auto")
    expect(rc == 1, "auto frontend still flags the violations tree")

    # ---- the real tree is certified (mirror of the CI gate) -------
    rc, out = run(tool, "--root", root, "--frontend", "auto")
    expect(rc == 0, "repo src/ is certified deterministic: "
           + out.strip().splitlines()[-1])


def _has_libclang():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


if __name__ == "__main__":
    sys.exit(main())
