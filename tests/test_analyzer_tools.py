#!/usr/bin/env python3
"""CTest entry proving the whole-program determinism certifier fires.

Runs tools/neu10_analyze.py against the fixture trees under
tests/analyzer_fixtures/:

  violations/  every rule must flag its known file:line anchors —
               impure-path with the full multi-hop call chain,
               unordered-iter purely from declared types (no path
               heuristic), mutable-global on each un-annotated
               global/static, pointer-key-iter on both walk shapes;
  clean/       idiomatic look-alikes must pass silently: sanctioned
               boundaries (common/random, common/env, common/logging),
               `clk.now()` / `frame.time()` / `gen.rand()` name
               collisions, sorted-after-iteration behind allow(),
               order-insensitive erasure walks, int-keyed maps, and
               exempt globals (const/atomic/thread_local/mutex/
               NEU10_GUARDED_BY);

then checks the JSON report contract (schema-versioned, emitted even
on a clean run) and finally certifies the real tree: zero findings
on src/, mirroring the CI gate.

The exact-anchor assertions pin the textual frontend (the one
guaranteed everywhere); a second pass with --frontend auto asserts
only the exit code, so runners with libclang exercise that path too.

Usage: python3 tests/test_analyzer_tools.py [repo-root]
Exit status: 0 when every expectation holds.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

FAILURES = []


def run(tool, *argv):
    cmd = [sys.executable, str(tool), *map(str, argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(cond, what):
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        FAILURES.append(what)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    root = root.resolve()
    tool = root / "tools" / "neu10_analyze.py"
    fixtures = root / "tests" / "analyzer_fixtures"

    # ---- violations tree: every rule fires on its exact anchor ----
    rc, out = run(tool, "--root", fixtures / "violations",
                  "--frontend", "textual")
    expect(rc == 1, "violations tree exits 1")
    for path, line, rule in [
        # impure-path: chrono clock + thread id, two hops deep
        ("src/sim/hot_path.cc", 22, "impure-path"),
        ("src/sim/hot_path.cc", 30, "impure-path"),
        # impure-path: random_device, rand(), printf outside the
        # sanctioned common/ boundaries
        ("src/models/seeded_badly.cc", 17, "impure-path"),
        ("src/models/seeded_badly.cc", 18, "impure-path"),
        ("src/models/seeded_badly.cc", 24, "impure-path"),
        # unordered-iter: member-typed, result-flow by type/name only
        ("src/cluster/unordered_result.cc", 34, "unordered-iter"),
        ("src/cluster/unordered_result.cc", 38, "unordered-iter"),
        ("src/cluster/unordered_result.cc", 47, "unordered-iter"),
        # mutable-global: plain, static, anon-namespace, fn-local
        ("src/common/global_state.cc", 8, "mutable-global"),
        ("src/common/global_state.cc", 10, "mutable-global"),
        ("src/common/global_state.cc", 14, "mutable-global"),
        ("src/common/global_state.cc", 20, "mutable-global"),
        # pointer-key-iter: range-for and begin() walk
        ("src/sched/ptr_key.cc", 20, "pointer-key-iter"),
        ("src/sched/ptr_key.cc", 23, "pointer-key-iter"),
    ]:
        anchor = f"{path}:{line}: {rule}:"
        expect(any(l.startswith(anchor) for l in out.splitlines()),
               f"{rule} fires at {path}:{line}")

    # impure-path findings must carry the full chain, one hop per
    # line, each with a file:line anchor.
    expect("runFleet -> neu10::(anon)::stampNow" in out,
           "impure-path reports the call chain")
    expect("    via src/sim/hot_path.cc:" in out,
           "every chain hop carries file:line")

    # ---- clean tree: look-alikes stay silent ----------------------
    rc, out = run(tool, "--root", fixtures / "clean",
                  "--frontend", "textual")
    expect(rc == 0,
           "clean tree passes: " + out.strip().splitlines()[-1])
    expect("1 allowed" in out,
           "allow(unordered-iter) escape is honoured and counted")

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
        expect(rc == 1 and len(doc2["findings"]) == 14,
               f"violations report lists all 14 findings "
               f"(got {len(doc2['findings'])})")
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
        expect(rc == 0 and "(6 from cache)" in out,
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

    # ---- the real tree is certified clean (CI gate mirror) --------
    rc, out = run(tool, "--root", root, "--frontend", "auto")
    expect(rc == 0, "repo src/ is certified deterministic: "
           + out.strip().splitlines()[-1])

    if FAILURES:
        print(f"\n{len(FAILURES)} expectation(s) failed")
        return 1
    print("\nall analyzer expectations hold")
    return 0


def _has_libclang():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


if __name__ == "__main__":
    sys.exit(main())
