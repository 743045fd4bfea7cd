#!/usr/bin/env python3
"""End-to-end trace artifact test (CTest: trace_artifact).

Runs bench_cluster_serving in smoke mode with NEU10_TRACE=on, then
validates the emitted Chrome trace and metrics JSON with
tools/check_trace.py — the exact pipeline CI's traced smoke-run job
uses, so a bench or exporter regression fails here first. Then runs
the full (non-smoke) cluster_diurnal scenario through neu10_run,
whose trace spans several export chunks, and checks that too, so a
row torn or dropped at a chunk boundary fails. Also feeds the checker
a hand-written trace holding NaN, which must fail.

Usage: test_trace_artifact.py REPO_ROOT BENCH_BINARY NEU10_RUN_BINARY
"""

import os
import pathlib
import subprocess
import sys
import tempfile

# Trace::kExportChunkBytes (src/obs/trace.hh): the streamed export
# hands the file one chunk of about this size at a time.
CHUNK_BYTES = 1 << 20


def run(cmd, **kwargs):
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run(cmd, **kwargs)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(str(c) for c in cmd)} exited "
                 f"{proc.returncode}")


def main():
    if len(sys.argv) != 4:
        sys.exit(f"usage: {sys.argv[0]} REPO_ROOT BENCH_BINARY "
                 f"NEU10_RUN_BINARY")
    root = pathlib.Path(sys.argv[1])
    bench = pathlib.Path(sys.argv[2])
    neu10_run = pathlib.Path(sys.argv[3])
    check = root / "tools" / "check_trace.py"
    for binary in (bench, neu10_run):
        if not binary.exists():
            sys.exit(f"FAIL: binary {binary} not found")

    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "fleet.trace.json"
        env = dict(os.environ,
                   NEU10_SMOKE="1",
                   NEU10_TRACE="on",
                   NEU10_TRACE_OUT=str(trace))
        run([bench], env=env, stdout=subprocess.DEVNULL)
        if not trace.exists():
            sys.exit("FAIL: bench did not write the trace file")
        run([sys.executable, check, trace,
             "--metrics", f"{trace}.metrics.json",
             # The canonical fleet run must show the full request
             # lifecycle plus fleet-level bookkeeping.
             "--require-event", "admit",
             "--require-event", "queue",
             "--require-event", "execute",
             "--require-event", "complete",
             "--require-event", "place",
             "--require-event", "epoch"])

        # A trace of several export chunks, from the full scenario.
        big = pathlib.Path(tmp) / "diurnal.trace.json"
        env = dict(os.environ, NEU10_TRACE="on", NEU10_TRACE_OUT=str(big))
        env.pop("NEU10_SMOKE", None)
        run([neu10_run, root / "scenarios" / "cluster_diurnal.scn"],
            env=env, stdout=subprocess.DEVNULL)
        size = big.stat().st_size
        if size <= 2 * CHUNK_BYTES:
            sys.exit(f"FAIL: the cluster_diurnal trace is {size} bytes; "
                     f"it must span at least three {CHUNK_BYTES}-byte "
                     f"export chunks")
        run([sys.executable, check, big,
             "--metrics", f"{big}.metrics.json",
             "--require-event", "complete",
             "--require-event", "epoch"])
        # A non-finite number leaking into an export must fail the
        # check, although Python's json module would parse it.
        bad = pathlib.Path(tmp) / "nan.trace.json"
        bad.write_text('{"traceEvents": [{"ph": "i", "pid": 0, '
                       '"tid": 0, "ts": NaN, "s": "t", "cat": "c", '
                       '"name": "n"}]}\n')
        proc = subprocess.run([sys.executable, check, bad],
                              capture_output=True, text=True)
        if proc.returncode != 1:
            sys.exit(f"FAIL: check_trace.py exited {proc.returncode} "
                     f"on a NaN timestamp, expected 1")
    print("ok: traced smoke run and a multi-chunk trace are valid; "
          "a NaN trace is rejected")


if __name__ == "__main__":
    main()
