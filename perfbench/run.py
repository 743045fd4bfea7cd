#!/usr/bin/env python3
"""Fleet-scale benchmark of the neu10 simulator.

Usage (from the repository root):

  python3 perfbench/run.py --workload fleet_steady --seed 1 \
      --seconds 25 --trace 0

Builds the simulator from source into .bench_build/perfbench (first
run only; later runs rebuild incrementally), generates the workload's
scenario from the seed, and runs the public pipeline
(loadScenarioFile -> toFleetConfig -> runFleet -> obs export ->
outcomeJson) in one process per iteration, after one warm-up
iteration, until --seconds have passed (and at least five measured
iterations). Every iteration is checked; see metrics.check() and
the digest checks below.

--trace 0 reports the end-to-end metrics (medians over the measured
iterations). --trace 1 alternates untraced and traced iterations, the
first traced one also running the per-layer probes, reports the
per-layer metrics, and writes the spans and per-layer metrics to
.bench_build/perfbench/runs/<workload>-<scale>-s<seed>/bench_trace.json.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Progress and diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_pipeline"
DIGESTS = BUILD_DIR / "digests.json"

MIN_ITERATIONS = 5
MIN_TRACED_PAIRS = 3
# Stop starting iterations past this many seconds after start, so a
# run ends well within the three-minute limit.
DEADLINE_S = 150.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the pipeline binary; False on error."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        # The build runs in its own process group so a timeout can stop
        # the compilers it started, too.
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                start_new_session=True)
        try:
            proc.wait(timeout=840)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def sha256_file(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h


def run_iteration(scn, outdir, mode, probes=False):
    """One pipeline process. Returns (iteration, errors)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    cmd = [str(BINARY), mode, str(scn), str(outdir)]
    if probes:
        cmd.append("--probes")
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        return None, [f"{mode} iteration timed out"]
    if proc.returncode != 0:
        return None, [f"{mode} iteration exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-400:]}"]
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        result = json.loads((outdir / "result.json").read_text())
    except (IndexError, ValueError, OSError) as err:
        return None, [f"{mode} iteration output unreadable: {err}"]
    digest = hashlib.sha256()
    for name in ("result.json", "trace.json", "trace.json.metrics.json"):
        if (outdir / name).exists():
            sha256_file(outdir / name, digest)
    it = {"spawn_ns": spawn_ns, "line": line, "result": result,
          "digest": digest.hexdigest()}
    if mode == "traced":
        it["spans"] = json.loads((outdir / "spans.json").read_text())["spans"]
    return it, []


class Run:
    """Iterations of one benchmark run and their check outcomes."""

    def __init__(self, workload, scn, rundir):
        self.workload = workload
        self.scn = scn
        self.rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.ok = []  # passing iterations, in run order
        self.start = time.monotonic()

    def iterate(self, mode, probes=False):
        self.attempted += 1
        it, errors = run_iteration(self.scn, self.rundir / "iteration",
                                   mode, probes)
        if it is not None:
            errors += metrics.check(it, self.workload)
            if self.ok and it["digest"] != self.ok[0]["digest"]:
                errors.append("result digest differs from the first "
                              "iteration of this seed")
        if errors:
            self.failed += 1
            for e in errors:
                log(f"FAILED iteration {self.attempted}: {e}")
            return None
        self.ok.append(it)
        log(f"iteration {self.attempted} ({mode}): pipeline "
            f"{metrics.pipeline_wall_s(it):.3f} s, "
            f"cpu {it['line']['cpu_s']:.3f} s")
        return it

    def elapsed(self):
        return time.monotonic() - self.start

    def keep_going(self, seconds, done, minimum, longest):
        if done < minimum:
            return self.elapsed() + longest < DEADLINE_S
        return (self.elapsed() < seconds and
                self.elapsed() + longest < DEADLINE_S)


def check_digest_history(run, key):
    """Compare this seed's digest with earlier runs of the same
    scenario and binary; a mismatch fails every iteration."""
    if not run.ok:
        return
    digest = run.ok[0]["digest"]
    history = {}
    if DIGESTS.exists():
        try:
            history = json.loads(DIGESTS.read_text())
        except ValueError:
            history = {}
    seen = history.get(key)
    if seen is not None and seen != digest:
        log(f"FAILED: result digest {digest[:12]} differs from an "
            f"earlier run of this seed ({seen[:12]})")
        run.failed += len(run.ok)
        return
    history[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(DIGESTS)


def measure_untraced(run, seconds):
    run.iterate("run")  # warm-up: checked, not measured
    measured, longest = [], 0.0
    while run.keep_going(seconds, len(measured), MIN_ITERATIONS, longest):
        t0 = time.monotonic()
        it = run.iterate("run")
        longest = max(longest, time.monotonic() - t0)
        if it is not None:
            measured.append(it)
    return measured


def measure_traced(run, seconds):
    run.iterate("run")  # warm-up: checked, not measured
    untraced, traced, longest = [], [], 0.0
    while run.keep_going(seconds, len(traced), MIN_TRACED_PAIRS, longest):
        t0 = time.monotonic()
        u = run.iterate("run")
        t = run.iterate("traced", probes=not any(
            "probes" in x["line"] for x in traced))
        longest = max(longest, time.monotonic() - t0)
        if u is not None:
            untraced.append(u)
        if t is not None:
            traced.append(t)
    return untraced, traced


def write_trace(path, run, traced, values, absent):
    """The traced run's spans (one id per iteration) and per-layer
    metrics, written once at the end of the run."""
    spans = []
    for n, it in enumerate(traced):
        for s in it["spans"]:
            spans.append({"iteration": n, **s})
    doc = {
        "schema": "neu10-perfbench-trace-v1",
        "workload": run.workload,
        "clock": "CLOCK_MONOTONIC ns",
        "spans": spans,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]}
                    for k, v in sorted(values.items())},
        "absent": absent,
    }
    path.write_text(json.dumps(doc, indent=1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload (benchmark tests)")
    args = ap.parse_args(argv)

    if not build():
        log("build failed; no result")
        return 1

    text = workloads.generate(args.workload, args.seed, args.scale)
    rundir = (BUILD_DIR / "runs" /
              f"{args.workload}-{args.scale}-s{args.seed}")
    rundir.mkdir(parents=True, exist_ok=True)
    scn = rundir / f"{args.workload}.scn"
    scn.write_text(text)

    run = Run(args.workload, scn, rundir)
    if args.trace == 0:
        measured = measure_untraced(run, args.seconds)
        if not measured:
            log("no iteration passed; no result")
            return 1
        values = metrics.end_to_end(measured)
        absent = []
    else:
        untraced, traced = measure_traced(run, args.seconds)
        if not untraced or not any("probes" in t["line"] for t in traced):
            log("no traced iteration with probes passed; no result")
            return 1
        values, absent = metrics.per_layer(untraced, traced)
        write_trace(rundir / "bench_trace.json", run, traced, values,
                    absent)
        # The output format needs a number for every per-layer metric:
        # a layer that does not run reads 0 there, and bench_trace.json
        # lists it under "absent".
        values.update({name: 0.0 for name in absent})

    key = "/".join((args.workload, args.scale, str(args.seed),
                    hashlib.sha256(text.encode()).hexdigest()[:16],
                    sha256_file(BINARY).hexdigest()[:16]))
    check_digest_history(run, key)

    for name in sorted(values):
        log(f"{name:40s} {values[name]:>16.6g} {metrics.UNITS[name]}")
    if absent:
        log(f"absent (layer does not run here): {', '.join(absent)}")
    log(f"{run.attempted} iterations, {run.failed} failed, "
        f"{len(run.ok)} passed, {run.elapsed():.1f} s")

    out = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name],
                           "unit": metrics.UNITS[name]}
                    for name in sorted(values)},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
