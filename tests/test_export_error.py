#!/usr/bin/env python3
"""An unwritable trace path must fail the run (CTest: export_error.*).

Runs COMMAND with tracing on (NEU10_TRACE=1, smoke mode) and the
trace aimed at a directory that does not exist, and passes only when
the command exits nonzero and says "cannot write" — a swallowed
write error would leave a run that looks traced but has no trace.

Usage: test_export_error.py COMMAND [ARG...]
"""

import os
import subprocess
import sys

UNWRITABLE = "/nonexistent/dir/t.json"


def main():
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND [ARG...]")
    env = dict(os.environ, NEU10_SMOKE="1", NEU10_TRACE="1",
               NEU10_TRACE_OUT=UNWRITABLE)
    proc = subprocess.run(sys.argv[1:], env=env, capture_output=True,
                          text=True)
    output = proc.stdout + proc.stderr
    print(output[-2000:])
    if proc.returncode == 0:
        sys.exit(f"FAIL: exited 0 with the trace aimed at {UNWRITABLE}")
    if "cannot write" not in output:
        sys.exit("FAIL: no 'cannot write' diagnostic")
    print(f"ok: exited {proc.returncode} with a 'cannot write' diagnostic")


if __name__ == "__main__":
    main()
