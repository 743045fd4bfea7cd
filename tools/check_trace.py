#!/usr/bin/env python3
"""Validate a neu10 Chrome trace-event JSON file (obs/trace.cc).

Checks the contract docs/OBSERVABILITY.md promises to trace
consumers, so CI catches a malformed export before a human loads it
into Perfetto:

  - the file is strict JSON: NaN, Infinity and -Infinity, which
    Python's json module accepts by default, are rejected;
  - top level is an object with a "traceEvents" list;
  - every event's phase is one of M (metadata), X (complete span),
    i (instant), b/e (async-nestable begin/end), and carries the
    keys that phase requires;
  - per (pid, tid) track, timestamps are non-decreasing (metadata
    events excluded) and never negative;
  - X spans have dur >= 0 and nest properly per track: a span that
    starts inside an open span must also end inside it;
  - b/e pairs balance per (pid, tid, cat, id, name), each end at or
    after its begin;
  - --require-event NAME (repeatable): at least one non-metadata
    event with that name exists — wired into CI so a refactor that
    silently stops emitting, say, "restore" events fails the build.

With --metrics FILE the companion metrics dump (schema
neu10-metrics-v1, obs/metrics.cc) is validated too: schema tag,
per-metric name/kind, non-decreasing sample timestamps, and the
histogram summary fields.

Exit status: 0 valid, 1 validation failure, 2 bad usage / unreadable
input.
"""

import argparse
import json
import sys

KNOWN_PHASES = {"M", "X", "i", "b", "e"}

# Keys every event of a given phase must carry. "args" is optional
# everywhere except metadata (a nameless metadata event is useless).
REQUIRED_KEYS = {
    "M": {"ph", "pid", "tid", "name", "args"},
    "X": {"ph", "pid", "tid", "ts", "dur", "cat", "name"},
    "i": {"ph", "pid", "tid", "ts", "cat", "name", "s"},
    "b": {"ph", "pid", "tid", "ts", "cat", "name", "id"},
    "e": {"ph", "pid", "tid", "ts", "cat", "name", "id"},
}


class Checker:
    """Collects failures so one run reports every problem at once."""

    def __init__(self, limit=20):
        self.failures = 0
        self.limit = limit

    def fail(self, msg):
        self.failures += 1
        if self.failures <= self.limit:
            print(f"FAIL  {msg}")
        elif self.failures == self.limit + 1:
            print("FAIL  ... further failures suppressed")

    @property
    def ok(self):
        return self.failures == 0


def reject_constant(token):
    # Python's json accepts NaN/Infinity/-Infinity by default; they
    # are not JSON, and the writer never emits them on purpose.
    raise ValueError(f"non-finite number {token}")


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=reject_constant)
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")
    except ValueError as err:  # includes json.JSONDecodeError
        sys.exit(f"error: {path} is not valid JSON: {err}")


def check_events(doc, chk):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        chk.fail("top level is not an object with 'traceEvents'")
        return []
    events = doc["traceEvents"]
    if not isinstance(events, list):
        chk.fail("'traceEvents' is not a list")
        return []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            chk.fail(f"event #{i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            chk.fail(f"event #{i} has unknown phase {ph!r}")
            continue
        missing = REQUIRED_KEYS[ph] - ev.keys()
        if missing:
            chk.fail(f"event #{i} (ph={ph}, name="
                     f"{ev.get('name')!r}) missing keys "
                     f"{sorted(missing)}")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            chk.fail(f"event #{i}: instant scope {ev.get('s')!r} "
                     f"not in t/p/g")
    return [ev for ev in events
            if isinstance(ev, dict)
            and ev.get("ph") in KNOWN_PHASES - {"M"}]


def check_monotonic(events, chk):
    last = {}
    for i, ev in enumerate(events):
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            chk.fail(f"event #{i} ({ev.get('name')!r}): ts "
                     f"{ts!r} is not a number")
            continue
        if ts < 0:
            chk.fail(f"event #{i} ({ev.get('name')!r}): negative "
                     f"ts {ts}")
        track = (ev.get("pid"), ev.get("tid"))
        prev = last.get(track)
        if prev is not None and ts < prev:
            chk.fail(f"event #{i} ({ev.get('name')!r}): ts {ts} < "
                     f"{prev} earlier on track pid={track[0]} "
                     f"tid={track[1]}")
        last[track] = max(ts, prev if prev is not None else ts)


# The exporter rounds ts and dur independently to 1e-6 us, so a
# reconstructed span end (ts + dur) can disagree with the next
# span's start by up to 2e-6 us on a shared boundary. Real overlaps
# are at least a simulation cycle (~1e-3 us at GHz clocks).
EPSILON_US = 1e-4


def check_spans(events, chk):
    """X spans: dur >= 0, and proper nesting per track."""
    stacks = {}
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            chk.fail(f"event #{i} ({ev.get('name')!r}): bad span "
                     f"dur {dur!r}")
            continue
        if not isinstance(ts, (int, float)):
            continue  # already reported by check_monotonic
        track = (ev.get("pid"), ev.get("tid"))
        stack = stacks.setdefault(track, [])
        while stack and ts >= stack[-1][0] - EPSILON_US:
            stack.pop()
        if stack and ts + dur > stack[-1][0] + EPSILON_US:
            chk.fail(f"event #{i} ({ev.get('name')!r}): span "
                     f"[{ts}, {ts + dur}] straddles enclosing span "
                     f"end {stack[-1][0]} opened by "
                     f"{stack[-1][1]!r} on track pid={track[0]} "
                     f"tid={track[1]}")
        stack.append((ts + dur, ev.get("name")))


def check_async(events, chk):
    """b/e balance per (pid, tid, cat, id, name), end >= begin."""
    open_spans = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("b", "e"):
            continue
        key = (ev.get("pid"), ev.get("tid"), ev.get("cat"),
               ev.get("id"), ev.get("name"))
        ts = ev.get("ts")
        if ph == "b":
            open_spans.setdefault(key, []).append((i, ts))
            continue
        pending = open_spans.get(key)
        if not pending:
            chk.fail(f"event #{i} ({ev.get('name')!r}): async end "
                     f"without begin (id {ev.get('id')!r})")
            continue
        bi, bts = pending.pop()
        if isinstance(ts, (int, float)) and \
                isinstance(bts, (int, float)) and ts < bts:
            chk.fail(f"event #{i} ({ev.get('name')!r}): async end "
                     f"ts {ts} < begin ts {bts} (begin #{bi})")
    for key, pending in sorted(open_spans.items(), key=str):
        for bi, _ in pending:
            chk.fail(f"event #{bi}: async begin never ended "
                     f"(name {key[4]!r}, id {key[3]!r})")


def check_required(events, names, chk):
    present = {ev.get("name") for ev in events}
    for name in names:
        if name not in present:
            chk.fail(f"required event {name!r} never emitted")


def check_metrics(path, chk):
    doc = load_json(path)
    if not isinstance(doc, dict) or \
            doc.get("schema") != "neu10-metrics-v1":
        chk.fail(f"{path}: schema is not 'neu10-metrics-v1'")
        return
    if not isinstance(doc.get("metrics"), list):
        chk.fail(f"{path}: 'metrics' is not a list")
        return
    for m in doc["metrics"]:
        name = m.get("name")
        if not name or m.get("kind") not in ("counter", "gauge",
                                             "histogram"):
            chk.fail(f"{path}: metric {name!r} has bad kind "
                     f"{m.get('kind')!r}")
            continue
        points = m.get("points")
        if not isinstance(points, list):
            chk.fail(f"{path}: metric {name!r}: 'points' missing")
            continue
        prev = None
        for p in points:
            if not (isinstance(p, list) and len(p) == 2 and
                    all(isinstance(x, (int, float)) for x in p)):
                chk.fail(f"{path}: metric {name!r}: bad sample "
                         f"{p!r}")
                break
            if prev is not None and p[0] < prev:
                chk.fail(f"{path}: metric {name!r}: sample times "
                         f"go backwards ({p[0]} < {prev})")
            prev = p[0]
        if m["kind"] == "histogram":
            missing = {"count", "mean", "p50", "p95",
                       "p99"} - m.keys()
            if missing:
                chk.fail(f"{path}: histogram {name!r} missing "
                         f"summary fields {sorted(missing)}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--require-event", action="append",
                        default=[], metavar="NAME",
                        help="fail unless an event with this name "
                             "exists (repeatable)")
    parser.add_argument("--metrics", metavar="FILE",
                        help="also validate a neu10-metrics-v1 dump")
    args = parser.parse_args()

    chk = Checker()
    events = check_events(load_json(args.trace), chk)
    check_monotonic(events, chk)
    check_spans(events, chk)
    check_async(events, chk)
    check_required(events, args.require_event, chk)
    if args.metrics:
        check_metrics(args.metrics, chk)

    if chk.ok:
        n_tracks = len({(e.get('pid'), e.get('tid'))
                        for e in events})
        print(f"ok    {args.trace}: {len(events)} events on "
              f"{n_tracks} tracks" +
              (f", metrics valid" if args.metrics else ""))
    sys.exit(0 if chk.ok else 1)


if __name__ == "__main__":
    main()
