#!/usr/bin/env python3
"""Check that docs/SCENARIOS.md documents exactly the parser's keys.

The parser names its vocabulary in two diagnostics: an unknown
section lists the valid sections, and an unknown key lists its
section's valid keys. This script provokes both with ``neu10_run``
and compares each list, as a set, with the keys the doc's table for
that section names in its first column (every backticked word there).

Usage:
    test_scenario_docs.py RUNNER SCENARIOS_MD

Exit codes: 0 match, 1 mismatch, 2 usage/run error.
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile

UNKNOWN = "zz-not-a-key"


def diagnostic(runner, text, tmp):
    """Run the runner on a scenario @p text; return its error text."""
    scn = pathlib.Path(tmp) / "probe.scn"
    scn.write_text(text)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NEU10_")}
    proc = subprocess.run([runner, str(scn)], capture_output=True,
                          text=True, env=env, check=False)
    if proc.returncode != 2:
        sys.exit(f"error: expected exit 2 on:\n{text}\ngot "
                 f"{proc.returncode}: {proc.stdout}{proc.stderr}")
    return proc.stdout + proc.stderr


def listed(pattern, output):
    """The comma-separated list after @p pattern in @p output."""
    match = re.search(pattern + r"(.*)$", output, re.MULTILINE)
    if match is None:
        sys.exit(f"error: no '{pattern}' list in: {output}")
    return [item.strip() for item in match.group(1).split(",")]


def parser_vocabulary(runner):
    """{"[section]": {keys}} as the parser reports it."""
    vocab = {}
    with tempfile.TemporaryDirectory() as tmp:
        sections = listed("valid sections: ",
                          diagnostic(runner, "[zz-not-a-section]\n", tmp))
        for section in sections:
            probe = section.replace("<name>", "probe")
            out = diagnostic(runner, f"{probe}\n{UNKNOWN} = 1\n", tmp)
            keys = listed("valid keys: ", out)
            vocab[section] = {k.removesuffix(" (repeatable)")
                              for k in keys}
    return vocab


def doc_vocabulary(path):
    """{"[section]": {keys}} from the doc's per-section key tables."""
    vocab = {}
    section = None
    for line in pathlib.Path(path).read_text().splitlines():
        heading = re.match(r"#+ `(\[[^]]+\])`", line)
        if line.startswith("#"):
            section = heading.group(1) if heading else None
            if section:
                vocab[section] = set()
            continue
        if section is None or not line.startswith("|"):
            continue
        first = line.split("|")[1]
        if first.strip() in ("Key", "") or set(first.strip()) <= {"-"}:
            continue
        vocab[section] |= set(re.findall(r"`([^`]+)`", first))
    return vocab


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parser = parser_vocabulary(argv[1])
    doc = doc_vocabulary(argv[2])
    ok = True
    for section in sorted(set(parser) | set(doc)):
        have, want = doc.get(section), parser.get(section)
        if have is None or want is None:
            where = "the doc" if have is None else "the parser"
            print(f"{section}: missing from {where}")
            ok = False
        elif have != want:
            print(f"{section}: undocumented {sorted(want - have)}, "
                  f"unknown to the parser {sorted(have - want)}")
            ok = False
    if ok:
        print(f"ok: {len(parser)} sections, "
              f"{sum(map(len, parser.values()))} keys documented")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
