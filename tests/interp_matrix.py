"""Byte identity across interpreters: a check run by hand, not by pytest.

    python tests/interp_matrix.py python3.10 python3.11 python3.12 python3.13

Tier-1 runs on one interpreter, but the golden digests rest on the
interpreter's random algorithms (simcore.uniform_below mirrors CPython's
_randbelow).  For each interpreter named on the command line this script
starts one child with -S, so the child sees the standard library alone.  The
child runs the four golden scenarios of tests/test_golden.py and its traced
`contended` run.  Each result is compared with the digests and event counts
pinned there, and the script prints one line per interpreter.  It exits 1 if
any interpreter disagrees, or fails to run.
"""

import json
import os
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
sys.path[:0] = [SRC, TESTS]

import test_golden as golden  # noqa: E402

# (SRC, out_dir, call-storm text, contended text, run length, seed) -> one
# JSON line: the interpreter's version, each golden's CSV digest and event
# count, and the contended run's CSV, trace and session-log digests
_CHILD = """
import dataclasses, hashlib, json, os, platform, sys
src, out_dir, storm_ini, contended_ini, run_us, seed = sys.argv[1:7]
sys.path.insert(0, src)
from voipsim.runner import run_scenario
from voipsim.scenario import builtin_scenario, parse_scenario_text, validate

def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

csv, events = {}, {}
for name in ("wifi-wifi", "umts-umts", "call-storm", "wifi-umts"):
    spec = parse_scenario_text(storm_ini) if name == "call-storm" else builtin_scenario(name)
    spec = validate(dataclasses.replace(spec, run_length_us=int(run_us)))
    out = run_scenario(spec, seed=int(seed), out_dir=os.path.join(out_dir, name))
    csv[name] = sha(out.csv_path)
    events[name] = out.stats.events_processed
out = run_scenario(validate(parse_scenario_text(contended_ini)), seed=int(seed),
                   out_dir=os.path.join(out_dir, "contended"), trace=True, session_log=True)
print(json.dumps({"python": platform.python_version(), "csv": csv, "events": events,
                  "contended": [sha(out.csv_path), sha(out.trace_path),
                                sha(out.session_log_path)]}))
"""

CONTENDED = (golden.CONTENDED_SHA256, golden.CONTENDED_TRACE_SHA256,
             golden.CONTENDED_SESSIONS_SHA256)


def check(python: str) -> tuple[bool, str]:
    """Run the child under python; whether it reproduced every pinned
    figure, and a line saying so or naming what differs."""
    with tempfile.TemporaryDirectory() as out_dir:
        proc = subprocess.run(
            [python, "-S", "-c", _CHILD, SRC, out_dir, golden.CALL_STORM_INI,
             golden.CONTENDED_INI, str(golden.RUN_LENGTH_US), str(golden.SEED)],
            capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return False, "failed: " + (proc.stderr.strip().splitlines() or ["no output"])[-1]
    got = json.loads(proc.stdout)
    wrong = [f"{name} csv" for name, digest in golden.GOLDEN_SHA256.items()
             if got["csv"][name] != digest]
    wrong += [f"{name} events" for name, n in golden.GOLDEN_EVENTS.items()
              if got["events"][name] != n]
    wrong += [f"contended {what}" for what, digest, mine in
              zip(("csv", "trace", "session log"), CONTENDED, got["contended"])
              if mine != digest]
    if wrong:
        return False, f"Python {got['python']}: {', '.join(wrong)} differ"
    return True, (f"Python {got['python']}: {len(golden.GOLDEN_SHA256)} CSV digests, "
                  f"{len(golden.GOLDEN_EVENTS)} event counts and {len(CONTENDED)} "
                  "contended digests match")


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tests/interp_matrix.py PYTHON...", file=sys.stderr)
        return 2
    failed = 0
    for python in pythons:
        ok, line = check(python)
        failed += not ok
        print(f"{python}: {line}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
