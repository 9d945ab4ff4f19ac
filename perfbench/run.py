"""voipsim benchmark: host time per simulated hour, set-up time, peak RSS and
output correctness per workload, and a traced per-layer split.

    python3 perfbench/run.py --workload wifi-wifi --seed 3 --seconds 40 --trace 0

Each run is one simulation in a fresh child process (perfbench/child.py),
started one at a time.  A workload keeps starting runs until --seconds have
passed, and the figures are medians over its runs; host times are divided
by the host slowdown measured with ref.py in the same invocation.  With
--trace 1 every step is a pair of runs on one seed, untraced then traced,
and the per-layer metrics come from the traced runs.  Without --workload (or with
--workload all) every workload is measured, round-robin, untraced and then
traced, and the report lists all of them.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the metric definitions and the workload design.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
REF = os.path.join(BENCH_DIR, "ref.py")
WORK = os.path.join(BENCH_DIR, ".work")

MIN_RUNS = 5  # untraced runs per workload, so a median means something
MIN_PAIRS = 2  # untraced+traced pairs per workload
CHILD_TIMEOUT_S = 120
# wall time of one ref.py child on the host the bounds were set on; host
# times are reported as if measured at that speed
REF_NOMINAL_S = 0.30
EXIT_SETUP = 2


def load_workloads() -> dict:
    with open(os.path.join(BENCH_DIR, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)
    for w in workloads.values():
        if w["scenario"].endswith(".ini"):
            w["scenario"] = os.path.join(BENCH_DIR, w["scenario"])
    return workloads


def child_env() -> dict:
    """Children cache compiled bytecode (as an installed program would) in
    the benchmark's work directory, never in the source tree."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def preflight() -> str | None:
    """Import voipsim once in a child (filling the bytecode cache before any
    timing); return an error message if the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "voipsim", "__init__.py")):
        return f"no voipsim package under {SRC}"
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; "
            "import child, dataclasses, layers, voipsim.runner; "
            f"assert voipsim.__file__.startswith({SRC!r})")
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], child_env())
    _pid, status, _ru = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return "importing voipsim from src failed"
    return None


def wait_child(pid: int, timeout_s: float):
    """Reap pid with its own rusage; kill it once timeout_s has passed."""
    deadline = time.perf_counter() + timeout_s
    while True:
        wpid, status, ru = os.wait4(pid, os.WNOHANG)
        if wpid:
            return status, ru, False
        if time.perf_counter() > deadline:
            os.kill(pid, 9)
            _pid, status, ru = os.wait4(pid, 0)
            return status, ru, True
        time.sleep(0.005)


def spawn(workload: dict, sim_seed: int, traced: bool, run_dir: str, index: int) -> dict:
    """Run one child to completion and return its record (raw clock
    readings, totals and trace) plus its exit code and peak RSS."""
    out_dir = os.path.join(run_dir, f"out{index}")
    result_path = os.path.join(run_dir, f"result{index}.json")
    argv = [sys.executable, CHILD, SRC, workload["scenario"], str(workload["run_length_s"]),
            str(sim_seed), out_dir, result_path, "1" if traced else "0"]
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    status, ru, timed_out = wait_child(pid, CHILD_TIMEOUT_S)
    rec = {"seed": sim_seed, "traced": traced, "t_spawn": t_spawn, "ref_s": None,
           "exit": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
           "rss_mb": ru.ru_maxrss / 1024, "result": None}
    if rec["exit"] == 0 and os.path.isfile(result_path):
        with open(result_path, encoding="utf-8") as fh:
            rec["result"] = json.load(fh)
    return rec


def spawn_ref() -> float | None:
    """Wall time of one ref.py child, or None if it did not finish cleanly."""
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, REF], child_env())
    status, _ru, timed_out = wait_child(pid, CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t_spawn
    return None if timed_out or os.waitstatus_to_exitcode(status) != 0 else wall


# -- correctness ---------------------------------------------------------------


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(rec: dict, workload: dict, seen: dict) -> list[str]:
    """Reasons this run failed; empty when it passed.  seen maps a seed to the
    first metrics CSV digest observed for it in this invocation."""
    if rec["timed_out"]:
        return [f"killed after {CHILD_TIMEOUT_S} s"]
    res = rec["result"]
    if rec["exit"] != 0 or res is None:
        return [f"child exit code {rec['exit']}"]
    reasons = []
    with open(res["manifest"], encoding="utf-8") as fh:
        if json.load(fh).get("partial", True):
            reasons.append("manifest is partial")
    if not res["conservation"]:
        reasons.append("packet conservation broken")
    digest = rec["sha256"] = sha256_file(res["csv"])
    if seen.setdefault(rec["seed"], digest) != digest:
        reasons.append("metrics CSV differs from an earlier run of this seed")
    if rec["seed"] == workload["golden_seed"] and digest != workload["golden_sha256"]:
        reasons.append("metrics CSV differs from the golden digest")
    return reasons


# -- scheduling runs -----------------------------------------------------------


def plan(workload: dict, seed: int, traced: bool):
    """Endless sequence of steps, each a list of (sim_seed, traced) runs.

    Untraced: the golden seed first, so every invocation re-checks the
    recorded digest, then seeds seed*1000+1, seed*1000+2, ...
    Traced: pairs (untraced, traced) on seed*1000 over and over, so the
    traced digest is compared with the untraced one and the per-layer times
    are medians over one input.
    """
    if traced:
        while True:
            yield [(seed * 1000, False), (seed * 1000, True)]
    yield [(workload["golden_seed"], False)]
    i = 1
    while True:
        yield [(seed * 1000 + i, False)]
        i += 1


def measure(workloads: dict, names: list[str], seed: int, seconds: float,
            traced: bool, run_dir: str) -> dict:
    """Run steps of every named workload round-robin until the time budget
    (seconds per workload) is spent and each has its minimum of steps.
    Returns {name: [step, ...]} where a step is a list of checked records."""
    plans = {n: plan(workloads[n], seed, traced) for n in names}
    steps = {n: [] for n in names}
    durations = {n: [] for n in names}
    seen = {n: {} for n in names}
    minimum = MIN_PAIRS if traced else MIN_RUNS
    budget = seconds * len(names)
    t0 = time.perf_counter()
    index = 0
    while True:
        for name in names:
            t_step = time.perf_counter()
            step = []
            for sim_seed, traced_run in next(plans[name]):
                rec = spawn(workloads[name], sim_seed, traced_run, run_dir, index)
                index += 1
                rec["failures"] = check(rec, workloads[name], seen[name])
                if not traced:
                    rec["ref_s"] = spawn_ref()
                step.append(rec)
                print(describe(name, rec), flush=True)
            steps[name].append(step)
            durations[name].append(time.perf_counter() - t_step)
        elapsed = time.perf_counter() - t0
        next_round = sum(statistics.median(d) for d in durations.values())
        enough = all(len(s) >= minimum for s in steps.values())
        if enough and elapsed + next_round > budget:
            return steps


def describe(name: str, rec: dict) -> str:
    """One line per run with its exact-repeat totals."""
    kind = "traced" if rec["traced"] else "run"
    res = rec["result"]
    if res is None:
        return f"  {name} {kind} seed={rec['seed']}: FAILED ({'; '.join(rec['failures'])})"
    s = res["stats"]
    status = "ok" if not rec["failures"] else "FAILED (" + "; ".join(rec["failures"]) + ")"
    ref = "" if rec["ref_s"] is None else f" (ref {rec['ref_s']:.3f} s)"
    return (f"  {name} {kind} seed={rec['seed']}: {res['t_done'] - rec['t_spawn']:.3f} s{ref}, "
            f"{s['events_processed']} events, {s['packets_generated']} packets "
            f"({s['packets_delivered']} delivered, {s['packets_dropped']} dropped), "
            f"{s['calls_established']} calls, {s['sip_messages_sent']} SIP, "
            f"csv {rec.get('sha256', '')[:12]}: {status}")


# -- metrics -------------------------------------------------------------------


def host_s_per_sim_h(rec: dict, workload: dict) -> float:
    """Host seconds per simulated hour at the workload's nominal load.

    A seed's load (calls, hence voice packets) varies several-fold at a fixed
    run length, so the packet-proportional part of the run (everything after
    set-up) is scaled by nominal/actual packets generated; set-up is not.
    """
    res = rec["result"]
    setup = res["t_enter_run"] - rec["t_spawn"]
    run = res["t_done"] - res["t_enter_run"]
    scale = workload["nominal_packets"] / res["stats"]["packets_generated"]
    return (setup + run * scale) / res["sim_h"]


def peak_rss_mb(rec: dict, workload: dict) -> float:
    """Peak RSS at the workload's nominal load: growth above the RSS held at
    entry to the event loop is scaled by nominal/actual packets."""
    res = rec["result"]
    base = res["rss_enter_kb"] / 1024
    scale = workload["nominal_packets"] / res["stats"]["packets_generated"]
    return base + (rec["rss_mb"] - base) * scale


# name, unit, per-run value, whether it is a host time to calibrate
E2E = (
    ("host_s_per_sim_h", "s", host_s_per_sim_h, True),
    ("setup_s", "s", lambda rec, _w: rec["result"]["t_enter_run"] - rec["t_spawn"], True),
    ("peak_rss_mb", "MB", peak_rss_mb, False),
)


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q[0], "q3": q[2]}


def end_to_end(runs: list[dict], workload: dict) -> dict:
    """End-to-end metrics over untraced runs; runs that failed a check still
    count toward timings if they finished, and toward fail_ratio.

    On a shared host, speed can drift by tens of percent over minutes, more
    than medians within one invocation can absorb.  Host times are therefore
    divided by this invocation's host slowdown: the median ref.py wall time
    over REF_NOMINAL_S.
    """
    timed = [r for r in runs if r["result"] is not None]
    refs = [r["ref_s"] for r in runs if r["ref_s"] is not None]
    out = {}
    if timed and refs:
        slowdown = statistics.median(refs) / REF_NOMINAL_S
        for name, unit, fn, calibrate in E2E:
            scale = 1 / slowdown if calibrate else 1
            out[name] = dict(summary([fn(r, workload) * scale for r in timed]), unit=unit)
        out["host_slowdown"] = dict(summary([ref / REF_NOMINAL_S for ref in refs]), unit="1")
    failed = sum(1 for r in runs if r["failures"])
    out["fail_ratio"] = {"value": failed / len(runs), "n": len(runs), "unit": "1"}
    return out


def _self(trace: dict, *labels: str) -> float:
    return sum(trace["self_s"].get(label, 0.0) for label in labels)


def _n(trace: dict, *labels: str) -> int:
    return sum(trace["n"].get(label, 0) for label in labels)


def _sip_events(trace: dict) -> list[str]:
    return [label for label in trace["self_s"] if label.startswith("event:sip-")]


# per-layer metrics read from one traced run's span table:
# name -> (unit, labels that must have been installed, fn(trace))
SPAN_METRICS = {
    "simcore.schedules": ("count", ["simcore.schedule"],
                          lambda t: _n(t, "simcore.schedules")),
    "simcore.cancels": ("count", ["simcore.cancel"],
                        lambda t: _n(t, "simcore.cancels")),
    "simcore.queue_max": ("count", ["simcore.schedule"], lambda t: t["queue_max"]),
    "simcore.self_s": ("s", ["simcore.loop", "simcore.schedule"],
                       lambda t: _self(t, "simcore.loop")),
    "netmodels.wifi.round_n": ("count", ["simcore.schedule"],
                               lambda t: _n(t, "event:wifi-round")),
    "netmodels.wifi.round_s": ("s", ["simcore.schedule"],
                               lambda t: _self(t, "event:wifi-round")),
    "netmodels.wifi.enqueue_n": ("count", ["wifi.enqueue"],
                                 lambda t: _n(t, "wifi.enqueue")),
    "netmodels.wifi.enqueue_s": ("s", ["wifi.enqueue"],
                                 lambda t: _self(t, "wifi.enqueue")),
    "netmodels.wifi.deliver_n": ("count", ["simcore.schedule"],
                                 lambda t: _n(t, "event:wifi-deliver")),
    "netmodels.umts.air_n": ("count", ["simcore.schedule"],
                             lambda t: _n(t, "event:umts-air")),
    "netmodels.umts.air_s": ("s", ["simcore.schedule"],
                             lambda t: _self(t, "event:umts-air")),
    "netmodels.umts.pipe_n": ("count", ["simcore.schedule"],
                              lambda t: _n(t, "event:umts-pipe")),
    "netmodels.umts.pipe_s": ("s", ["simcore.schedule"],
                              lambda t: _self(t, "event:umts-pipe")),
    "netmodels.umts.enqueue_s": ("s", ["umts.enqueue"],
                                 lambda t: _self(t, "umts.enqueue")),
    "netmodels.cloud.n": ("count", ["cloud.forward"],
                          lambda t: _n(t, "cloud.forward")),
    "netmodels.cloud.s": ("s", ["cloud.forward", "simcore.schedule"],
                          lambda t: _self(t, "cloud.forward", "event:cloud-deliver")),
    "netmodels.fabric.sends": ("count", ["fabric.send"],
                               lambda t: _n(t, "fabric.send")),
    "netmodels.fabric.hops": ("count", ["fabric.hop"],
                              lambda t: _n(t, "fabric.hop")),
    "netmodels.fabric.s": ("s", ["fabric.send", "fabric.hop", "fabric.drop"],
                           lambda t: _self(t, "fabric.send", "fabric.hop", "fabric.drop")),
    "traffic.emit_n": ("count", ["simcore.schedule"],
                       lambda t: _n(t, "event:media-emit")),
    "traffic.emit_s": ("s", ["simcore.schedule"],
                       lambda t: _self(t, "event:media-emit")),
    "traffic.arrival_s": ("s", ["simcore.schedule"],
                          lambda t: _self(t, "event:call-arrival", "event:call-end")),
    "signaling.s": ("s", ["signaling.api", "simcore.schedule", "fabric.send"],
                    lambda t: _self(t, "signaling.api", "signaling.callback",
                                    *_sip_events(t))),
    "metrics.records_n": ("count", ["metrics.records"],
                          lambda t: _n(t, "metrics.records_n")),
    "metrics.records_s": ("s", ["metrics.records"],
                          lambda t: _self(t, "metrics.records")),
    "metrics.bucketize_s": ("s", ["metrics.bucketize"],
                            lambda t: _self(t, "metrics.bucketize")),
    "runner.write_s": ("s", ["runner.write"], lambda t: _self(t, "runner.write")),
}

DROP_REASONS = ("queue-overflow", "collision-retry-exhausted", "bler-retx-exhausted",
                "cloud-loss")


def quantile_nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, -(-len(sorted_values) * p // 100) - 1)]


def model_summary(rec: dict) -> dict:
    """Exact-repeat totals and simulated results of one run: name -> (unit, value)."""
    res = rec["result"]
    s = res["stats"]
    out = {
        "simcore.events": ("count", s["events_processed"]),
        "simcore.events_per_packet": ("1", s["events_processed"] / max(1, s["packets_generated"])),
        "traffic.packets_generated": ("count", s["packets_generated"]),
        "traffic.calls_started": ("count", s["calls_started"]),
        "traffic.calls_blocked": ("count", s["calls_blocked"]),
        "traffic.calls_established": ("count", s["calls_established"]),
        "netmodels.packets_delivered": ("count", s["packets_delivered"]),
        "netmodels.packets_dropped": ("count", s["packets_dropped"]),
        "signaling.sip_sent": ("count", s["sip_messages_sent"]),
        "signaling.sip_dropped": ("count", s["sip_messages_dropped"]),
        "signaling.setup_failed": ("count", s["calls_failed_setup"]),
    }
    for reason in DROP_REASONS:
        out[f"netmodels.drops.{reason}"] = ("count", s["drop_reasons"].get(reason, 0))
    finished = s["packets_delivered"] + s["packets_dropped"]
    out["metrics.loss_pct"] = ("%", 100 * s["packets_dropped"] / max(1, finished))
    delays = res["setup_delays_ms"]
    if delays:
        out["signaling.setup_ms_p50"] = ("ms", quantile_nearest_rank(delays, 50))
        out["signaling.setup_ms_p99"] = ("ms", quantile_nearest_rank(delays, 99))
    mos, e2e = [], []
    with open(res["csv"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["mos"] and float(row["window_start_s"]) >= res["warm_up_s"]:
                mos.append(float(row["mos"]))
                e2e.append(float(row["e2e_s"]) * 1000)
    if mos:
        out["metrics.mos_mean"] = ("1", statistics.fmean(mos))
        out["metrics.e2e_ms_mean"] = ("ms", statistics.fmean(e2e))
    return out


def per_layer(pairs: list[list[dict]]) -> dict:
    """Per-layer metrics from untraced+traced pairs on one seed: counts and
    simulated values from the first pair (they repeat exactly), host times
    as medians over pairs."""
    plain = [p[0] for p in pairs if p[0]["result"] is not None]
    traced = [p[1] for p in pairs if p[1]["result"] is not None]
    out = {}
    if not plain or not traced:
        return out

    def add(name, unit, values):
        out[name] = dict(summary(values), unit=unit)

    for name, (unit, value) in model_summary(plain[0]).items():
        add(name, unit, [value])
    results = [r["result"] for r in plain]
    add("simcore.loop_s", "s", [r["t_exit_run"] - r["t_enter_run"] for r in results])
    add("simcore.ns_per_event", "ns",
        [1e9 * (r["t_exit_run"] - r["t_enter_run"]) / r["stats"]["events_processed"]
         for r in results])
    add("runner.postrun_s", "s", [r["t_done"] - r["t_exit_run"] for r in results])
    add("scenario.import_s", "s", [r["import_s"] for r in results])
    add("scenario.resolve_s", "s", [r["resolve_s"] for r in results])
    traces = [r["result"]["trace"] for r in traced]
    for name, (unit, needs, fn) in SPAN_METRICS.items():
        if not any(label in traces[0]["absent"] for label in needs):
            add(name, unit, [fn(t) for t in (traces[:1] if unit == "count" else traces)])
    wall_plain = statistics.median(r["t_done"] - p["t_spawn"] for p, r in zip(plain, results))
    wall_traced = statistics.median(r["result"]["t_done"] - r["t_spawn"] for r in traced)
    add("trace.overhead", "%", [100 * (wall_traced / wall_plain - 1)])
    return out


# -- reporting -----------------------------------------------------------------


def report(name: str, metrics: dict) -> None:
    for metric, m in metrics.items():
        spread = f", q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "q1" in m and m["n"] > 1 else ""
        print(f"{name:10s} {metric:36s} {m['value']:14.6g} {m['unit']:6s} "
              f"(median of n={m['n']}{spread})")


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs (ignored with all)")
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return EXIT_SETUP
    os.makedirs(WORK, exist_ok=True)

    names = list(workloads) if args.workload == "all" else [args.workload]
    phases = [False, True] if args.workload == "all" else [bool(args.trace)]
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        results = {n: {} for n in names}
        records = []
        for traced in phases:
            steps = measure(workloads, names, args.seed, args.seconds, traced, run_dir)
            for name in names:
                records += [rec for step in steps[name] for rec in step]
                if traced:
                    results[name].update(per_layer(steps[name]))
                else:
                    results[name].update(
                        end_to_end([step[0] for step in steps[name]], workloads[name]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print()
    for name in names:
        report(name, results[name])
    failed = sum(1 for rec in records if rec["failures"])
    if all(rec["result"] is None for rec in records):
        print("perfbench: no run produced a result", file=sys.stderr)
        return 1

    def flat(name, metrics):
        keep = {k: m for k, m in metrics.items() if k not in ("fail_ratio", "host_slowdown")}
        prefix = "" if len(names) == 1 else f"{name}/"
        return {prefix + k: {"value": m["value"], "unit": m["unit"]} for k, m in keep.items()}

    metrics = {}
    for name in names:
        metrics.update(flat(name, results[name]))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
