"""One benchmark run: simulate one scenario once in this fresh process.

Usage: child.py SRC_DIR SCENARIO RUN_LENGTH_S SEED OUT_DIR RESULT_JSON TRACE

SCENARIO is a builtin name or a config file path.  The run writes its
metrics CSV and manifest to OUT_DIR and a JSON record of clock readings
(time.perf_counter, which the parent shares), run totals and, with TRACE=1,
the per-label span counts and self times to RESULT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _setup_delays_ms(layer) -> list[float]:
    return sorted((s.t_established - s.t_invite) / 1_000 for s in layer.sessions
                  if s.t_established is not None)


def main(argv: list[str]) -> int:
    src, scenario, run_length_s, seed, out_dir, result_path, traced = argv
    sys.path.insert(0, os.path.abspath(src))

    t0 = time.perf_counter()
    import dataclasses

    import voipsim.runner
    from voipsim.scenario import builtin_scenario, parse_scenario, validate
    from voipsim.simcore import Simulator
    t_imported = time.perf_counter()

    spec = parse_scenario(scenario) if os.path.isfile(scenario) else builtin_scenario(scenario)
    spec = validate(dataclasses.replace(spec, run_length_us=int(run_length_s) * 1_000_000))
    t_resolved = time.perf_counter()

    clock = {}
    run_until = Simulator.run_until

    def timed_run_until(sim, t_end):
        clock["enter"] = time.perf_counter()
        clock["rss_enter_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return run_until(sim, t_end)
        finally:
            clock["exit"] = time.perf_counter()

    Simulator.run_until = timed_run_until
    trace = None
    if traced == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import Trace, install

        trace = Trace()
        install(trace)

    out = voipsim.runner.run_scenario(spec, seed=int(seed), out_dir=out_dir)
    t_done = time.perf_counter()

    result = {
        "t_start": t0,
        "import_s": t_imported - t0,
        "resolve_s": t_resolved - t_imported,
        "t_enter_run": clock["enter"],
        "t_exit_run": clock["exit"],
        "t_done": t_done,
        "rss_enter_kb": clock["rss_enter_kb"],
        "sim_h": spec.run_length_us / 3_600_000_000,
        "warm_up_s": spec.warm_up_us / 1_000_000,
        "conservation": out.stats.conservation_holds(),
        "stats": dataclasses.asdict(out.stats),
        "setup_delays_ms": _setup_delays_ms(out.session_layer),
        "csv": out.csv_path,
        "manifest": out.manifest_path,
        "trace": trace.as_dict() if trace is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter teardown: freeing a run's packet logs is not part of it
    os._exit(code)
