"""Run orchestration: build the node graph from a scenario, simulate, collect
metrics, and write CSV/manifest outputs atomically."""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass

from . import __version__
from .metrics import (ACCEPTABLE, CSV_COLUMNS, GOOD, POOR, QoSBucket, bucketize,
                      records_from_stream, write_metrics_csv)
from .netmodels import TRACE_COLUMNS, Fabric, IpCloud, UmtsCell, WifiCell
from .scenario import NAME_RE, ScenarioSpec, spec_as_dict, spec_digest
from .signaling import SessionLayer
from .simcore import EventHandlerFault, RunStats, SimError, Simulator
from .traffic import (CODECS, DIR_FORWARD, DIR_REVERSE, DIRECTION_LABELS, CallScheduler,
                      MediaStream, count_in_flight)


class IncompatibleRuns(SimError):
    """compare inputs are not well-formed metrics CSVs, or disagree on the
    reporting window grid."""


@dataclass
class RunOutput:
    scenario: str
    seed: int
    stats: RunStats
    buckets_by_direction: dict[int, list[QoSBucket]]
    csv_path: str | None = None
    manifest_path: str | None = None
    trace_path: str | None = None
    session_log_path: str | None = None
    calls: list[tuple[MediaStream, MediaStream]] = None  # (forward, reverse) per call
    session_layer: SessionLayer = None


_CELLS = {"wifi": WifiCell, "umts": UmtsCell}


@contextmanager
def _atomic_file(path: str):
    """Yield a text file open beside path; on a normal exit rename it onto path,
    and on any exception unlink it, so path never holds a part-written file."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        # mkstemp creates 0600; give the output the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_manifest(path: str, spec: ScenarioSpec, seed: int, stats: RunStats | None,
                    files: dict[str, str | None], partial: bool) -> None:
    # imported here, not at start-up: its module-level regex compiles add
    # about 5% to the time before the first event
    import platform

    manifest = {
        "tool_version": __version__,
        # byte identity rests on the interpreter's random algorithms
        "python": {"implementation": platform.python_implementation(),
                   "version": platform.python_version()},
        "spec_sha256": spec_digest(spec),
        "scenario": spec_as_dict(spec),
        "seed": seed,
        "partial": partial,
        "files": {k: os.path.basename(v) for k, v in files.items() if v},
        "stats": asdict(stats) if stats is not None else None,
    }
    _atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_scenario(spec: ScenarioSpec, *, seed: int | None = None,
                 out_dir: str | None = None, trace: bool = False,
                 session_log: bool = False) -> RunOutput:
    """Simulate one repetition.  With out_dir set, writes the metrics CSV and
    manifest, plus the optional trace and session log, which are written line
    by line as the run makes them; on an event-handler fault only a partial
    manifest is written before the fault propagates."""
    seed = spec.master_seed if seed is None else seed
    base = manifest_path = trace_path = log_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, f"{spec.name}-seed{seed}")
        manifest_path = base + ".manifest.json"
        trace_path = base + ".trace.csv" if trace else None
        log_path = base + ".sessions.log" if session_log else None

    with ExitStack() as outputs:
        trace_row = None
        if trace_path:
            write_trace = outputs.enter_context(_atomic_file(trace_path)).write
            write_trace(",".join(TRACE_COLUMNS) + "\n")

            def trace_row(pid, segment, ingress, egress, reason):
                write_trace(f"{pid},{segment},{ingress},{egress},{reason}\n")
        log_line = outputs.enter_context(_atomic_file(log_path)).write if log_path else None

        sim = Simulator(master_seed=seed)
        fabric = Fabric(sim, IpCloud(sim, spec.cloud), trace_row)
        for subnet in spec.subnets:
            cell_type = _CELLS[subnet.kind]
            fabric.attach_cell(cell_type(sim, subnet.name, subnet.workstations(), subnet.params))
        layer = SessionLayer(sim, fabric, spec.calls, session_log=log_line)
        for subnet in spec.subnets:
            layer.register_all(subnet.workstations())
        by_name = {s.name: s for s in spec.subnets}
        codec = CODECS[spec.codec]
        scheduler = CallScheduler(sim, spec.calls,
                                  by_name[spec.calls.caller_subnet].workstations(),
                                  by_name[spec.calls.callee_subnet].workstations(),
                                  codec, layer, fabric)
        scheduler.start()
        try:
            stats = sim.run_until(spec.run_length_us)
        except EventHandlerFault as fault:
            fault.stats.packets_in_flight = count_in_flight(scheduler.calls)
            if manifest_path:
                _write_manifest(manifest_path, spec, seed, fault.stats, {}, partial=True)
            raise
        stats.packets_in_flight = count_in_flight(scheduler.calls)

    # each stream's records are folded as they are made, never all held
    buckets = {
        direction: bucketize((records_from_stream(pair[direction])
                              for pair in scheduler.calls), codec,
                             run_length_us=spec.run_length_us,
                             width_us=spec.bucket_width_us,
                             warm_up_us=spec.warm_up_us)
        for direction in (DIR_FORWARD, DIR_REVERSE)
    }

    out = RunOutput(scenario=spec.name, seed=seed, stats=stats,
                    buckets_by_direction=buckets, calls=scheduler.calls,
                    session_layer=layer, trace_path=trace_path,
                    session_log_path=log_path)
    if base is not None:
        body = io.StringIO()
        write_metrics_csv(body, spec.name, seed, buckets)
        out.csv_path = base + ".metrics.csv"
        _atomic_write_text(out.csv_path, body.getvalue())
        out.manifest_path = manifest_path
        _write_manifest(manifest_path, spec, seed, stats,
                        {"metrics_csv": out.csv_path, "trace_csv": trace_path,
                         "session_log": log_path}, partial=False)
    return out


# -- comparing finished runs -------------------------------------------------


# the one row grammar write_metrics_csv writes, a pattern per column; every
# pattern is ASCII, so a file read as latin-1 can hold no other byte unnoticed
_FLOAT = re.compile(r"(-?[0-9]+\.[0-9]{9})?")
_CLASS = re.compile(f"({GOOD}|{ACCEPTABLE}|{POOR})?")
_COLUMN_RES = (NAME_RE, re.compile("-?[0-9]+"), re.compile("|".join(DIRECTION_LABELS)),
               re.compile(r"[0-9]+\.[0-9]{9}"), re.compile("[0-9]+"),
               _FLOAT, _FLOAT, _FLOAT, _FLOAT, _CLASS, _CLASS)


def _load_metrics_csv(path: str) -> list[list[str]]:
    """The data rows of a metrics CSV, each checked field by field against
    what write_metrics_csv writes; a CRLF line ending is read as LF."""
    with open(path, "r", encoding="latin-1", newline="") as fh:
        lines = fh.read().split("\n")
    if lines.pop() != "":
        raise IncompatibleRuns(f"{path}: line {len(lines) + 1} has no newline")
    rows = [line.removesuffix("\r").split(",") for line in lines]
    if not rows or rows[0] != list(CSV_COLUMNS):
        raise IncompatibleRuns(f"{path}: not a metrics CSV (bad header)")
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            raise IncompatibleRuns(f"{path}: line {n} has {len(row)} "
                                   f"fields, not {len(CSV_COLUMNS)}")
        for column, pattern, field in zip(CSV_COLUMNS, _COLUMN_RES, row):
            if not pattern.fullmatch(field):
                raise IncompatibleRuns(f"{path}: line {n}: {column} {field!r} "
                                       "is not as voipsim writes it")
    if len(rows) == 1:
        raise IncompatibleRuns(f"{path}: no data rows")
    return rows[1:]


def compare_runs(paths, mode: str, fh) -> None:
    """Merge metrics CSVs for plotting: overlaid is one long table keyed by
    scenario/seed; stacked repeats the table per source with a comment line.
    All inputs must share the same window grid."""
    if mode not in ("overlaid", "stacked"):
        raise ValueError(f"mode must be overlaid or stacked, got {mode!r}")
    loaded = []
    grid = None
    for path in paths:
        rows = _load_metrics_csv(path)
        starts = sorted({row[3] for row in rows})
        if grid is None:
            grid = starts
        elif starts != grid:
            raise IncompatibleRuns(
                f"{path}: window grid differs from {paths[0]} "
                "(bucket width or run length mismatch)")
        loaded.append((path, rows))

    fh.write(",".join(CSV_COLUMNS) + "\n")
    for path, rows in loaded:
        if mode == "stacked":
            fh.write(f"# {rows[0][0]} seed={rows[0][1]} source={os.path.basename(path)}\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
        if mode == "stacked":
            fh.write("\n")
