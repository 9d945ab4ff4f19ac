"""Run orchestration: determinism, output files, repetitions, compare."""

import csv
import importlib.util
import io
import json
import os
import platform
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import voipsim
from voipsim.metrics import CSV_COLUMNS, QoSBucket, write_metrics_csv
from voipsim.netmodels import Fabric
from voipsim.runner import (
    IncompatibleRuns,
    compare_runs,
    run_scenario,
)
from voipsim.scenario import builtin_scenario, spec_digest
from voipsim.simcore import EventHandlerFault, RunStats, Simulator
from voipsim.traffic import DIR_FORWARD, DIR_REVERSE


def short_spec(name="wifi-wifi", run_s=60, warm_s=10, seed=7):
    spec = builtin_scenario(name)
    return replace(spec, run_length_us=run_s * 1_000_000,
                   warm_up_us=warm_s * 1_000_000, master_seed=seed)


def read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_same_seed_same_bytes(tmp_path):
    spec = short_spec()
    a = run_scenario(spec, out_dir=str(tmp_path / "a"))
    b = run_scenario(spec, out_dir=str(tmp_path / "b"))
    csv_a, csv_b = read_file(a.csv_path), read_file(b.csv_path)
    assert csv_a == csv_b
    assert a.stats == b.stats
    assert csv_a.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_different_seed_different_traffic(tmp_path):
    base = short_spec(seed=7)
    other = replace(base, master_seed=8)
    a = run_scenario(base)
    b = run_scenario(other)
    assert a.stats != b.stats


def test_run_produces_activity():
    out = run_scenario(short_spec(run_s=120))
    s = out.stats
    assert s.calls_established >= 1
    assert s.packets_generated > 0
    assert s.conservation_holds()
    assert s.events_processed > 0
    # both directions carried media
    for direction in (DIR_FORWARD, DIR_REVERSE):
        buckets = out.buckets_by_direction[direction]
        assert len(buckets) == 12  # 120 s / 10 s windows
        assert sum(b.samples for b in buckets) > 0
    flags = [b.in_warmup for b in out.buckets_by_direction[DIR_FORWARD]]
    assert flags[0] is True and flags[-1] is False


def test_packet_log_stays_compact(monkeypatch):
    """What the event loop leaves allocated is mostly the per-packet receive
    log: about 10 B per packet with 8-byte typed slots, about 42 B with a
    list of boxed ints (wifi-wifi, seed 1, 120 s)."""
    run_until = Simulator.run_until
    held = {}

    def traced_run_until(sim, t_end):
        tracemalloc.start()
        try:
            stats = run_until(sim, t_end)
            held["bytes"] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return stats

    monkeypatch.setattr(Simulator, "run_until", traced_run_until)
    out = run_scenario(short_spec(run_s=120, warm_s=0, seed=1))
    assert out.stats.packets_generated > 5_000
    assert held["bytes"] / out.stats.packets_generated < 20


def _peak_bytes(**outputs):
    """Peak bytes allocated by run_scenario of a 120 s wifi-wifi run (seed 1)."""
    tracemalloc.start()
    try:
        out = run_scenario(short_spec(run_s=120, warm_s=0, seed=1), **outputs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_run_holds_no_trace_in_memory(tmp_path):
    """The trace and the session log go to their files as the run makes them,
    so a traced run peaks no higher than an untraced one, give or take the
    file buffers; held in memory, the trace costs about 1 KB per packet."""
    run_scenario(short_spec(run_s=1, warm_s=0), out_dir=str(tmp_path / "warm"))
    _, plain = _peak_bytes(out_dir=str(tmp_path / "plain"))
    out, traced = _peak_bytes(out_dir=str(tmp_path / "traced"), trace=True,
                              session_log=True)
    assert out.stats.packets_generated > 5_000
    assert os.path.getsize(out.trace_path) > 100 * out.stats.packets_generated
    assert traced - plain < 1_000_000


def test_conservation_fails_when_a_packet_is_delivered_twice(monkeypatch):
    """In flight is counted from the receive logs after the run, not kept
    beside the delivered counter, so counting one delivery twice shows."""
    media_done = Fabric._media_done
    doubled = []

    def deliver_first_twice(self, packet, t_recv):
        media_done(self, packet, t_recv)
        if not doubled:
            doubled.append(packet)
            media_done(self, packet, t_recv)

    monkeypatch.setattr(Fabric, "_media_done", deliver_first_twice)
    stats = run_scenario(short_spec()).stats
    assert doubled
    assert not stats.conservation_holds()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# (SRC, out_dir): a short traced run with a session log, so the post-run
# writes count too; prints the modules then loaded
_FOOTPRINT_RUN = """
import sys
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import voipsim.cli
from voipsim.runner import run_scenario
from voipsim.scenario import builtin_scenario
spec = replace(builtin_scenario("wifi-umts"), run_length_us=20_000_000, warm_up_us=0)
run_scenario(spec, out_dir=sys.argv[2], trace=True, session_log=True)
print(" ".join(sorted(sys.modules)))
"""


def test_run_loads_no_library_it_does_not_use(tmp_path):
    """A run of a builtin scenario never maps OpenSSL for its two SHA-256
    digests, and never loads the rational, config or CSV parsers.  -S keeps
    site's own imports out of the picture."""
    unused = {"fractions", "decimal", "_decimal", "configparser", "csv"}
    if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        unused |= {"hashlib", "_hashlib"}
    proc = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT_RUN, SRC, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "voipsim.runner" in loaded
    assert sorted(unused & loaded) == []


def test_csv_rows_cover_every_window(tmp_path):
    out = run_scenario(short_spec(), out_dir=str(tmp_path))
    with open(out.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 6  # two directions, 60 s / 10 s windows
    assert {r["direction"] for r in rows} == {"caller_to_callee", "callee_to_caller"}
    assert [r["window_start_s"] for r in rows[:6]] == [
        "0.000000000", "10.000000000", "20.000000000",
        "30.000000000", "40.000000000", "50.000000000"]
    assert all(r["scenario"] == "wifi-wifi" and r["seed"] == "7" for r in rows)


def test_manifest_contents(tmp_path):
    spec = short_spec()
    out = run_scenario(spec, out_dir=str(tmp_path))
    manifest = json.loads(read_file(out.manifest_path))
    assert manifest["tool_version"] == voipsim.__version__
    assert manifest["python"] == {"implementation": platform.python_implementation(),
                                  "version": platform.python_version()}
    assert manifest["spec_sha256"] == spec_digest(spec)
    assert manifest["seed"] == 7
    assert manifest["partial"] is False
    assert manifest["files"]["metrics_csv"] == "wifi-wifi-seed7.metrics.csv"
    assert manifest["scenario"]["scenario"]["run_length_s"] == 60
    stats = manifest["stats"]
    assert stats["packets_generated"] == (stats["packets_delivered"]
                                          + stats["packets_dropped"]
                                          + stats["packets_in_flight"])


def test_optional_trace_and_session_log(tmp_path):
    out = run_scenario(short_spec(run_s=120, warm_s=5), out_dir=str(tmp_path),
                       trace=True, session_log=True)
    trace = read_file(out.trace_path).splitlines()
    assert trace[0] == "packet_id,segment,ingress_ticks,egress_ticks,drop_reason"
    assert len(trace) > 1
    log = read_file(out.session_log_path)
    assert "Idle→Inviting" in log
    manifest = json.loads(read_file(out.manifest_path))
    assert manifest["files"]["trace_csv"] == "wifi-wifi-seed7.trace.csv"
    assert manifest["files"]["session_log"] == "wifi-wifi-seed7.sessions.log"


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_honour_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        out = run_scenario(short_spec(run_s=30, warm_s=5), out_dir=str(tmp_path),
                           trace=True, session_log=True)
    finally:
        os.umask(old)
    for path in (out.csv_path, out.manifest_path, out.trace_path, out.session_log_path):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def test_repetitions_step_the_seed(tmp_path, monkeypatch, capsys):
    import voipsim.cli as cli_mod

    spec = replace(short_spec(run_s=120, warm_s=5, seed=5), repetitions=3)
    monkeypatch.setattr(cli_mod, "_resolve_scenario", lambda token: spec)
    real = cli_mod.run_scenario
    seen = []

    def tracked(spec, **kwargs):
        out = real(spec, **kwargs)
        seen.append((out.seed, out.stats.events_processed))
        return out

    monkeypatch.setattr(cli_mod, "run_scenario", tracked)
    assert cli_mod.main(["run", "--scenario", "short",
                         "--out", str(tmp_path)]) == cli_mod.EXIT_OK
    capsys.readouterr()
    assert [seed for seed, _ in seen] == [5, 6, 7]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "wifi-wifi-seed5.metrics.csv" in names
    assert "wifi-wifi-seed6.metrics.csv" in names
    assert "wifi-wifi-seed7.metrics.csv" in names
    # repetitions are genuinely different draws
    assert len({events for _, events in seen}) == 3


def test_partial_manifest_on_fault(tmp_path, monkeypatch):
    import voipsim.runner as runner_mod

    class Faulty(runner_mod.Simulator):
        def run_until(self, t_end):
            super().run_until(t_end)  # writes trace rows and log lines
            raise EventHandlerFault("boom", RunStats(events_processed=3))

    monkeypatch.setattr(runner_mod, "Simulator", Faulty)
    spec = short_spec()
    with pytest.raises(EventHandlerFault):
        run_scenario(spec, out_dir=str(tmp_path), trace=True, session_log=True)
    manifest = json.loads(read_file(tmp_path / "wifi-wifi-seed7.manifest.json"))
    assert manifest["partial"] is True
    assert manifest["stats"]["events_processed"] == 3
    assert manifest["files"] == {}
    # no CSV, trace or log, and no temp file of one
    assert os.listdir(tmp_path) == ["wifi-wifi-seed7.manifest.json"]


# -- compare ------------------------------------------------------------------

def _bucket(start_us, samples=10):
    return QoSBucket(window_start_us=start_us, samples=samples, dropped=0,
                     jitter_s=0.001, mean_e2e_s=0.03, pdv_s2=0.0, mos=4.0,
                     delay_class="Good", jitter_class="Good", in_warmup=False)


def _fake_csv(path, scenario, seed, starts):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_metrics_csv(fh, scenario, seed, {0: [_bucket(s) for s in starts]})


def test_compare_overlaid(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    _fake_csv(p1, "demo", 1, [0, 10_000_000])
    _fake_csv(p2, "demo", 2, [0, 10_000_000])
    out = io.StringIO()
    compare_runs([p1, p2], "overlaid", out)
    lines = out.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4
    assert {line.split(",")[1] for line in lines[1:]} == {"1", "2"}


def test_compare_stacked(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    _fake_csv(p1, "demo", 1, [0])
    _fake_csv(p2, "demo", 2, [0])
    out = io.StringIO()
    compare_runs([p1, p2], "stacked", out)
    text = out.getvalue()
    assert "# demo seed=1 source=a.csv" in text
    assert "# demo seed=2 source=b.csv" in text
    # stacked blocks end with a separating blank line
    assert text.endswith("\n\n")


GOOD_ROW = ["demo", "1", "caller_to_callee", "0.000000000", "10", "0.001000000",
            "0.030000000", "0.000000000", "4.000000000", "Good", "Good"]


@pytest.mark.parametrize("column, value", [
    # quoted fields: voipsim never writes one, validate() forbids the names
    ("scenario", '"a,b"'),
    ("scenario", '"say ""hi"""'),
    ("scenario", '"a\nb"'),
    ("scenario", ""),
    ("seed", "1.5"),
    ("direction", "sideways"),
    ("window_start_s", ""),
    ("samples", "-5"),
    ("jitter_s", "abc"),
    ("e2e_s", "0.03"),
    ("mos", "4.000000000 "),
    ("delay_class", "Meh"),
    ("jitter_class", "Fair"),
], ids=["quoted-comma", "quoted-quote", "quoted-newline", "empty-scenario", "fractional-seed",
        "sideways", "empty-window", "negative-samples", "jitter-abc", "short-decimal",
        "trailing-space", "class-meh", "class-fair"])
def test_compare_rejects_a_field_voipsim_never_writes(tmp_path, capsys, column, value):
    import voipsim.cli as cli_mod

    row = list(GOOD_ROW)
    row[CSV_COLUMNS.index(column)] = value
    path = tmp_path / "odd.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n", newline="")
    with pytest.raises(IncompatibleRuns, match=r"odd\.csv: line 2"):
        compare_runs([str(path)], "stacked", io.StringIO())
    assert cli_mod.main(["compare", "--mode", "stacked", str(path)]) == cli_mod.EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_compare_reads_crlf_and_writes_lf(tmp_path):
    lf = tmp_path / "lf.csv"
    _fake_csv(str(lf), "demo", 1, [0, 10_000_000])
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for path in (lf, crlf):
        out = io.StringIO()
        compare_runs([str(path)], "overlaid", out)
        assert out.getvalue() == lf.read_text()


def test_compare_rejects_a_last_line_without_newline(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(GOOD_ROW))
    with pytest.raises(IncompatibleRuns, match=r"cut\.csv: line 2 has no newline"):
        compare_runs([str(path)], "overlaid", io.StringIO())


def test_compare_rejects_mismatched_grid(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    _fake_csv(p1, "demo", 1, [0, 10_000_000])
    _fake_csv(p2, "demo", 2, [0, 5_000_000])
    with pytest.raises(IncompatibleRuns, match="window grid differs"):
        compare_runs([p1, p2], "overlaid", io.StringIO())


def test_compare_rejects_non_metrics_file(tmp_path):
    bad = tmp_path / "notes.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(IncompatibleRuns, match="bad header"):
        compare_runs([str(bad)], "overlaid", io.StringIO())


def test_compare_rejects_a_short_row(tmp_path, capsys):
    import voipsim.cli as cli_mod

    short = tmp_path / "short.csv"
    short.write_text(",".join(CSV_COLUMNS) + "\nx,1,caller_to_callee\n")
    with pytest.raises(IncompatibleRuns, match=r"short\.csv: line 2 has 3 fields"):
        compare_runs([str(short)], "overlaid", io.StringIO())
    # a config error, not a traceback
    assert cli_mod.main(["compare", "--mode", "overlaid", str(short)]) == cli_mod.EXIT_CONFIG
    assert "line 2 has 3 fields" in capsys.readouterr().err


def test_compare_rejects_empty_table(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(IncompatibleRuns, match="no data rows"):
        compare_runs([str(empty)], "overlaid", io.StringIO())


def test_compare_rejects_unknown_mode(tmp_path):
    p1 = str(tmp_path / "a.csv")
    _fake_csv(p1, "demo", 1, [0])
    with pytest.raises(ValueError, match="overlaid or stacked"):
        compare_runs([p1], "sideways", io.StringIO())
