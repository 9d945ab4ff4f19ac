"""The benchmark child still runs against the program.

perfbench/child.py drives voipsim through its public entry points and, when
traced, wraps more of them by name.  A change that renames or reshapes one
of those makes every benchmark run fail, so this test runs the child once
untraced and once traced on a short mixed scenario and checks the record
that perfbench/run.py reads, and that the traced run calls every entry
point the benchmark wraps.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SRC = os.path.join(ROOT, "src")

# short enough that a warm-up of zero keeps validate() happy at 30 s
CONTRACT_INI = """\
[scenario]
name = contract
warm_up_s = 0

[subnet.lan]
kind = wifi
stations = 2

[subnet.ran]
kind = umts
stations = 2

[cloud]
jitter_half_width_ms = 2
loss_prob = 0.01

[calls]
inter_arrival_s = 2
duration_mean_s = 10
"""

# every key of the child's record that perfbench/run.py reads
RESULT_KEYS = {"t_start", "import_s", "resolve_s", "t_enter_run", "t_exit_run", "t_done",
               "rss_enter_kb", "sim_h", "warm_up_s", "conservation", "stats",
               "setup_delays_ms", "csv", "manifest", "trace"}


def run_child(tmp_path, ini, traced):
    tag = "traced" if traced else "plain"
    result_path = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, CHILD, SRC, str(ini), "30", "1", str(tmp_path / tag),
         str(result_path), "1" if traced else "0"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    ini = tmp_path / "contract.ini"
    ini.write_text(CONTRACT_INI)
    return {traced: run_child(tmp_path, ini, traced) for traced in (False, True)}


@pytest.mark.parametrize("traced", [False, True])
def test_child_record_has_what_the_benchmark_reads(results, traced):
    res = results[traced]
    assert RESULT_KEYS <= set(res)
    assert res["conservation"] is True
    assert res["stats"]["packets_generated"] > 0
    with open(res["manifest"], encoding="utf-8") as fh:
        assert json.load(fh)["partial"] is False
    assert (res["trace"] is not None) == traced


def test_traced_child_wraps_every_entry_point_and_keeps_the_csv(results):
    assert results[True]["trace"]["absent"] == []
    assert sha256_file(results[True]["csv"]) == sha256_file(results[False]["csv"])


def installed_labels():
    """Every label perfbench/layers.py installs, read off a dry install()."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from layers import Trace, install
    finally:
        sys.path.pop(0)

    labels = set()

    class Recorder(Trace):
        def patch(self, owner, name, label, make):
            labels.add(label)  # record only; leave the program unwrapped

    install(Recorder())
    return labels


# the two wrappers that count under a name other than their label
COUNTED_AS = {"simcore.schedule": "simcore.schedules", "simcore.cancel": "simcore.cancels"}


def test_traced_child_reaches_every_wrapped_entry_point(results):
    # a wrapped name the run never calls (say, one kept only as an import)
    # leaves its metric reading 0
    counts = results[True]["trace"]["n"]
    labels = {COUNTED_AS.get(label, label) for label in installed_labels()}
    assert len(labels) > 10
    assert sorted(label for label in labels if not counts.get(label)) == []
