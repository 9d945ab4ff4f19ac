"""Golden digests: the metrics CSV of fixed scenarios and seeds, byte for byte,
and the canonical text of each builtin scenario.

Performance and refactoring changes must leave these digests unchanged.  A
change that alters model output on purpose records the new digests here and
says so in CHANGES.md.
"""

import dataclasses
import hashlib
import io
import os
import subprocess
import sys

import pytest

from voipsim.runner import compare_runs, run_scenario
from voipsim.scenario import builtin_scenario, emit_scenario, parse_scenario_text, validate
from voipsim.simcore import Simulator

# the 33-node WiFi cell of this signaling-heavy load is the one that collides
CALL_STORM_INI = """\
[scenario]
name = call-storm
codec = g729
run_length_s = 600

[subnet.wlan]
kind = wifi
stations = 32

[subnet.cell]
kind = umts
stations = 32
bler = 0.1
max_rlc_retx = 2

[cloud]
base_delay_ms = 30
jitter_half_width_ms = 5
loss_prob = 0.01

[calls]
inter_arrival_s = 0.1
duration_mean_s = 0.2
"""

RUN_LENGTH_US = 600_000_000
SEED = 1

GOLDEN_SHA256 = {
    "wifi-wifi": "76dfeae2621471d21014f616ca4cfdf01498f944f52c8b68d5b0e82391c36d98",
    "umts-umts": "fb54d6fed66288338e080388acfaee0c6fac10eeb8e8191c09460d0505a17d1c",
    "call-storm": "e406a5920e68001345ce5501406666997a8c8113d0e34e1b1f897405e14cb8ec",
    # the headline mix: a WiFi hop carries the fixed cloud and the UMTS pipe
    # as one folded event
    "wifi-umts": "d275110f16387d52b3afa8abf7d7eba66b9a45ddd718e3ecdc8e1b61110ff5f9",
}
# events each of those runs fires: the same on every host, so a change that
# moves one moves the simulator's cost, and records the new count here
GOLDEN_EVENTS = {
    "wifi-wifi": 325_957,
    "umts-umts": 550_472,
    "call-storm": 367_719,
    "wifi-umts": 363_620,
}


def _spec(name):
    if name == "call-storm":
        spec = parse_scenario_text(CALL_STORM_INI)
    else:
        spec = builtin_scenario(name)
    return validate(dataclasses.replace(spec, run_length_us=RUN_LENGTH_US))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_metrics_csv_matches_golden_digest(name, tmp_path):
    out = run_scenario(_spec(name), seed=SEED, out_dir=str(tmp_path))
    assert _sha256(out.csv_path) == GOLDEN_SHA256[name]
    assert out.stats.events_processed == GOLDEN_EVENTS[name]
    # compare reads back exactly what a run writes
    merged = io.StringIO()
    compare_runs([out.csv_path], "overlaid", merged)
    assert hashlib.sha256(merged.getvalue().encode()).hexdigest() == GOLDEN_SHA256[name]


# Python frames a 60 s run of each workload calls inside run_until, per voice
# packet: the same on every run of one interpreter (3.10 to 3.13 stay within
# these bounds), so a change that adds host work per packet shows here.  Such
# a change raises the bound and says why in CHANGES.md, as it would for a
# digest.
FRAMES_PER_PACKET = {
    "wifi-wifi": 19.07,
    "umts-umts": 21.65,
    "call-storm": 41.67,
}


def test_frames_per_packet_stay_within_bound(monkeypatch):
    frames = 0

    def count(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    real = Simulator.run_until

    def counted(sim, t_end):
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            return real(sim, t_end)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(Simulator, "run_until", counted)
    per_packet = {}
    for name in FRAMES_PER_PACKET:
        spec = validate(dataclasses.replace(_spec(name), run_length_us=60_000_000,
                                            warm_up_us=0))
        frames = 0
        stats = run_scenario(spec, seed=SEED).stats
        assert stats.packets_generated > 0
        per_packet[name] = frames / stats.packets_generated
    over = {name: n for name, n in per_packet.items() if n > FRAMES_PER_PACKET[name]}
    assert not over, per_packet


# Two WiFi cells hand packets to one jittery, lossy cloud: its shared draws
# follow the order of equal-time events across the cells, which none of the
# digests above depends on.  A short run of its own, not _spec's 600 s.
CONTENDED_INI = """\
[scenario]
name = contended
run_length_s = 60
warm_up_s = 10

[subnet.a]
kind = wifi
stations = 6

[subnet.b]
kind = wifi
stations = 6

[cloud]
base_delay_ms = 30
jitter_half_width_ms = 12
loss_prob = 0.02

[calls]
inter_arrival_s = 5
duration_mean_s = 40
"""

CONTENDED_SHA256 = "6e07f14ff9b226fc241800a613228c99a6a09363cc7ebb8a0737edc7e3576592"
# the same run's per-packet segment trace and signaling transition log.  The
# trace file's row order follows when rows are written (a media packet's last
# rows when its last wait starts); sorted stably by packet_id, it is each
# packet's path in order, which that timing does not move.
CONTENDED_TRACE_SHA256 = "4c61644ee424c4991e21c1dec5143745cde2c5345613b1505f2b72d2e74f9d52"
CONTENDED_TRACE_BY_PACKET_SHA256 = "af18dc11e71b51de23f95660c80ddf2828dd42964e904b97f5f2b79f204c857b"
CONTENDED_SESSIONS_SHA256 = "ddc7b41276d3388879efa827ebd1edfe619faf35589d31d2684d81dde2c301d1"


def _by_packet_sha256(path):
    """Digest of a trace with its data rows stably sorted by packet_id."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = fh.read().splitlines()
    rows.sort(key=lambda row: int(row.split(",", 1)[0]))
    return hashlib.sha256(("\n".join([header, *rows]) + "\n").encode()).hexdigest()


def test_cross_cell_tie_order_matches_golden_digest(tmp_path):
    spec = validate(parse_scenario_text(CONTENDED_INI))
    out = run_scenario(spec, seed=SEED, out_dir=str(tmp_path), trace=True,
                       session_log=True)
    assert _sha256(out.csv_path) == CONTENDED_SHA256
    assert _by_packet_sha256(out.trace_path) == CONTENDED_TRACE_BY_PACKET_SHA256
    assert _sha256(out.trace_path) == CONTENDED_TRACE_SHA256
    assert _sha256(out.session_log_path) == CONTENDED_SESSIONS_SHA256


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# (SRC, scenario text, out_dir): one traced run with a session log at SEED,
# printing the paths of its CSV, trace and log
_CONTENDED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from voipsim.runner import run_scenario
from voipsim.scenario import parse_scenario_text, validate
out = run_scenario(validate(parse_scenario_text(sys.argv[2])), seed=%d,
                   out_dir=sys.argv[3], trace=True, session_log=True)
print(out.csv_path, out.trace_path, out.session_log_path)
""" % SEED


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The same three digests from a fresh interpreter with another string
    hash seed: no output byte may follow set or dict order of str keys."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CONTENDED_RUN, SRC, CONTENDED_INI, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="12345"))
    assert proc.returncode == 0, proc.stderr
    csv_path, trace_path, log_path = proc.stdout.split()
    assert _sha256(csv_path) == CONTENDED_SHA256
    assert _sha256(trace_path) == CONTENDED_TRACE_SHA256
    assert _sha256(log_path) == CONTENDED_SESSIONS_SHA256


# emit_scenario of each builtin; the spec digest in every manifest hashes it
SCENARIO_TEXT_SHA256 = {
    "wifi-wifi": "9a3540d3d984ca3b4c6981565d42a396ae2020668033a4bef8a9321a1c2bb2f8",
    "umts-umts": "36b1a4ede7dac12827c1ecf6c5d4030c2a6843d0a19a989554ca0507bdc9fe16",
    "wifi-umts": "424eba95f45d243f3752553d46edb1f4e4a3688f01ca8a9f84b07c89709440c0",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXT_SHA256))
def test_builtin_scenario_text_matches_golden_digest(name):
    text = emit_scenario(builtin_scenario(name))
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_TEXT_SHA256[name]
