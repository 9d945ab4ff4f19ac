"""Acceptance gate: the eight release criteria, one pass/fail line each.

The heavyweight fixture simulates the three builtin scenarios for seeds 1-5
at full length (3600 s, 300 s warm-up) and keeps per-window summaries; the
comparison statistics and the conservation audit both read from it.
"""

import csv
import io
import statistics
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from voipsim.cli import main
from voipsim.metrics import (
    bucketize,
    delay_class,
    jitter_class,
    mos_from_r,
    records_from_stream,
    write_metrics_csv,
)
from voipsim.runner import run_scenario
from voipsim.scenario import (
    BUILTIN_NAMES,
    CallSpec,
    CloudSpec,
    ScenarioSpec,
    SubnetSpec,
    UmtsParams,
    builtin_scenario,
    validate,
)
from voipsim.traffic import CODECS, DIR_FORWARD, DIR_REVERSE, DROPPED

G711 = CODECS["g711"]
SEEDS = (1, 2, 3, 4, 5)


def report(capsys, num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {num} [{label}]: {verdict}", flush=True)


# -- shared full-length runs --------------------------------------------------

class RunSummary:
    def __init__(self, out):
        self.stats = out.stats
        self.buckets_by_direction = out.buckets_by_direction

    def windows(self, *, warm=False):
        for buckets in self.buckets_by_direction.values():
            for b in buckets:
                if b.in_warmup == warm:
                    yield b


@pytest.fixture(scope="module")
def matrix():
    runs = {}
    for name in BUILTIN_NAMES:
        spec = builtin_scenario(name)
        for seed in SEEDS:
            runs[name, seed] = RunSummary(run_scenario(spec, seed=seed))
    return runs


# -- 1: rating formula fixed points -------------------------------------------

def test_rating_formula_fixed_points(capsys):
    checks = (
        abs(mos_from_r(0) - 1.0) < 1e-12,
        abs(mos_from_r(100) - 4.5) < 1e-12,
        abs(mos_from_r(50) - 2.575) < 1e-9,
    )
    report(capsys, 1, "MOS fixed points", all(checks))
    assert all(checks), checks


# -- 2: metric equality against a brute-force oracle --------------------------

def one_window(records, span_us):
    """The CSV fold over a single window of span_us holding every record."""
    [bucket] = bucketize([records], G711, run_length_us=span_us, width_us=span_us)
    return bucket


def test_jitter_and_pdv_match_bruteforce_oracle(capsys):
    # each side is the correctly rounded float of one exact integer or
    # rational, so equality is exact
    rng = Random(20260815)
    failures = 0
    for _case in range(1_000):
        records = []
        for seq in range(10):
            t_send = seq * 20_000
            if rng.random() < 0.15:
                records.append((t_send, DROPPED))
            else:
                d = rng.randint(0, 400_000)
                records.append((t_send, t_send + d))
        bucket = one_window(records, 200_000)
        kept = [(t_send, tick) for t_send, tick in records if tick != DROPPED]
        if len(kept) >= 2:
            expect_j = max((b[1] - a[1]) - (b[0] - a[0])
                           for a, b in zip(kept, kept[1:]))
            if bucket.jitter_s != expect_j / 1_000_000:
                failures += 1
        else:
            assert bucket.jitter_s is None
        if kept:
            delays = [Fraction(t2 - t1) for t1, t2 in kept]
            expect_v = statistics.pvariance(delays)
            if bucket.pdv_s2 != float(expect_v / 10**12):
                failures += 1
            expect_m = (sum(delays) / len(delays) + G711.codec_delay_us) / 10**6
            if bucket.mean_e2e_s != float(expect_m):
                failures += 1
        else:
            assert bucket.pdv_s2 is None and bucket.mean_e2e_s is None
    report(capsys, 2, "jitter/PDV/delay oracle equality", failures == 0)
    assert failures == 0


# -- 3: guideline boundary classification --------------------------------------

def test_guideline_boundary_classification(capsys):
    delay_probes = ((150, "Good"), (151, "Acceptable"),
                    (300, "Acceptable"), (301, "Poor"))
    jitter_probes = ((20, "Good"), (21, "Acceptable"),
                     (50, "Acceptable"), (51, "Poor"))
    ok = (all(delay_class(d) == want for d, want in delay_probes)
          and all(jitter_class(j) == want for j, want in jitter_probes))
    report(capsys, 3, "delay/jitter class boundaries", ok)
    for d, want in delay_probes:
        assert delay_class(d) == want, (d, want)
    for j, want in jitter_probes:
        assert jitter_class(j) == want, (j, want)


# -- 4: same seed, byte-identical outputs --------------------------------------

def test_repeat_run_is_byte_identical(tmp_path, capsys):
    paths = []
    walls = []
    for sub in ("first", "second"):
        t0 = time.perf_counter()
        code = main(["run", "--scenario", "wifi-wifi", "--seed", "7",
                     "--out", str(tmp_path / sub)])
        walls.append(time.perf_counter() - t0)
        assert code == 0
        paths.append(tmp_path / sub / "wifi-wifi-seed7.metrics.csv")
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    ok = first == second and len(first) > 0
    report(capsys, 4, f"determinism ({walls[0]:.1f}s/{walls[1]:.1f}s wall)", ok)
    assert ok


# -- 5: packet conservation over the whole matrix -------------------------------

def test_packet_conservation_across_matrix(matrix, capsys):
    bad = [key for key, run in matrix.items() if not run.stats.conservation_holds()]
    report(capsys, 5, "packet conservation", not bad)
    assert not bad, bad


# -- 6: cross-technology comparison statistics ---------------------------------

def scenario_stats(matrix, name):
    jitter_means, mos_means, mos_stds = [], [], []
    for seed in SEEDS:
        run = matrix[name, seed]
        jit = [b.jitter_s for b in run.windows() if b.jitter_s is not None]
        mos = [b.mos for b in run.windows() if b.mos is not None]
        jitter_means.append(statistics.fmean(jit))
        mos_means.append(statistics.fmean(mos))
        mos_stds.append(statistics.pstdev(mos))
    return (statistics.fmean(jitter_means), statistics.fmean(mos_means),
            statistics.fmean(mos_stds))

def test_network_comparison_statistics(matrix, capsys):
    wifi_jit, wifi_mos, wifi_std = scenario_stats(matrix, "wifi-wifi")
    umts_jit, umts_mos, umts_std = scenario_stats(matrix, "umts-umts")

    mixed_ok = True
    for seed in SEEDS:
        run = matrix["wifi-umts", seed]
        for direction in (DIR_FORWARD, DIR_REVERSE):
            carried = [b for b in run.buckets_by_direction[direction]
                       if not b.in_warmup and b.samples > 0]
            mixed_ok = mixed_ok and bool(carried)

    warmup_ok = all(
        b.in_warmup == (b.window_start_us < 300_000_000)
        for run in matrix.values()
        for buckets in run.buckets_by_direction.values()
        for b in buckets)

    checks = [
        (0.02 <= umts_jit <= 0.5, f"umts jitter {umts_jit:.4f} outside [0.02, 0.5]"),
        (umts_jit >= 10 * wifi_jit,
         f"jitter ratio {umts_jit / wifi_jit:.1f} below 10"),
        (3.5 <= wifi_mos <= 4.5, f"wifi MOS {wifi_mos:.3f} outside [3.5, 4.5]"),
        (wifi_std < 0.3, f"wifi MOS window-std {wifi_std:.3f} not below 0.3"),
        (1.2 <= umts_mos <= 3.1, f"umts MOS {umts_mos:.3f} outside [1.2, 3.1]"),
        (umts_std > wifi_std,
         f"umts MOS std {umts_std:.3f} not above wifi's {wifi_std:.3f}"),
        (mixed_ok, "mixed scenario missing post-warm-up media in a direction"),
        (warmup_ok, "warm-up flag does not match the first 300 s"),
    ]
    ok = all(c for c, _ in checks)
    report(capsys, 6, "scenario comparison bands", ok)
    assert ok, "; ".join(msg for c, msg in checks if not c)


# -- 7: negative jitter survives the CSV pipeline -------------------------------

def test_negative_jitter_survives_csv_pipeline(capsys):
    # arrivals catch up: delay shrinks 1 ms per packet
    records = []
    for seq in range(30):
        t_send = seq * 20_000
        d = 60_000 - seq * 1_000
        records.append((t_send, t_send + d))
    buckets = bucketize([records], G711, run_length_us=600_000, width_us=600_000)
    fh = io.StringIO()
    write_metrics_csv(fh, "rampdown", 1, {0: buckets})
    fh.seek(0)
    rows = [r for r in csv.DictReader(fh) if r["samples"] != "0"]
    values = [float(r["jitter_s"]) for r in rows]
    ok = len(values) == 1 and values[0] == -0.001
    report(capsys, 7, "negative jitter representable", ok)
    assert ok, rows


# -- 8: a lone deterministic flow shows zero variation ---------------------------

def lone_flow_spec() -> ScenarioSpec:
    # one workstation per side, error-free air link, jitter-free backbone
    air = UmtsParams(bler=0.0)
    return validate(ScenarioSpec(
        name="lone-flow",
        subnets=(SubnetSpec("left", air, 1), SubnetSpec("right", air, 1)),
        cloud=CloudSpec(base_delay_us=30_000, jitter_half_width_us=0,
                        loss_prob=0.0),
        calls=CallSpec(inter_arrival_us=1_000_000,
                       duration_mean_us=10_000_000_000,
                       caller_subnet="left", callee_subnet="right"),
        run_length_us=120_000_000,
        warm_up_us=0,
        bucket_width_us=10_000_000,
        master_seed=1,
    ))


def test_lone_flow_has_zero_variation(capsys):
    spec = lone_flow_spec()
    out = run_scenario(spec)
    checks = [(out.stats.calls_established == 1, "expected exactly one call")]
    for pair in out.calls:
        for direction, stream in enumerate(pair):
            records = records_from_stream(stream)
            delays = {tick - t_send for t_send, tick in records if tick >= 0}
            checks.append((len(delays) == 1,
                           f"direction {direction}: delays {delays}"))
            bucket = one_window(records, spec.run_length_us)
            checks.append((bucket.jitter_s == 0.0, "jitter not exactly 0"))
            checks.append((bucket.pdv_s2 == 0.0, "pdv not exactly 0"))
    for direction, buckets in out.buckets_by_direction.items():
        for b in buckets:
            if b.samples > 0:
                checks.append((b.jitter_s == 0.0 and b.pdv_s2 == 0.0,
                               f"window {b.window_start_us} dir {direction}"))
    ok = all(c for c, _ in checks)
    report(capsys, 8, "degenerate flow collapses", ok)
    assert ok, "; ".join(msg for c, msg in checks if not c)
