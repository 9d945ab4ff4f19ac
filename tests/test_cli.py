"""Command line surface: subcommands, exit codes, output locations."""

import csv
import gc
import json
import os
import weakref
from dataclasses import replace

import pytest

from voipsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from voipsim.scenario import builtin_scenario
from voipsim.simcore import EventHandlerFault, RunStats

SHORT_INI = """\
[scenario]
name = smoke
run_length_s = 30
warm_up_s = 5
bucket_width_s = 10

[subnet.a]
kind = wifi
stations = 2

[subnet.b]
kind = wifi
stations = 2

[calls]
inter_arrival_s = 5
duration_mean_s = 10
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- mos ----------------------------------------------------------------------

def test_mos_from_perfect_rating(capsys):
    code, out, _ = run_cli(capsys, "mos", "--r", "100")
    assert code == EXIT_OK
    assert "R 100.00" in out
    assert "MOS 4.500 (Excellent: No effort required)" in out


def test_mos_from_midpoint_rating(capsys):
    code, out, _ = run_cli(capsys, "mos", "--r", "50")
    assert code == EXIT_OK
    assert "MOS 2.575 (Fair: Moderate effort required)" in out


def test_mos_from_delay_and_loss(capsys):
    code, out, _ = run_cli(capsys, "mos", "--delay", "110", "--loss", "0")
    assert code == EXIT_OK
    # R = 93.2 - 0.024*110 = 90.56
    assert "R 90.56" in out
    assert "delay class Good" in out


def test_mos_heavy_delay_classifies_poor(capsys):
    code, out, _ = run_cli(capsys, "mos", "--delay", "400", "--loss", "5")
    assert code == EXIT_OK
    assert "delay class Poor" in out


@pytest.mark.parametrize("argv", [
    ("--r", "120"),
    ("--delay", "100", "--loss", "-5"),
    ("--delay", "100", "--loss", "250"),
    ("--delay", "nan"),
    ("--delay", "inf"),
    ("--delay", "100", "--loss", "nan"),
], ids=["r-120", "loss-negative", "loss-over-100", "delay-nan", "delay-inf", "loss-nan"])
def test_mos_rating_out_of_domain(capsys, argv):
    code, out, err = run_cli(capsys, "mos", *argv)
    assert code == EXIT_CONFIG
    assert "error:" in err
    assert out == ""


def test_mos_rejects_mixed_inputs(capsys):
    code, _, err = run_cli(capsys, "mos", "--r", "80", "--loss", "2")
    assert code == EXIT_CONFIG
    assert "cannot be combined" in err


def test_mos_needs_some_input(capsys):
    code, _, err = run_cli(capsys, "mos")
    assert code == EXIT_CONFIG
    assert "need either" in err


# -- run ----------------------------------------------------------------------

def test_run_config_file(tmp_path, capsys):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(capsys, "run", "--scenario", str(ini),
                           "--seed", "3", "--out", str(out_dir))
    assert code == EXIT_OK
    assert out.startswith("smoke seed=3:")
    assert "packets delivered" in out
    assert (out_dir / "smoke-seed3.metrics.csv").exists()
    manifest = json.loads((out_dir / "smoke-seed3.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_run_builtin_with_reps(tmp_path, capsys):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    code, out, _ = run_cli(capsys, "run", "--scenario", str(ini),
                           "--seed", "10", "--reps", "2", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert "seed=10" in out and "seed=11" in out
    tables = []
    for seed in (10, 11):
        with open(tmp_path / f"smoke-seed{seed}.metrics.csv", newline="") as fh:
            # drop the seed column, which differs whatever the draws
            tables.append([row[:1] + row[2:] for row in csv.reader(fh)])
    # repetitions are genuinely different draws
    assert tables[0] != tables[1]


def test_run_frees_each_repetition_before_the_next(tmp_path, capsys, monkeypatch):
    import voipsim.cli as cli_mod

    real = cli_mod.run_scenario
    outputs = []
    alive = []

    def tracked(spec, **kwargs):
        gc.collect()
        alive.extend(ref() is not None for ref in outputs)
        out = real(spec, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(cli_mod, "run_scenario", tracked)
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    code, _, _ = run_cli(capsys, "run", "--scenario", str(ini),
                         "--reps", "3", "--out", str(tmp_path))
    assert code == EXIT_OK
    # checked as repetitions 2 and 3 start: every earlier output is gone
    assert alive == [False, False, False]


def test_run_builtin_by_name(tmp_path, capsys, monkeypatch):
    import voipsim.cli as cli_mod

    real = cli_mod.run_scenario
    resolved = []

    def shortened(spec, **kwargs):
        # the builtin runs an hour; its first 20 s show the same path
        resolved.append(spec)
        return real(replace(spec, run_length_us=20_000_000, warm_up_us=0), **kwargs)

    monkeypatch.setattr(cli_mod, "run_scenario", shortened)
    code, out, _ = run_cli(capsys, "run", "--scenario", "umts-umts", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert resolved == [builtin_scenario("umts-umts")]
    assert out.startswith("umts-umts seed=1:")
    assert (tmp_path / "umts-umts-seed1.metrics.csv").exists()


def test_run_honours_out_env(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("VOIPSIM_OUT", str(env_dir))
    code, _, _ = run_cli(capsys, "run", "--scenario", str(ini), "--seed", "1")
    assert code == EXIT_OK
    assert (env_dir / "smoke-seed1.metrics.csv").exists()


def test_run_flag_beats_out_env(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    monkeypatch.setenv("VOIPSIM_OUT", str(tmp_path / "ignored"))
    chosen = tmp_path / "chosen"
    code, _, _ = run_cli(capsys, "run", "--scenario", str(ini),
                         "--seed", "1", "--out", str(chosen))
    assert code == EXIT_OK
    assert (chosen / "smoke-seed1.metrics.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "wimax-wimax")
    assert code == EXIT_CONFIG
    assert "not a builtin" in err


def test_run_invalid_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[subnet.a]\nkind = wifi\nwarp_factor = 9\n")
    code, _, err = run_cli(capsys, "run", "--scenario", str(bad))
    assert code == EXIT_CONFIG
    assert "unknown key" in err


def test_run_negative_cw_min_is_config_error(tmp_path, capsys):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI.replace("stations = 2", "stations = 2\ncw_min = -5", 1))
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "cw_min must be >= 0" in err


def test_run_negative_sifs_is_config_error(tmp_path, capsys):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI.replace("stations = 2", "stations = 2\nsifs_us = -1000", 1))
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "sifs_us must be >= 0" in err


def test_run_negative_answer_delay_is_config_error(tmp_path, capsys):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI + "answer_delay_s = -1\n")
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "answer_delay_s must be >= 0" in err


UMTS_FAST_TIMEOUT_INI = """\
[scenario]
name = fast-timeout
run_length_s = 600

[subnet.new-york]
kind = umts
bler = 0.3
max_rlc_retx = 3

[subnet.california]
kind = umts
bler = 0.3
max_rlc_retx = 3

[cloud]
jitter_half_width_ms = 0

[calls]
answer_delay_s = 0
invite_timeout_s = 0.1
"""


def test_run_unbeatable_invite_timeout_is_config_error(tmp_path, capsys):
    # each of the INVITE, 200 and ACK takes at least 291 ms here (two UMTS
    # legs of one TTI plus the pipe, the cloud twice, one proxy relay), so
    # every setup would time out
    ini = tmp_path / "fast-timeout.ini"
    ini.write_text(UMTS_FAST_TIMEOUT_INI)
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "invite_timeout_s must exceed answer_delay_s" in err
    assert "0.873 s" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
def test_run_infinite_delay_is_config_error(tmp_path, capsys, value):
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI + f"\n[cloud]\nbase_delay_ms = {value}\n")
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "error: [cloud] base_delay_ms: cannot parse" in err
    assert "Traceback" not in err


def test_run_runtime_fault_exit_code(tmp_path, capsys, monkeypatch):
    import voipsim.cli as cli_mod

    def explode(spec, **kwargs):
        raise EventHandlerFault("handler died", RunStats())

    monkeypatch.setattr(cli_mod, "run_scenario", explode)
    ini = tmp_path / "smoke.ini"
    ini.write_text(SHORT_INI)
    code, _, err = run_cli(capsys, "run", "--scenario", str(ini))
    assert code == EXIT_RUNTIME
    assert "runtime fault" in err


# -- compare ------------------------------------------------------------------

def _make_run(tmp_path, capsys, seed):
    ini = tmp_path / "smoke.ini"
    if not ini.exists():
        ini.write_text(SHORT_INI)
    code, _, _ = run_cli(capsys, "run", "--scenario", str(ini),
                         "--seed", str(seed), "--out", str(tmp_path))
    assert code == EXIT_OK
    return str(tmp_path / f"smoke-seed{seed}.metrics.csv")


def test_compare_to_stdout(tmp_path, capsys):
    p1 = _make_run(tmp_path, capsys, 1)
    p2 = _make_run(tmp_path, capsys, 2)
    code, out, _ = run_cli(capsys, "compare", "--mode", "overlaid", p1, p2)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("scenario,seed,")
    assert {line.split(",")[1] for line in lines[1:]} == {"1", "2"}


def test_compare_to_file(tmp_path, capsys):
    p1 = _make_run(tmp_path, capsys, 1)
    dest = tmp_path / "merged.csv"
    code, out, _ = run_cli(capsys, "compare", "--mode", "stacked",
                           "--out", str(dest), p1)
    assert code == EXIT_OK
    assert f"wrote {dest}" in out
    assert dest.read_text().startswith("scenario,seed,")


def test_compare_incompatible_inputs(tmp_path, capsys):
    p1 = _make_run(tmp_path, capsys, 1)
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    code, _, err = run_cli(capsys, "compare", "--mode", "overlaid", p1, str(other))
    assert code == EXIT_CONFIG
    assert "error:" in err


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "compare", "--mode", "overlaid",
                           str(tmp_path / "nope.csv"))
    assert code == EXIT_RUNTIME
    assert "runtime fault" in err
