"""Golden digests: the metrics CSV of fixed scenarios and seeds, byte for byte.

Performance and refactoring changes must leave these digests unchanged.  A
change that alters model output on purpose records the new digests here and
says so in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from voipsim.runner import run_scenario
from voipsim.scenario import builtin_scenario, parse_scenario_text, validate

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
}


def _spec(name):
    if name == "call-storm":
        spec = parse_scenario_text(CALL_STORM_INI)
    else:
        spec = builtin_scenario(name)
    return validate(dataclasses.replace(spec, run_length_us=RUN_LENGTH_US))


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_metrics_csv_matches_golden_digest(name, tmp_path):
    out = run_scenario(_spec(name), seed=SEED, out_dir=str(tmp_path))
    with open(out.csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
