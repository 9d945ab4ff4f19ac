"""Config grammar: parse/emit round-trip, validation, builtin presets."""

import pathlib

import pytest

from voipsim.scenario import (
    BUILTIN_NAMES,
    CallSpec,
    CloudSpec,
    ParseError,
    ScenarioSpec,
    SubnetSpec,
    UmtsParams,
    ValidationError,
    WifiParams,
    builtin_scenario,
    emit_scenario,
    parse_scenario,
    parse_scenario_text,
    spec_as_dict,
    spec_digest,
    validate,
    with_overrides,
)

MINIMAL = """\
[subnet.left]
kind = wifi

[subnet.right]
kind = umts
"""

CUSTOM = """\
[scenario]
name = lab
codec = g729
run_length_s = 120
warm_up_s = 10
bucket_width_s = 5
master_seed = 9
repetitions = 3

[subnet.alpha]
kind = wifi
stations = 2
data_rate_bps = 2000000
cw_min = 15
cw_max = 255

[subnet.beta]
kind = umts
stations = 6
tti_ms = 20
bler = 0.1
max_rlc_retx = 1

[cloud]
base_delay_ms = 40
jitter_half_width_ms = 3
loss_prob = 0.01

[calls]
inter_arrival_s = 30
duration_mean_s = 90
caller_subnet = beta
callee_subnet = alpha
answer_delay_s = 1
invite_timeout_s = 16
"""


def test_minimal_text_fills_defaults():
    spec = parse_scenario_text(MINIMAL, default_name="demo")
    assert spec.name == "demo"
    assert spec.codec == "g711"
    assert spec.run_length_us == 3_600_000_000
    assert spec.warm_up_us == 300_000_000
    assert spec.bucket_width_us == 10_000_000
    assert spec.master_seed == 1 and spec.repetitions == 1
    left, right = spec.subnets
    assert (left.name, left.kind, left.stations) == ("left", "wifi", 4)
    assert left.params == WifiParams()
    assert right.kind == "umts" and right.params == UmtsParams()
    # omitted [cloud] keeps the stock 30 +/- 5 ms lossless backbone
    assert spec.cloud == CloudSpec(30_000, 5_000, 0.0)
    # calls default to first subnet calling the second
    assert spec.calls.caller_subnet == "left"
    assert spec.calls.callee_subnet == "right"


def test_custom_text_parses_every_field():
    spec = parse_scenario_text(CUSTOM)
    assert spec.name == "lab" and spec.codec == "g729"
    assert spec.run_length_us == 120_000_000 and spec.warm_up_us == 10_000_000
    alpha, beta = spec.subnets
    assert alpha.params.data_rate_bps == 2_000_000
    assert (alpha.params.cw_min, alpha.params.cw_max) == (15, 255)
    assert beta.stations == 6
    assert beta.params.tti_us == 20_000 and beta.params.bler == 0.1
    assert spec.cloud == CloudSpec(40_000, 3_000, 0.01)
    assert spec.calls.caller_subnet == "beta"
    assert spec.calls.invite_timeout_us == 16_000_000


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_roundtrip_builtins(name):
    spec = builtin_scenario(name)
    assert parse_scenario_text(emit_scenario(spec)) == spec


def test_roundtrip_custom():
    spec = parse_scenario_text(CUSTOM)
    text = emit_scenario(spec)
    assert parse_scenario_text(text) == spec
    # emission is canonical: re-emitting the reparsed spec is a fixed point
    assert emit_scenario(parse_scenario_text(text)) == text


def test_digest_tracks_content():
    a = builtin_scenario("wifi-wifi")
    b = builtin_scenario("wifi-wifi")
    assert spec_digest(a) == spec_digest(b)
    assert len(spec_digest(a)) == 64
    assert spec_digest(with_overrides(a, master_seed=2)) != spec_digest(a)


def test_unknown_key_rejected():
    with pytest.raises(ParseError, match=r"\[cloud\] unknown key"):
        parse_scenario_text(MINIMAL + "\n[cloud]\nbase_delay_us = 1\n")


def test_removed_bearer_rate_key_rejected():
    # the UMTS model sends one packet per TTI attempt; no rate is modelled
    text = MINIMAL.replace("kind = umts", "kind = umts\nbearer_rate_bps = 64000")
    with pytest.raises(ParseError, match=r"\[subnet.right\] unknown key 'bearer_rate_bps'"):
        parse_scenario_text(text, default_name="demo")


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match=r"unknown section \[clouds\]"):
        parse_scenario_text(MINIMAL + "\n[clouds]\nbase_delay_ms = 1\n")


def test_bad_value_rejected():
    with pytest.raises(ParseError, match="cannot parse"):
        parse_scenario_text(MINIMAL + "\n[cloud]\nbase_delay_ms = fast\n")


def test_kind_is_required():
    with pytest.raises(ParseError, match="kind must be wifi or umts"):
        parse_scenario_text("[subnet.a]\nstations = 2\n\n[subnet.b]\nkind = wifi\n")


def test_wrong_family_key_rejected():
    with pytest.raises(ParseError, match="unknown key 'tti_ms'"):
        parse_scenario_text(MINIMAL.replace("kind = wifi", "kind = wifi\ntti_ms = 10"))


def test_subnet_count_enforced():
    with pytest.raises(ValidationError, match="exactly 2"):
        parse_scenario_text("[subnet.solo]\nkind = wifi\n")
    three = MINIMAL + "\n[subnet.extra]\nkind = wifi\n"
    with pytest.raises(ValidationError, match="exactly 2"):
        parse_scenario_text(three)


def test_validation_rules():
    base = builtin_scenario("wifi-wifi")

    def mutate(**kwargs):
        from dataclasses import replace
        return replace(base, **kwargs)

    with pytest.raises(ValidationError, match="must exceed warm_up"):
        validate(mutate(run_length_us=10, warm_up_us=10))
    with pytest.raises(ValidationError, match="bucket_width"):
        validate(mutate(bucket_width_us=0))
    with pytest.raises(ValidationError, match="repetitions"):
        validate(mutate(repetitions=0))
    with pytest.raises(ValidationError, match="unknown codec"):
        validate(mutate(codec="g726"))
    with pytest.raises(ValidationError, match="range must not go negative"):
        validate(mutate(cloud=CloudSpec(1_000, 2_000, 0.0)))
    with pytest.raises(ValidationError, match="loss_prob"):
        validate(mutate(cloud=CloudSpec(1_000, 0, 1.5)))
    with pytest.raises(ValidationError, match="reference the declared"):
        validate(mutate(calls=CallSpec(caller_subnet="hawaii", callee_subnet="mars")))
    with pytest.raises(ValidationError, match="inter_arrival_s must be > 0"):
        validate(mutate(calls=CallSpec(0, 1, "hawaii", "florida")))


@pytest.mark.parametrize("change, message", [
    ({"name": "two words"}, "name must be a plain token"),
    ({"name": "demo\n"}, "name must be a plain token"),
    ({"subnets": ()}, "exactly 2 subnets required, got 0"),
    ({"subnets": (SubnetSpec("a", WifiParams()),) * 3}, "exactly 2 subnets required, got 3"),
    ({"subnets": (SubnetSpec("a b", WifiParams()), SubnetSpec("c", WifiParams()))},
     "subnet name 'a b' must be a plain token"),
    ({"subnets": (SubnetSpec("a\n", WifiParams()), SubnetSpec("c", WifiParams()))},
     r"subnet name 'a\\n' must be a plain token"),
], ids=["spaced-name", "name-newline", "no-subnets", "three-subnets", "spaced-subnet",
        "subnet-newline"])
def test_names_and_subnet_count_checked(change, message):
    from dataclasses import replace

    with pytest.raises(ValidationError, match=message):
        validate(replace(builtin_scenario("wifi-wifi"), **change))


@pytest.mark.parametrize("section, key, message", [
    ("cloud", "jitter_half_width_ms = -5", "jitter_half_width_ms must be >= 0"),
    ("calls", "inter_arrival_s = 0", "inter_arrival_s must be > 0"),
    ("calls", "duration_mean_s = 0", "duration_mean_s must be > 0"),
    ("calls", "answer_delay_s = -1", "answer_delay_s must be >= 0"),
    ("calls", "invite_timeout_s = 0", "invite_timeout_s must be > 0"),
    ("calls", "answer_delay_s = 40", "invite_timeout_s must exceed answer_delay_s"),
    ("scenario", "warm_up_s = -5", "warm_up_s must be >= 0"),
])
def test_inputs_that_used_to_fault_at_run_time_rejected(section, key, message):
    # each of these passed validation and then raised inside a handler, or
    # failed every call setup
    text = f"{MINIMAL}\n[{section}]\n{key}\n"
    with pytest.raises(ValidationError, match=message):
        parse_scenario_text(text, default_name="demo")


@pytest.mark.parametrize("text, message", [
    (f"{MINIMAL}\n[scenario]\nrepetitions = {10**30}\n", r"repetitions must be in \[1, 1000\]"),
    (MINIMAL.replace("kind = wifi", f"kind = wifi\nstations = {10**30}"),
     r"stations must be in \[1, 10000\]"),
    (f"{MINIMAL}\n[scenario]\nrun_length_s = 1e300\n", "run_length_s must be <= 100000"),
    (f"{MINIMAL}\n[scenario]\nrun_length_s = 3600\nbucket_width_s = 0.000001\n",
     "must be <= 100000 windows"),
], ids=["repetitions", "stations", "run_length", "windows"])
def test_sizes_that_would_exhaust_memory_rejected(text, message):
    # parsed and validated only: running any of these would allocate without bound
    with pytest.raises(ValidationError, match=message):
        parse_scenario_text(text, default_name="demo")


def test_size_caps_are_inclusive():
    text = MINIMAL.replace("kind = wifi", "kind = wifi\nstations = 10000") + (
        "\n[scenario]\nrun_length_s = 100000\nbucket_width_s = 1\nrepetitions = 1000\n")
    spec = parse_scenario_text(text, default_name="demo")
    assert spec.subnets[0].stations == 10_000 and spec.repetitions == 1_000


def test_shipped_configs_validate():
    root = pathlib.Path(__file__).resolve().parent.parent
    parse_scenario(root / "perfbench" / "call-storm.ini")
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Config files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_scenario_text(example).name == "lab"


def test_bler_one_rejected_in_config():
    # a degenerate all-drop air link is not a runnable scenario
    text = MINIMAL.replace("kind = umts", "kind = umts\nbler = 1.0")
    with pytest.raises(ValidationError, match=r"bler must be in \[0, 1\)"):
        parse_scenario_text(text, default_name="demo")


def test_cw_ordering_enforced():
    text = MINIMAL.replace("kind = wifi", "kind = wifi\ncw_min = 63\ncw_max = 31")
    with pytest.raises(ValidationError, match="cw_min must be < cw_max"):
        parse_scenario_text(text, default_name="demo")


@pytest.mark.parametrize("kind, key, message", [
    ("wifi", "cw_min = -5", "cw_min must be >= 0"),
    ("wifi", "slot_us = 0", "slot_us must be > 0"),
    ("wifi", "sifs_us = -1000", "sifs_us must be >= 0"),
    ("wifi", "difs_us = -5000", "difs_us must be >= 0"),
    ("wifi", "phy_mac_overhead_bytes = -2000", "phy_mac_overhead_bytes must be >= 0"),
    ("wifi", "queue_cap = 0", "queue_cap must be > 0"),
    ("umts", "queue_cap = 0", "queue_cap must be > 0"),
])
def test_degenerate_access_parameters_rejected(kind, key, message):
    text = MINIMAL.replace(f"kind = {kind}", f"kind = {kind}\n{key}")
    with pytest.raises(ValidationError, match=message):
        parse_scenario_text(text, default_name="demo")


def test_duplicate_subnet_names_rejected():
    spec = ScenarioSpec(
        name="dup",
        subnets=(SubnetSpec("x", WifiParams(), 1), SubnetSpec("x", WifiParams(), 1)),
        calls=CallSpec(caller_subnet="x", callee_subnet="x"))
    with pytest.raises(ValidationError, match="distinct"):
        validate(spec)


def test_params_of_neither_kind_rejected():
    # a subnet's kind is the type of its params; any other type has no kind
    spec = ScenarioSpec(
        name="odd",
        subnets=(SubnetSpec("x", CloudSpec(), 1), SubnetSpec("y", WifiParams(), 1)),
        calls=CallSpec(caller_subnet="x", callee_subnet="y"))
    with pytest.raises(ValidationError, match="subnet x: kind must be wifi or umts"):
        validate(spec)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_presets_are_valid(name):
    spec = builtin_scenario(name)
    assert spec.name == name
    kinds = tuple(name.split("-"))
    assert tuple(s.kind for s in spec.subnets) == kinds
    assert all(s.stations == 4 for s in spec.subnets)
    # calibrated: jitter-free backbone, error-prone air link where present
    assert spec.cloud == CloudSpec(30_000, 0, 0.0)
    for sub in spec.subnets:
        if sub.kind == "umts":
            assert sub.params.bler == 0.3 and sub.params.max_rlc_retx == 3


def test_builtin_unknown_name():
    with pytest.raises(ValidationError, match="unknown builtin"):
        builtin_scenario("wimax-wimax")


def test_workstation_naming():
    sub = SubnetSpec("hawaii", WifiParams(), 3)
    assert sub.workstations() == ["hawaii-ws1", "hawaii-ws2", "hawaii-ws3"]


def test_parse_file_uses_stem_as_default_name(tmp_path):
    p = tmp_path / "office.ini"
    p.write_text(MINIMAL)
    assert parse_scenario(p).name == "office"
    named = tmp_path / "other.ini"
    named.write_text("[scenario]\nname = lab2\n\n" + MINIMAL)
    assert parse_scenario(named).name == "lab2"


def test_parse_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        parse_scenario("/nonexistent/path.ini")


def test_with_overrides():
    base = builtin_scenario("wifi-wifi")
    out = with_overrides(base, master_seed=42, repetitions=5)
    assert out.master_seed == 42 and out.repetitions == 5
    assert base.master_seed == 1  # spec objects stay frozen
    with pytest.raises(ValidationError):
        with_overrides(base, repetitions=0)


def test_spec_as_dict_mirrors_config_keys():
    spec = builtin_scenario("wifi-umts")
    d = spec_as_dict(spec)
    assert d["scenario"]["run_length_s"] == 3600
    assert d["subnet.hawaii"]["kind"] == "wifi"
    assert d["subnet.hawaii"]["cw_min"] == 31
    assert d["subnet.california"]["bler"] == 0.3
    assert d["cloud"]["base_delay_ms"] == 30
    assert d["calls"]["caller_subnet"] == "hawaii"
