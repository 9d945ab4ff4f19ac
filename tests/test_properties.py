"""Properties: every scenario that passes validate() runs to the end, and
every config text parses to a valid spec or fails as a config error.

Specs are drawn for both subnet kinds with at most four stations and runs of
at most a minute.  One to three keys per spec take an edge value (zero or
negative) instead of an ordinary one; validation must either reject the spec
or the run must finish without a handler fault and with every packet
accounted for.  The same specs, at a third of their length, check the
fabric's folded events against an unfolded reference.

Config texts are drawn over every key of every section, with ordinary
values, non-finite and overflowing numbers, huge integers, empty strings,
unknown keys and repeated keys; they are only parsed, never run.

A real metrics CSV, with bytes inserted, deleted or replaced, is either
merged by `voipsim compare` with its data rows intact or refused as a config
error.
"""

import contextlib
import dataclasses
import io
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from voipsim import cli, runner
from voipsim.netmodels import Fabric
from voipsim.runner import run_scenario
from voipsim.scenario import (
    _KEYS,
    CallSpec,
    CloudSpec,
    ParseError,
    ScenarioSpec,
    SubnetSpec,
    UmtsParams,
    ValidationError,
    WifiParams,
    parse_scenario_text,
    validate,
)
from voipsim.traffic import CODECS

S = 1_000_000
MS = 1_000

# key -> ordinary range; an edge draw replaces it with 0, -1 or a large
# negative value, large enough to outweigh any other term it is added to
EDGE_VALUES = (0, -1, -10**7)
WIFI_RANGES = {
    "data_rate_bps": (1_000_000, 54_000_000),
    "slot_us": (1, 50),
    "sifs_us": (0, 50),
    "difs_us": (0, 100),
    "cw_min": (0, 63),
    "cw_max": (1, 1023),
    "retry_limit": (1, 8),
    "phy_mac_overhead_bytes": (0, 100),
    "queue_cap": (1, 50),
}
UMTS_RANGES = {
    "tti_us": (1 * MS, 40 * MS),
    "max_rlc_retx": (0, 4),
    "nodeb_rnc_delay_us": (0, 30 * MS),
    "rnc_proc_delay_us": (0, 30 * MS),
    "cn_delay_us": (0, 30 * MS),
    "air_interleave_delay_us": (0, 60 * MS),
    "queue_cap": (1, 50),
}
CLOUD_RANGES = {
    "base_delay_us": (0, 100 * MS),
    "jitter_half_width_us": (0, 20 * MS),
}
CALL_RANGES = {
    "inter_arrival_us": (S // 10, 10 * S),
    "duration_mean_us": (S, 30 * S),
    "answer_delay_us": (0, 3 * S),
    "invite_timeout_us": (S, 40 * S),
}
SCENARIO_RANGES = {
    "warm_up_us": (0, 10 * S),
    "bucket_width_us": (S // 2, 20 * S),
    "master_seed": (0, 1_000),
}
PROB_KEYS = ("bler", "loss_prob")
EDGE_KEYS = sorted({*WIFI_RANGES, *UMTS_RANGES, *CLOUD_RANGES, *CALL_RANGES,
                    *SCENARIO_RANGES, *PROB_KEYS, "stations"})


@st.composite
def scenario_specs(draw):
    edge = draw(st.sets(st.sampled_from(EDGE_KEYS), min_size=1, max_size=3))

    def num(key, lo, hi):
        if key in edge:
            return draw(st.sampled_from(EDGE_VALUES))
        return draw(st.integers(lo, hi))

    def prob(key):
        if key in edge:
            return draw(st.sampled_from((0.0, -0.1, 1.0)))
        return draw(st.floats(0.0, 0.5))

    def block(ranges):
        return {key: num(key, lo, hi) for key, (lo, hi) in ranges.items()}

    subnets = []
    for name in ("left", "right"):
        stations = num("stations", 1, 4)
        if draw(st.sampled_from(("wifi", "umts"))) == "wifi":
            subnets.append(SubnetSpec(name, WifiParams(**block(WIFI_RANGES)), stations))
        else:
            umts = UmtsParams(bler=prob("bler"), **block(UMTS_RANGES))
            subnets.append(SubnetSpec(name, umts, stations))
    return ScenarioSpec(
        name="prop",
        subnets=tuple(subnets),
        cloud=CloudSpec(loss_prob=prob("loss_prob"), **block(CLOUD_RANGES)),
        calls=CallSpec(caller_subnet="left", callee_subnet="right", **block(CALL_RANGES)),
        codec=draw(st.sampled_from(sorted(CODECS))),
        # integer draws lean towards the low end; most runs should carry calls
        run_length_us=draw(st.sampled_from((60 * S, 30 * S, S))),
        **block(SCENARIO_RANGES),
    )


def _valid(spec) -> bool:
    try:
        validate(spec)
    except ValidationError:
        return False
    return True


# derandomized so that every run of the suite checks the same examples
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_specs())
def test_validated_specs_run_and_conserve_packets(spec):
    assume(_valid(spec))
    stats = run_scenario(spec).stats
    assert stats.conservation_holds()


# -- the folded fabric against an unfolded reference ---------------------------

class UnfoldedFabric(Fabric):
    """Fabric with nothing folded: every segment, fixed ones too, ends in an
    event of its own, and every wait is scheduled.  path_len[pid] is the
    number of segments packet pid has to cross."""

    def __init__(self, *args):
        super().__init__(*args)
        self.path_len = []

    def _compile(self, segments):
        return [(label, fn, node, self._fixed.get(label), 0, hop + 1)
                for hop, (label, fn, node) in enumerate(segments)]

    def hold(self, env, delay_us, kind):
        self.sim.schedule(self.sim.now + delay_us, self._run_done, env, kind=kind)

    def send(self, item, size_bytes, src, dst, on_end, on_fail):
        self.path_len.append(len(self._path(src, dst)))
        super().send(item, size_bytes, src, dst, on_end, on_fail)


def _rows_by_packet(path):
    rows = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rows.setdefault(int(line.split(",", 1)[0]), []).append(line)
    return rows


def _traced_run(spec, out_dir):
    out = run_scenario(spec, out_dir=out_dir, trace=True, session_log=True)
    with open(out.csv_path, encoding="utf-8") as fh, \
            open(out.session_log_path, encoding="utf-8") as log:
        outputs = (fh.read(), log.read())
    stats = dataclasses.asdict(out.stats)
    del stats["events_processed"]  # unfolded, every segment costs an event
    return outputs, stats, _rows_by_packet(out.trace_path)


def assert_folding_changes_no_output(spec):
    """The metrics CSV, the session log, the run's counters and the trace
    rows of every packet that finished are those of an UnfoldedFabric run.
    A packet still in flight at the end has, folded, a prefix of its
    unfolded rows: a fixed run's rows are written when the whole run ends."""
    made = []

    def unfolded_fabric(*args):
        made.append(UnfoldedFabric(*args))
        return made[-1]

    with tempfile.TemporaryDirectory() as out_dir:
        folded = _traced_run(spec, out_dir)
        with mock.patch.object(runner, "Fabric", unfolded_fabric):
            unfolded = _traced_run(spec, out_dir)
    assert folded[:2] == unfolded[:2]
    path_len = made[0].path_len
    folded_rows, unfolded_rows = folded[2], unfolded[2]
    assert folded_rows.keys() <= unfolded_rows.keys()
    for pid, rows in unfolded_rows.items():
        finished = rows[-1].rstrip("\n").split(",")[-1] != "" or len(rows) == path_len[pid]
        got = folded_rows.get(pid, [])
        assert got == (rows if finished else rows[:len(got)]), pid


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_specs())
def test_folded_fabric_matches_an_unfolded_reference(spec):
    spec = dataclasses.replace(spec, run_length_us=spec.run_length_us // 3)
    assume(_valid(spec))
    assert_folding_changes_no_output(spec)


# UMTS pipes and a cloud of 0 us: a UMTS-to-WiFi packet leaves the air link
# on the TTI grid and reaches the access point at that same instant, one
# round of same-instant events per 0 us segment later.  A fold that skips
# those rounds enqueues it ahead of other events of that instant: at seed 28
# one packet then waits behind another at the access point.
ZERO_FIXED_INI = """\
[scenario]
name = zero-fixed
run_length_s = 10
warm_up_s = 0

[subnet.left]
kind = wifi
stations = 4

[subnet.right]
kind = umts
stations = 4
nodeb_rnc_delay_ms = 0
rnc_proc_delay_ms = 0
cn_delay_ms = 0
air_interleave_delay_ms = 0

[cloud]
base_delay_ms = 0
jitter_half_width_ms = 0

[calls]
inter_arrival_s = 1
duration_mean_s = 10
"""


# A 0 us cloud between UMTS pipes of 1 us, on TTI grids of 1001 and 1000 us
# with one-packet bearers.  A fold of the whole 2 us run skips the 0 us
# cloud's round of same-instant events: two downlink attempts of the left
# cell that end at one instant then draw its BLER stream in the other order,
# at 6 of seeds 0 to 29.  With a 1 us cloud, the near miss, the whole 3 us
# run folds into one event and the order holds.
ZERO_CLOUD_INI = """\
[scenario]
name = zero-cloud
run_length_s = 20
warm_up_s = 0

[subnet.left]
kind = umts
stations = 2
tti_ms = 1.001
bler = 0.25
max_rlc_retx = 0
queue_cap = 1
nodeb_rnc_delay_ms = 0
rnc_proc_delay_ms = 0
cn_delay_ms = 0.001
air_interleave_delay_ms = 0

[subnet.right]
kind = umts
stations = 2
tti_ms = 1
bler = 0
max_rlc_retx = 0
queue_cap = 1
nodeb_rnc_delay_ms = 0
rnc_proc_delay_ms = 0
cn_delay_ms = 0.001
air_interleave_delay_ms = 0

[cloud]
base_delay_ms = {cloud_ms}
jitter_half_width_ms = 0

[calls]
inter_arrival_s = 0.1
duration_mean_s = 1
answer_delay_s = 0
invite_timeout_s = 1
"""


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("text", [
    ZERO_FIXED_INI, ZERO_CLOUD_INI.format(cloud_ms=0), ZERO_CLOUD_INI.format(cloud_ms=0.001)],
    ids=["zero-fixed", "zero-cloud", "one-us-cloud"])
def test_short_fixed_segments_match_the_unfolded_reference(text, seed):
    spec = validate(parse_scenario_text(text))
    assert_folding_changes_no_output(dataclasses.replace(spec, master_seed=seed))


# -- config text --------------------------------------------------------------

ODD_VALUES = ("inf", "-inf", "nan", "1e400", "", str(10**30), str(-10**30), "9" * 5000)
NAMES = ("left", "right", "g711", "g729", "g7231", "wifi", "umts", "x y")
UNKNOWN_KEYS = ("warp_factor", "run_length_us", "base_delay_us", "tti_us", "Kind")


def ordinary_values(how):
    """Values a key with this converter (or unit scale) reads as intended."""
    if how is float:
        return st.floats(0, 1).map(repr)
    if how is int:
        return st.integers(0, 100).map(str)
    if isinstance(how, int):
        # a key in seconds, milliseconds or microseconds
        return st.integers(0, 10**6 // how * 100).map(str)
    return st.sampled_from(NAMES)


def one_in(n):
    # sampled_from leans towards its first entry, so True stays rare
    return st.sampled_from((False,) * (n - 1) + (True,))


@st.composite
def key_lines(draw, keymap):
    """Distinct "key = value" lines over keymap's keys; about one value in
    eight is odd, and about one section in ten adds an unknown or a repeated
    key."""
    keys = draw(st.lists(st.sampled_from(sorted(keymap)), unique=True, max_size=6))
    if draw(one_in(10)):
        keys.append(draw(st.sampled_from(UNKNOWN_KEYS + tuple(keys))))
    lines = []
    for key in keys:
        if draw(one_in(8)):
            value = draw(st.sampled_from(ODD_VALUES))
        else:
            value = draw(ordinary_values(keymap.get(key, (None, int))[1]))
        lines.append(f"{key} = {value}")
    return lines


@st.composite
def config_texts(draw):
    sections = []
    for section in ("scenario", "cloud", "calls"):
        if draw(st.booleans()):
            sections.append((section, draw(key_lines(_KEYS[section]))))
    for name in draw(st.sampled_from((("left", "right"), ("left",), ("a", "b", "c")))):
        kind = draw(st.sampled_from(("wifi", "umts", "wifi", "umts", "", "wimax")))
        keymap = {**_KEYS.get(kind, {}), "stations": ("stations", int)}
        sections.append((f"subnet.{name}", [f"kind = {kind}"] + draw(key_lines(keymap))))
    return "\n".join(f"[{header}]\n" + "".join(line + "\n" for line in lines)
                     for header, lines in sections)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(config_texts())
def test_config_text_parses_to_a_valid_spec_or_a_config_error(text):
    try:
        spec = parse_scenario_text(text, default_name="fuzz")
    except (ParseError, ValidationError):
        return
    assert validate(spec) is spec


# -- compare on damaged metrics CSVs -------------------------------------------

# bytes a damaged or hand-edited CSV picks up: quotes, line ends, a UTF-8 BOM,
# NUL, invalid UTF-8, and characters of the grammar itself
DAMAGE = (b'"', b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\x00", b"\xff\xfe", b"\xe9",
          b",", b"-", b".", b"0", b"Good")
edits = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                           st.integers(0, 10**6), st.integers(1, 12),
                           st.one_of(st.sampled_from(DAMAGE), st.binary(max_size=4))),
                 max_size=3)


@pytest.fixture(scope="module")
def metrics_csv(tmp_path_factory):
    spec = validate(ScenarioSpec(
        name="umts", subnets=(SubnetSpec("a", UmtsParams(), 2), SubnetSpec("b", UmtsParams(), 2)),
        calls=CallSpec(inter_arrival_us=2 * S, duration_mean_us=20 * S,
                       caller_subnet="a", callee_subnet="b"),
        run_length_us=40 * S, warm_up_us=0))
    out = run_scenario(spec, out_dir=str(tmp_path_factory.mktemp("compare")))
    with open(out.csv_path, "rb") as fh:
        return fh.read()


def _damaged(data, damage):
    for kind, at, length, payload in damage:
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + payload + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + length:]
        else:
            data = data[:at] + payload + data[at + length:]
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crlf=st.booleans(), damage=edits, mode=st.sampled_from(("overlaid", "stacked")))
def test_compare_keeps_the_rows_of_a_damaged_csv_or_refuses_it(metrics_csv, crlf, damage,
                                                                mode):
    data = _damaged(metrics_csv.replace(b"\n", b"\r\n") if crlf else metrics_csv, damage)
    with tempfile.TemporaryDirectory() as tmp:
        src, dest = f"{tmp}/in.csv", f"{tmp}/out.csv"
        with open(src, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["compare", "--mode", mode, "--out", dest, src])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
        if code == cli.EXIT_CONFIG:
            return
        with open(dest, "rb") as fh:
            written = fh.read()
    rows_in = [line.removesuffix(b"\r") for line in data.split(b"\n")[1:-1]]
    rows_out = [line for line in written.split(b"\n")[1:]
                if line and not line.startswith(b"#")]
    assert rows_out == rows_in
