"""Property: every scenario that passes validate() runs to the end.

Specs are drawn for both subnet kinds with at most four stations and runs of
at most a minute.  One to three keys per spec take an edge value (zero or
negative) instead of an ordinary one; validation must either reject the spec
or the run must finish without a handler fault and with every packet
accounted for.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from voipsim.runner import run_scenario
from voipsim.scenario import (
    CallSpec,
    CloudSpec,
    ScenarioSpec,
    SubnetSpec,
    UmtsParams,
    ValidationError,
    WifiParams,
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
