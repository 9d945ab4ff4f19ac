"""Registration, the INVITE handshake, teardown and timeouts; the one
discard rule for a message that arrives in a state that does not expect it,
checked on every delivery plan; and the setup delay, bounded on random paths
and exact on a deterministic one."""

import itertools
from collections import Counter
from dataclasses import replace

import pytest

from voipsim.runner import run_scenario
from voipsim.scenario import (
    CloudSpec,
    ScenarioSpec,
    SubnetSpec,
    UmtsParams,
    WifiParams,
    builtin_scenario,
    least_setup_us,
    validate,
)
from voipsim.signaling import (
    ACK,
    CLOSED,
    ESTABLISHED,
    INVITE,
    INVITING,
    PROXY_PROC_US,
    RINGING,
    RINGING_180,
    TERMINATING,
    CalleeUnregistered,
    SessionLayer,
    SipError,
    SipMessage,
)
from voipsim.simcore import Simulator, seconds
from voipsim.traffic import CallSpec


class ZeroFabric:
    """Delivers every message after zero ticks."""

    def __init__(self, sim):
        self.sim = sim

    def send(self, item, size_bytes, src, dst, on_end, on_fail):
        self.sim.schedule(self.sim.now, self._arrive, (item, on_end))

    def _arrive(self, arg):
        item, on_end = arg
        on_end(item, self.sim.now)


class BlackholeFabric:
    """Loses every message; useful for timeout paths."""

    def __init__(self, sim):
        self.sim = sim

    def send(self, item, size_bytes, src, dst, on_end, on_fail):
        self.sim.schedule(self.sim.now, lambda _: on_fail(item, "cloud-loss"))


class ScriptedFabric(ZeroFabric):
    """Delivers each message after a fixed per-kind delay on every leg."""

    def __init__(self, sim, delays):
        super().__init__(sim)
        self.delays = delays

    def send(self, item, size_bytes, src, dst, on_end, on_fail):
        self.sim.schedule(self.sim.now + self.delays.get(item.kind, 0), self._arrive,
                          (item, on_end))


def make_layer(sim, fabric, log=None, **kwargs):
    """A layer over fabric that logs its transitions into the list log (by
    default one it throws away)."""
    kwargs.setdefault("answer_delay_us", 0)
    log = [] if log is None else log
    layer = SessionLayer(sim, fabric, CallSpec(**kwargs), session_log=log.append)
    layer.register_all(["a", "b", "c"])
    return layer


# -- registry ----------------------------------------------------------------


def test_reregistration_is_idempotent():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    layer.register_all(["a", "b", "d"])
    assert layer.registered == {"a", "b", "c", "d"}
    session = layer.initiate("a", "d", None, None)
    # one proxy relay each for the INVITE, the 200 and the ACK
    sim.run_until(3 * PROXY_PROC_US)
    assert session.state == ESTABLISHED


# -- handshake ---------------------------------------------------------------


def test_zero_latency_establishes_at_invite_time():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    done = []
    session = layer.initiate("a", "b", on_established=done.append,
                             on_closed=lambda s: None)
    sim.run_until(seconds(1))
    assert done == [session]
    assert session.state == ESTABLISHED
    # zero transport: only the INVITE, 200 and ACK relays at the proxy
    assert session.t_established == session.t_invite + 3 * PROXY_PROC_US
    # exactly one INVITE/180/200/ACK quadruple
    assert sim.stats.sip_messages_sent == 4
    assert sim.stats.sip_messages_delivered == 4


def test_answer_delay_shifts_establishment():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim), answer_delay_us=seconds(2))
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(seconds(5))
    assert session.state == ESTABLISHED
    assert session.t_established == session.t_invite + seconds(2) + 3 * PROXY_PROC_US


def test_full_lifecycle_transitions_logged():
    sim = Simulator()
    log = []
    layer = make_layer(sim, ZeroFabric(sim), log)
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(seconds(1))
    layer.teardown(session)
    sim.run_until(seconds(2))
    assert session.state == CLOSED
    assert all(line.endswith("\n") for line in log)
    states = [line.split()[2] for line in log]
    assert states == [
        "Idle→Inviting",
        "Inviting→Ringing",
        "Ringing→Established",
        "Established→Terminating",
        "Terminating→Closed",
    ]
    for line in log:
        ticks, sid, _move = line.split()
        assert ticks.isdigit() and sid == str(session.session_id)
    # BYE and its 200 on top of the setup quadruple
    assert sim.stats.sip_messages_sent == 6


@pytest.mark.parametrize("delays, state_at_late_180", [
    ({RINGING_180: 5_000}, ESTABLISHED),
    ({RINGING_180: 5_000, ACK: 20_000}, RINGING),
])
def test_late_180_after_200_is_ignored(delays, state_at_late_180):
    # answer at once while the 180 is held back: the caller sees the 200
    # first, and the 180 then arrives after the final response
    sim = Simulator()
    log = []
    layer = make_layer(sim, ScriptedFabric(sim, delays), log)
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(9_999)
    assert session.state == state_at_late_180
    sim.run_until(seconds(1))
    assert session.state == ESTABLISHED
    assert sim.stats.calls_failed_setup == 0
    assert sim.stats.sip_messages_delivered == 4
    assert [line.split()[2] for line in log] == [
        "Idle→Inviting", "Inviting→Ringing", "Ringing→Established"]


def test_callee_unregistered_rejected():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    with pytest.raises(CalleeUnregistered):
        layer.initiate("a", "ghost", on_established=lambda s: None,
                       on_closed=lambda s: None)


def test_unregistered_caller_rejected():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    with pytest.raises(SipError, match="caller ghost is not registered"):
        layer.initiate("ghost", "b", on_established=lambda s: None,
                       on_closed=lambda s: None)


def test_invite_timeout_closes_and_counts():
    sim = Simulator()
    layer = make_layer(sim, BlackholeFabric(sim), invite_timeout_us=seconds(32))
    closed = []
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=closed.append)
    sim.run_until(seconds(31))
    assert session.state == INVITING
    assert not closed
    sim.run_until(seconds(33))
    assert session.state == CLOSED
    assert closed == [session]
    assert sim.stats.calls_failed_setup == 1
    # the pair is free again
    layer.initiate("a", "b", on_established=lambda s: None, on_closed=lambda s: None)


def test_lost_bye_still_closes_via_timeout():
    sim = Simulator()
    fabric = ZeroFabric(sim)
    layer = make_layer(sim, fabric, invite_timeout_us=seconds(32))
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(seconds(1))
    assert session.state == ESTABLISHED
    layer.fabric = BlackholeFabric(sim)  # every message from now on is lost
    layer.teardown(session)
    assert session.state == TERMINATING
    sim.run_until(seconds(40))
    assert session.state == CLOSED


def test_teardown_of_closed_session_is_noop():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(seconds(1))
    layer.teardown(session)
    sim.run_until(seconds(2))
    assert session.state == CLOSED
    layer.teardown(session)  # must not raise or reopen
    assert session.state == CLOSED


def test_teardown_before_establishment_rejected():
    sim = Simulator()
    layer = make_layer(sim, BlackholeFabric(sim))
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    with pytest.raises(SipError):
        layer.teardown(session)


def test_replayed_invite_is_discarded():
    # the model sends each message once, so only a forged copy arrives in a
    # state that does not expect it
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    closed = []
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=closed.append)
    sim.run_until(seconds(1))
    assert session.state == ESTABLISHED
    layer._deliver(SipMessage(INVITE, session, "b"), sim.now)
    sim.run_until(seconds(2))
    assert session.state == ESTABLISHED
    assert sim.stats.calls_failed_setup == 0
    assert not closed


def test_message_in_closed_session_is_ignored():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    session = layer.initiate("a", "b", on_established=lambda s: None,
                             on_closed=lambda s: None)
    sim.run_until(seconds(1))
    layer.teardown(session)
    sim.run_until(seconds(2))
    before = sim.stats.calls_failed_setup
    layer._deliver(SipMessage(INVITE, session, "b"), sim.now)
    assert session.state == CLOSED
    assert sim.stats.calls_failed_setup == before


def test_every_session_closed_audit():
    sim = Simulator()
    layer = make_layer(sim, ZeroFabric(sim))
    s1 = layer.initiate("a", "b", on_established=lambda s: None,
                        on_closed=lambda s: None)
    sim.run_until(seconds(1))
    assert not all(s.state == CLOSED for s in layer.sessions)
    layer.teardown(s1)
    sim.run_until(seconds(2))
    assert all(s.state == CLOSED for s in layer.sessions)


# -- every delivery plan -------------------------------------------------------

PLAN_ANSWER_US = 10_000
PLAN_TIMER_US = seconds(2)
PLAN_BYE_AFTER_US = 20_000  # teardown this long after establishment
LOST = None
PLAN_SENDS = 7
# an INVITE whose first leg takes NEAR_TIMER_US reaches the callee half an
# answer delay before the timer, so the timer closes the session while the
# answer is pending
NEAR_TIMER_US = PLAN_TIMER_US - PLAN_ANSWER_US // 2 - PROXY_PROC_US
PLAN_DELAYS = (0, 40_000, NEAR_TIMER_US, seconds(5), LOST)


class PlanFabric(ZeroFabric):
    """Gives the n-th send the n-th delay of plan, or loses it; a send past
    the end of the plan arrives at once."""

    def __init__(self, sim, plan):
        super().__init__(sim)
        self.plan = plan
        self.sends = 0

    def send(self, item, size_bytes, src, dst, on_end, on_fail):
        delay = self.plan[self.sends] if self.sends < len(self.plan) else 0
        self.sends += 1
        if delay is LOST:
            self.sim.schedule(self.sim.now, lambda _: on_fail(item, "cloud-loss"))
        else:
            self.sim.schedule(self.sim.now + delay, self._arrive, (item, on_end))


class CancelCountingSimulator(Simulator):
    def __init__(self):
        super().__init__()
        self.cancelled = Counter()

    def cancel(self, entry):
        self.cancelled[entry[2]] += 1
        return super().cancel(entry)


def test_every_delivery_plan_closes_the_session_once():
    # each of the first PLAN_SENDS legs (caller or callee to the proxy, or
    # the proxy on) is delivered after one of PLAN_DELAYS or lost: 5^7 plans
    # of reordered, late and lost INVITE, 180, 200, ACK, BYE and its 200
    outcomes = Counter()
    answers_cancelled = 0
    for plan in itertools.product(PLAN_DELAYS, repeat=PLAN_SENDS):
        sim = CancelCountingSimulator()
        layer = make_layer(sim, PlanFabric(sim, plan), answer_delay_us=PLAN_ANSWER_US,
                           invite_timeout_us=PLAN_TIMER_US)
        established, closed = [], []

        def on_established(session):
            established.append(session)
            sim.schedule(sim.now + PLAN_BYE_AFTER_US, layer.teardown, session)

        session = layer.initiate("a", "b", on_established, closed.append)
        sim.run_until(seconds(60))
        assert session.state == CLOSED, plan
        assert closed == [session], plan
        assert sim.stats.calls_failed_setup + len(established) == 1, plan
        assert sim.pending_count() == 0, plan
        outcomes[len(established)] += 1
        answers_cancelled += sim.cancelled["sip-answer"]
    assert sum(outcomes.values()) == len(PLAN_DELAYS) ** PLAN_SENDS
    assert outcomes[0] and outcomes[1]
    assert answers_cancelled


# -- the validated setup bound -------------------------------------------------

CALL_STORM = ScenarioSpec(
    name="storm",
    subnets=(SubnetSpec("wlan", WifiParams(), 32),
             SubnetSpec("cell", UmtsParams(bler=0.1, max_rlc_retx=2), 32)),
    cloud=CloudSpec(base_delay_us=30_000, jitter_half_width_us=5_000, loss_prob=0.01),
    calls=CallSpec(inter_arrival_us=100_000, duration_mean_us=200_000,
                   caller_subnet="wlan", callee_subnet="cell"),
    codec="g729",
    run_length_us=seconds(60),
    warm_up_us=0,
)


@pytest.mark.parametrize("spec", [
    CALL_STORM,
    replace(builtin_scenario("umts-umts"), run_length_us=seconds(600)),
], ids=["call-storm", "umts-umts"])
def test_no_session_sets_up_faster_than_the_validated_bound(spec):
    spec = validate(spec)
    bound = least_setup_us(spec)
    layer = run_scenario(spec).session_layer
    setups = [s.t_established - s.t_invite for s in layer.sessions
              if s.t_established is not None]
    assert setups, "expected established sessions"
    assert min(setups) >= bound


def test_setup_delay_is_exact_on_a_deterministic_path():
    # error-free UMTS on both sides and a cloud that neither jitters nor
    # loses: every SIP transit is TTI alignment plus fixed delays
    # TTIs that divide none of the fixed delays, so a delay missed or counted
    # twice moves the arrival across a TTI boundary
    caller = UmtsParams(bler=0.0, tti_us=7_000)
    callee = UmtsParams(bler=0.0, tti_us=3_000, cn_delay_us=17_000)
    spec = validate(ScenarioSpec(
        name="lone-pair",
        subnets=(SubnetSpec("near", caller, 1), SubnetSpec("far", callee, 1)),
        cloud=CloudSpec(base_delay_us=30_123, jitter_half_width_us=0, loss_prob=0.0),
        calls=CallSpec(inter_arrival_us=seconds(4), duration_mean_us=seconds(3),
                       caller_subnet="near", callee_subnet="far",
                       answer_delay_us=1_234_567),
        run_length_us=seconds(300),
        warm_up_us=0,
    ))
    cloud_us = spec.cloud.base_delay_us

    def air(t, p):
        # a packet on an idle bearer waits for the next TTI boundary, then
        # one TTI on the air
        return t + (-t) % p.tti_us + p.tti_us

    def transit(t, src, dst):
        at_proxy = air(t, src) + src.pipe_us + cloud_us
        return air(at_proxy + PROXY_PROC_US + cloud_us + dst.pipe_us, dst)

    sessions = [s for s in run_scenario(spec).session_layer.sessions
                if s.t_established is not None]
    assert len(sessions) >= 20
    for s in sessions:
        invite_in = transit(s.t_invite, caller, callee)
        ok_in = transit(invite_in + spec.calls.answer_delay_us, callee, caller)
        assert s.t_established == transit(ok_in, caller, callee)
