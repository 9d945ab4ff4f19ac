"""DCF timing, UMTS pipeline arithmetic, cloud sampling, routing, and the
fabric's event-free delivery of a media packet's last wait."""

import dataclasses
import math
import statistics

import pytest

from voipsim.netmodels import (
    DROP_BLER_RETX,
    DROP_CLOUD_LOSS,
    DROP_COLLISION_RETRY,
    DROP_QUEUE_OVERFLOW,
    CloudSpec,
    Fabric,
    IpCloud,
    UmtsCell,
    UmtsParams,
    UnknownEndpoint,
    WifiCell,
    WifiParams,
)
from voipsim.runner import run_scenario
from voipsim.scenario import builtin_scenario, validate
from voipsim.simcore import Simulator, millis, seconds
from voipsim.traffic import CODECS, PENDING, MediaStream, count_in_flight

G711 = CODECS["g711"]


class Probe:
    """Callback pair recording deliveries and drops of raw fabric sends."""

    def __init__(self):
        self.delivered = []  # (tag, t_recv)
        self.dropped = []  # (tag, reason)

    def on_end(self, item, t):
        self.delivered.append((item, t))

    def on_fail(self, item, reason):
        self.dropped.append((item, reason))


class TraceRows(list):
    """A fabric's trace_row callable that keeps each row as a tuple."""

    def __call__(self, *row):
        self.append(row)


def wifi_fixture(n_stations=2, **params):
    sim = Simulator(master_seed=7)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0.0))
    fabric = Fabric(sim, cloud)
    cell = WifiCell(sim, "lan", [f"lan-ws{i}" for i in range(1, n_stations + 1)],
                    WifiParams(**params))
    fabric.attach_cell(cell)
    return sim, fabric, cell


def umts_fixture(trace_row=None, **params):
    sim = Simulator(master_seed=7)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0.0))
    fabric = Fabric(sim, cloud, trace_row)
    cell = UmtsCell(sim, "ran", ["ran-ws1", "ran-ws2"], UmtsParams(**params))
    fabric.attach_cell(cell)
    return sim, fabric, cell


# -- WiFi --------------------------------------------------------------------


def test_wifi_exchange_time_components():
    sim, fabric, cell = wifi_fixture()
    # 200 B packet + 58 B overhead at 11 Mbit/s is 187.6 us, rounded to 188;
    # ACK is 14 B at 1 Mbit/s = 112 us
    assert cell.exchange_us(200) == 188 + 10 + 112


@pytest.mark.parametrize("kwargs", [
    {"cw_min": -5}, {"cw_min": 31, "cw_max": 31}, {"slot_us": 0}, {"queue_cap": 0},
    {"retry_limit": 0}, {"sifs_us": -1}, {"difs_us": -1}, {"phy_mac_overhead_bytes": -1},
    {"data_rate_bps": 0}, {"data_rate_bps": -11_000_000},
])
def test_wifi_rejects_degenerate_parameters(kwargs):
    with pytest.raises(ValueError):
        wifi_fixture(**kwargs)


def test_wifi_single_station_service_time():
    sim, fabric, cell = wifi_fixture(n_stations=1)
    probe = Probe()
    n = 2_000
    for k in range(n):
        # spaced far apart: every packet sees an idle medium and a fresh draw
        sim.schedule(k * 10_000, _send_one(fabric, probe, k), kind="feed")
    sim.run_until(seconds(100))
    assert len(probe.delivered) == n
    delays = [t - k * 10_000 for k, t in probe.delivered]
    floor = 50 + 310  # DIFS + exchange, backoff of zero slots
    assert min(delays) >= floor
    assert max(delays) <= floor + 31 * 20
    for d in delays:
        assert (d - floor) % 20 == 0  # slot granularity
    # mean backoff is 15.5 slots of 20 us
    assert abs(statistics.mean(delays) - (floor + 310)) < 15


def _send_one(fabric, probe, tag, src="lan-ws1", dst="proxy", size=200):
    def fire(_):
        fabric.send(tag, size, src, dst, probe.on_end, probe.on_fail)

    return fire


def test_wifi_fifo_per_station():
    sim, fabric, cell = wifi_fixture(n_stations=1)
    probe = Probe()
    for k in range(20):
        sim.schedule(0, _send_one(fabric, probe, k), kind="feed")
    sim.run_until(seconds(1))
    assert [tag for tag, _t in probe.delivered] == list(range(20))


def test_wifi_queue_overflow_drops_excess():
    sim, fabric, cell = wifi_fixture(n_stations=1, queue_cap=50)
    probe = Probe()
    for k in range(60):
        sim.schedule(0, _send_one(fabric, probe, k), kind="feed")
    sim.run_until(seconds(5))
    assert len(probe.dropped) == 10
    assert all(reason == DROP_QUEUE_OVERFLOW for _tag, reason in probe.dropped)
    assert len(probe.delivered) == 50


# Backoff stubs replace WifiCell._below, the cell's draw seam: _below(cw + 1)
# returns a backoff in [0, cw].


def _fixed_draw(n):
    """Backoff source that always picks the same slot: guaranteed collisions."""
    return 3


def test_wifi_repeated_collisions_exhaust_retries():
    sim, fabric, cell = wifi_fixture(n_stations=2, retry_limit=7)
    cell._below = _fixed_draw
    probe = Probe()
    sim.schedule(0, _send_one(fabric, probe, "x", src="lan-ws1"), kind="feed")
    sim.schedule(0, _send_one(fabric, probe, "y", src="lan-ws2"), kind="feed")
    sim.run_until(seconds(5))
    # identical backoff draws collide forever; both heads fall after the limit
    assert sorted(tag for tag, _r in probe.dropped) == ["x", "y"]
    assert all(r == DROP_COLLISION_RETRY for _t, r in probe.dropped)
    assert probe.delivered == []


class _ScriptedDraws:
    """Backoff source replaying a fixed list of draws and logging the window
    cw of each."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.windows = []

    def __call__(self, n):
        self.windows.append(n - 1)
        return self.draws.pop(0)


def test_wifi_mid_round_join_folds_elapsed_slots():
    sim, fabric, cell = wifi_fixture(n_stations=2)
    cell._below = _ScriptedDraws([20, 15])
    probe = Probe()
    sim.schedule(0, _send_one(fabric, probe, "ws1", src="lan-ws1"), kind="feed")
    sim.schedule(250, _send_one(fabric, probe, "ws2", src="lan-ws2"), kind="feed")
    sim.run_until(seconds(1))
    # ws1's round starts after DIFS at 50 us; at 250 us ten slots have
    # elapsed, so ws1 resumes with 10 and ws2 (drawing 15) with 5; ws2 wins
    # at 350 us, and ws1's residual 5 slots follow ws2's exchange and DIFS
    assert probe.delivered == [("ws2", 660), ("ws1", 1120)]


def test_wifi_collision_redraws_in_station_order():
    sim, fabric, cell = wifi_fixture(n_stations=2)
    # three equal first draws collide; the redraws then get 0, 1, 2 slots
    draws = cell._below = _ScriptedDraws([3, 3, 3, 0, 1, 2])
    probe = Probe()
    # fed in reverse station order, all within the first DIFS
    sim.schedule(0, _send_one(fabric, probe, "ap", src="proxy", dst="lan-ws1"), kind="feed")
    sim.schedule(5, _send_one(fabric, probe, "ws2", src="lan-ws2"), kind="feed")
    sim.schedule(10, _send_one(fabric, probe, "ws1", src="lan-ws1"), kind="feed")
    sim.run_until(seconds(1))
    assert draws.windows == [31] * 3 + [63] * 3
    # redraws in station order with the AP last: ws1 got 0, ws2 1, the AP 2
    assert probe.delivered == [("ws1", 780), ("ws2", 1160), ("ap", 1540)]


def _emit_media(sim, fabric, stream, seq):
    """Hand packet seq of stream to the fabric as CallScheduler._emit does."""
    stream.recv.append(PENDING)
    sim.stats.packets_generated += 1
    fabric.send_media(stream, seq)


def lone_media_fixture(backoff, t_send=1_000):
    """One media packet from a lone station to the proxy over a zero-delay
    cloud, with a scripted backoff; returns it with its exact arrival tick,
    DIFS + backoff slots + exchange after it is sent."""
    sim, fabric, cell = wifi_fixture(n_stations=1)
    cell._below = _ScriptedDraws([backoff])
    stream = MediaStream("lan-ws1", "proxy", G711, t0=t_send, n_packets=1)
    sim.schedule(t_send, lambda _: _emit_media(sim, fabric, stream, 0), kind="feed")
    p = cell.params
    arrival = (t_send + p.difs_us + backoff * p.slot_us
               + cell.exchange_us(G711.packet_size_bytes))
    return sim, stream, arrival


@pytest.mark.parametrize("backoff", [0, 1, 7, 31])
def test_wifi_lone_station_arrives_after_difs_backoff_and_exchange(backoff):
    sim, stream, arrival = lone_media_fixture(backoff)
    sim.run_until(seconds(1))
    assert stream.recv[0] == arrival
    # the feed, one DCF round and the exchange's end; the last wait, the
    # 0 us cloud, rides no event of its own
    assert sim.stats.events_processed == 3
    assert sim.stats.packets_delivered == 1
    assert count_in_flight([(stream,)]) == 0


def test_last_wait_ending_at_horizon_is_delivered():
    sim, stream, arrival = lone_media_fixture(7)
    sim.run_until(arrival)
    assert stream.recv[0] == arrival
    assert sim.stats.packets_delivered == 1
    assert count_in_flight([(stream,)]) == 0
    # the exchange ends at t_end, and the 0 us cloud after it is delivered
    # when its wait starts: no event was left for t_end
    assert sim.stats.events_processed == 3
    assert sim.pending_count() == 0


def test_last_wait_ending_past_horizon_stays_in_flight():
    sim, stream, arrival = lone_media_fixture(7)
    sim.run_until(arrival - 1)
    assert stream.recv[0] == PENDING
    assert count_in_flight([(stream,)]) == 1
    assert sim.stats.packets_delivered == 0
    # run_scenario sets the in-flight count from the logs after its run
    sim.stats.packets_in_flight = count_in_flight([(stream,)])
    assert sim.stats.conservation_holds()
    # the exchange's end is an event, due in the next run
    assert sim.pending_count() == 1
    sim.run_until(arrival)
    assert stream.recv[0] == arrival
    assert count_in_flight([(stream,)]) == 0


def test_non_media_last_wait_keeps_its_event():
    sim, fabric, cell = wifi_fixture(n_stations=1)
    cell._below = _ScriptedDraws([7])
    probe = Probe()
    sim.schedule(1_000, _send_one(fabric, probe, "sip"), kind="feed")
    sim.run_until(seconds(1))
    assert probe.delivered == [("sip", 1_000 + 50 + 7 * 20 + cell.exchange_us(200))]
    # feed, DCF round, the exchange's end and the 0 us cloud's delivery
    # event that a SIP callback needs
    assert sim.stats.events_processed == 4


def test_hold_outside_run_until_schedules_an_event():
    sim = Simulator(master_seed=1)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=millis(30), jitter_half_width_us=0,
                                   loss_prob=0))
    fabric = Fabric(sim, cloud)
    # the fixed cloud is the whole proxy-to-proxy path, so entering it holds
    stream = MediaStream("proxy", "proxy", G711, t0=0, n_packets=2)
    _emit_media(sim, fabric, stream, 0)  # before any run_until
    assert stream.recv[0] == PENDING
    assert sim.pending_count() == 1
    sim.run_until(millis(10))
    _emit_media(sim, fabric, stream, 1)  # between runs, at 10 ms
    assert stream.recv[1] == PENDING
    assert sim.pending_count() == 2
    sim.run_until(seconds(1))
    assert list(stream.recv) == [millis(30), millis(40)]
    assert sim.stats.events_processed == 2


def _wifi_run(monkeypatch=None, step_us=None):
    """A 120 s wifi-wifi run, in one run_until or (with step_us) in many."""
    if step_us is not None:
        whole = Simulator.run_until

        def run_in_steps(sim, t_end):
            for t in range(step_us, t_end, step_us):
                whole(sim, t)
            return whole(sim, t_end)

        monkeypatch.setattr(Simulator, "run_until", run_in_steps)
    spec = validate(dataclasses.replace(builtin_scenario("wifi-wifi"),
                                        run_length_us=seconds(120), warm_up_us=0))
    out = run_scenario(spec, seed=1)
    logs = [s.recv.tobytes() for pair in out.calls for s in pair]
    return out, logs


def test_split_run_equals_one_run(monkeypatch):
    one, one_logs = _wifi_run()
    split, split_logs = _wifi_run(monkeypatch, step_us=999_983)
    assert one.stats.packets_generated > 0
    assert split_logs == one_logs
    assert split.buckets_by_direction == one.buckets_by_direction
    stats_one = dataclasses.asdict(one.stats)
    stats_split = dataclasses.asdict(split.stats)
    # some last waits straddled a step's horizon, and those took an event
    assert stats_split.pop("events_processed") > stats_one.pop("events_processed")
    assert stats_split == stats_one


class _CountingDraws:
    """Wraps a cell's backoff source and counts the draws taken from it."""

    def __init__(self, below):
        self.below = below
        self.draws = 0

    def __call__(self, n):
        self.draws += 1
        return self.below(n)


def bianchi_collision_probability(n, w=32, m=5):
    """Bianchi's saturation fixed point (IEEE JSAC 18(3), 2000): the
    per-attempt collision probability p among n contenders, where
    tau = 2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m)) and p = 1-(1-tau)^(n-1).
    tau is taken with the factor (1-2p) divided out, which is finite at
    p = 1/2; p - (1-(1-tau)^(n-1)) increases in p, so bisection finds it."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        p = (lo + hi) / 2
        tau = 2 / (w + 1 + p * w * sum((2 * p) ** i for i in range(m)))
        if p > 1 - (1 - tau) ** (n - 1):
            hi = p
        else:
            lo = p
    return (lo + hi) / 2


def saturated_collision_probability(n, seed, run_s):
    """Collided attempts over all attempts when n stations always have a
    frame.  Every backoff draw ends in one attempt, except the n draws still
    counting down at the end; every successful attempt is one delivery,
    except at most one exchange still on the air."""
    sim = Simulator(master_seed=seed)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    stations = [f"lan-ws{i}" for i in range(1, n + 1)]
    cell = WifiCell(sim, "lan", stations)
    fabric.attach_cell(cell)
    counter = cell._below = _CountingDraws(cell._below)
    delivered = 0

    def send(src):
        fabric.send(src, 200, src, "proxy", on_end, on_fail)

    def on_end(src, _t):
        nonlocal delivered
        delivered += 1
        send(src)

    def on_fail(src, _reason):
        send(src)

    for ws in stations:
        send(ws)  # two frames each: the queue never runs dry
        send(ws)
    sim.run_until(seconds(run_s))
    attempts = counter.draws - n
    return 1 - delivered / attempts


@pytest.mark.parametrize("n, p_fixed_point", [(5, 0.178), (10, 0.290)])
def test_wifi_saturation_matches_bianchi(n, p_fixed_point):
    expected = bianchi_collision_probability(n)
    assert expected == pytest.approx(p_fixed_point, abs=5e-4)
    measured = saturated_collision_probability(n, seed=3, run_s=20)
    assert measured == pytest.approx(expected, rel=0.05)


def test_wifi_contention_widens_delay_spread():
    def spread(n_stations, seed):
        sim = Simulator(master_seed=seed)
        cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0))
        fabric = Fabric(sim, cloud)
        stations = [f"lan-ws{i}" for i in range(1, n_stations + 1)]
        fabric.attach_cell(WifiCell(sim, "lan", stations))
        probe = Probe()
        seq = 0
        for t in range(0, 2_000_000, 5_000):  # each station, a packet per 5 ms
            for ws in stations:
                sim.schedule(t, _send_one(fabric, probe, (seq, t), src=ws), kind="feed")
                seq += 1
        sim.run_until(seconds(30))
        delays = [t_recv - t_sent for (tag, t_sent), t_recv in probe.delivered]
        return max(delays) - min(delays), len(probe.delivered)

    lone, _ = spread(1, 11)
    crowded, delivered = spread(8, 11)
    assert delivered > 0
    assert crowded > lone


# -- UMTS --------------------------------------------------------------------


class _AttemptRng:
    """BLER source failing the first k attempts, then succeeding."""

    def __init__(self, k):
        self.k = k
        self.calls = 0

    def random(self):
        self.calls += 1
        return 0.0 if self.calls <= self.k else 0.99


@pytest.mark.parametrize("kwargs", [
    {"tti_us": 0}, {"queue_cap": 0}, {"max_rlc_retx": -1}, {"bler": 1.0},
])
def test_umts_rejects_degenerate_parameters(kwargs):
    with pytest.raises(ValueError):
        umts_fixture(**kwargs)


def test_umts_lone_packet_on_boundary_is_pipeline_sum():
    tracer = TraceRows()
    sim, fabric, cell = umts_fixture(trace_row=tracer, bler=0.0)
    probe = Probe()
    sim.schedule(0, _send_one(fabric, probe, "p", src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    # TTI serialize + interleave + NodeB-RNC + RNC + CN = 10+40+15+25+25 ms
    assert probe.delivered == [("p", millis(115))]
    segs = [r for r in tracer if r[0] == 0]
    assert [s[1] for s in segs] == ["umts-air-up:ran", "umts-utran-cn-up:ran", "cloud"]
    assert sum(egress - ingress for _p, _s, ingress, egress, _r in segs) == millis(115)
    air = segs[0]
    assert air[3] - air[2] == millis(10)


def test_umts_off_boundary_waits_for_next_tti():
    sim, fabric, cell = umts_fixture(bler=0.0)
    probe = Probe()
    sim.schedule(3_000, _send_one(fabric, probe, "p", src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    # departs the air at the 20 ms boundary, so 7 ms of slack joins the 115
    assert probe.delivered == [("p", 3_000 + millis(115) + 7_000)]


def test_umts_bler_one_drops_every_packet():
    sim, fabric, cell = umts_fixture(bler=0.5, max_rlc_retx=2)
    cell._rng = _AttemptRng(math.inf)  # every attempt fails
    probe = Probe()
    sim.schedule(0, _send_one(fabric, probe, "p", src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    assert probe.delivered == []
    assert probe.dropped == [("p", DROP_BLER_RETX)]


def test_umts_each_retransmission_adds_one_tti():
    sim, fabric, cell = umts_fixture(bler=0.5, max_rlc_retx=2)
    cell._rng = _AttemptRng(math.inf)  # every attempt fails
    drop_times = []
    orig = fabric.segment_drop

    def spy(env, reason):
        drop_times.append(sim.now)
        orig(env, reason)

    fabric.segment_drop = spy
    probe = Probe()
    sim.schedule(0, _send_one(fabric, probe, "p", src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    # initial attempt ends at 10 ms; two retransmissions add one TTI each
    assert drop_times == [millis(30)]


def test_umts_queue_overflow():
    sim, fabric, cell = umts_fixture(bler=0.0, queue_cap=50)
    probe = Probe()
    for k in range(60):
        sim.schedule(0, _send_one(fabric, probe, k, src="ran-ws1"), kind="feed")
    sim.run_until(seconds(10))
    assert len(probe.dropped) == 9  # one serving + 50 queued fit
    assert all(r == DROP_QUEUE_OVERFLOW for _t, r in probe.dropped)
    assert len(probe.delivered) == 51


def test_umts_fifo_and_tti_spacing():
    sim, fabric, cell = umts_fixture(bler=0.0)
    probe = Probe()
    for k in range(5):
        sim.schedule(0, _send_one(fabric, probe, k, src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    tags = [tag for tag, _t in probe.delivered]
    assert tags == list(range(5))
    times = [t for _tag, t in probe.delivered]
    assert [b - a for a, b in zip(times, times[1:])] == [millis(10)] * 4


@pytest.mark.parametrize("k", range(UmtsParams().max_rlc_retx + 1))
def test_umts_queued_packet_starts_one_tti_after_the_last_attempt(k):
    tracer = TraceRows()
    sim, fabric, cell = umts_fixture(trace_row=tracer, bler=0.5)
    cell._rng = _AttemptRng(k)  # the first packet fails k times, then all succeed
    probe = Probe()
    for tag in ("first", "second"):
        sim.schedule(3_000, _send_one(fabric, probe, tag, src="ran-ws1"), kind="feed")
    sim.run_until(seconds(1))
    assert [tag for tag, _t in probe.delivered] == ["first", "second"]
    assert cell._rng.calls == k + 2
    air_end = {pid: egress for pid, label, _ingress, egress, _reason in tracer
               if label == "umts-air-up:ran"}
    # from the 10 ms boundary after 3 ms, the first packet's k + 1 attempts
    # take a TTI each, and the second's single attempt the TTI after them
    assert air_end == {0: millis(10) + (k + 1) * millis(10),
                       1: millis(10) + (k + 2) * millis(10)}


def umts_pair_fixture(trace_row=None, *, up_bler, cloud_us=millis(30), seed=7):
    """Two UMTS cells over a fixed cloud; the downlink cell never fails, and
    its CN delay puts downlink arrivals off the TTI grid."""
    sim = Simulator(master_seed=seed)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=cloud_us, jitter_half_width_us=0, loss_prob=0.0))
    fabric = Fabric(sim, cloud, trace_row)
    up = UmtsCell(sim, "a", ["a-ws1"], UmtsParams(bler=up_bler, max_rlc_retx=2))
    down = UmtsCell(sim, "b", ["b-ws1"], UmtsParams(bler=0.0, cn_delay_us=25_300))
    fabric.attach_cell(up)
    fabric.attach_cell(down)
    return sim, fabric, up, down


def umts_oracle_delivery(t_send, k, up, cloud_us, down):
    """TTI alignment + (k+1) TTIs + pipe + cloud + pipe + downlink air: an
    air link's first attempt starts at the first TTI boundary at or after
    the packet reaches it."""
    tti_up, tti_down = up.params.tti_us, down.params.tti_us
    t_air_up = t_send + (-t_send) % tti_up + (k + 1) * tti_up
    t_down = t_air_up + up.params.pipe_us + cloud_us + down.params.pipe_us
    return t_down + (-t_down) % tti_down + tti_down


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_umts_pair_delivery_matches_analytic_oracle(k):
    sim, fabric, up, down = umts_pair_fixture(up_bler=0.5)
    up._rng = _AttemptRng(k)
    probe = Probe()
    t_send = 3_000
    sim.schedule(t_send, _send_one(fabric, probe, "p", src="a-ws1", dst="b-ws1"),
                 kind="feed")
    sim.run_until(seconds(2))
    assert up._rng.calls == min(k + 1, up.params.max_rlc_retx + 1)
    if k > up.params.max_rlc_retx:
        assert probe.dropped == [("p", DROP_BLER_RETX)]
        assert probe.delivered == []
        return
    assert probe.delivered == [("p", umts_oracle_delivery(t_send, k, up, millis(30), down))]
    # feed + (k+1) uplink attempts + one event for pipe, cloud and pipe + downlink air
    assert sim.stats.events_processed == 1 + (k + 1) + 1 + 1


def test_umts_pair_loss_matches_bler_power():
    bler, n = 0.3, 20_000
    sim, fabric, up, down = umts_pair_fixture(up_bler=bler)
    probe = Probe()
    for i in range(n):
        # one packet per 40 ms: each finishes its three TTIs before the next
        sim.schedule(i * 40_000 + 3_000,
                     _send_one(fabric, probe, i, src="a-ws1", dst="b-ws1"), kind="feed")
    sim.run_until(seconds(n * 0.04 + 1))
    assert len(probe.delivered) + len(probe.dropped) == n
    assert all(reason == DROP_BLER_RETX for _i, reason in probe.dropped)
    p = bler ** (up.params.max_rlc_retx + 1)
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(len(probe.dropped) / n - p) <= 4 * sigma
    # every delivery is the oracle's time for some whole number of retries
    oracle = {umts_oracle_delivery(3_000, k, up, millis(30), down) - 3_000: k
              for k in range(up.params.max_rlc_retx + 1)}
    for i, t_recv in probe.delivered:
        assert t_recv - i * 40_000 - 3_000 in oracle


# -- cloud -------------------------------------------------------------------


def test_cloud_constant_when_width_zero():
    sim = Simulator(master_seed=1)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=millis(30), jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    probe = Probe()
    for k in range(100):
        sim.schedule(k * 1_000, _send_one(fabric, probe, k, src="proxy", dst="proxy"),
                     kind="feed")
    sim.run_until(seconds(1))
    assert all(t - k * 1_000 == millis(30) for k, t in probe.delivered)


def test_cloud_uniform_delay_sampling():
    sim = Simulator(master_seed=2)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=millis(30),
                                   jitter_half_width_us=millis(5), loss_prob=0))
    fabric = Fabric(sim, cloud)
    probe = Probe()
    n = 100_000
    for k in range(n):
        sim.schedule(0, _send_one(fabric, probe, k, src="proxy", dst="proxy"),
                     kind="feed")
    sim.run_until(seconds(1))
    delays = [t for _k, t in probe.delivered]
    assert len(delays) == n
    assert min(delays) >= millis(25)
    assert max(delays) <= millis(35)
    assert abs(statistics.mean(delays) - millis(30)) < millis(30) * 0.003


def test_cloud_loss_rate_binomial():
    sim = Simulator(master_seed=3)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0.02))
    fabric = Fabric(sim, cloud)
    probe = Probe()
    n = 100_000
    for k in range(n):
        sim.schedule(0, _send_one(fabric, probe, k, src="proxy", dst="proxy"),
                     kind="feed")
    sim.run_until(seconds(1))
    assert all(r == DROP_CLOUD_LOSS for _t, r in probe.dropped)
    fraction = len(probe.delivered) / n
    assert abs(fraction - 0.98) < 0.003


def test_cloud_rejects_negative_delay_range():
    sim = Simulator()
    with pytest.raises(ValueError):
        IpCloud(sim, CloudSpec(base_delay_us=millis(3), jitter_half_width_us=millis(5)))


# -- routing -----------------------------------------------------------------


def build_mixed_fabric():
    sim = Simulator(master_seed=9)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=millis(30), jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    fabric.attach_cell(WifiCell(sim, "west", ["west-ws1", "west-ws2"]))
    fabric.attach_cell(UmtsCell(sim, "east", ["east-ws1", "east-ws2"]))
    return sim, fabric


def test_route_wifi_to_wifi_is_three_segments():
    sim = Simulator(master_seed=9)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    fabric.attach_cell(WifiCell(sim, "a", ["a-ws1"]))
    fabric.attach_cell(WifiCell(sim, "b", ["b-ws1"]))
    assert fabric.route("a-ws1", "b-ws1") == ["wifi-up:a", "cloud", "wifi-down:b"]


def test_route_mixed_is_asymmetric():
    sim, fabric = build_mixed_fabric()
    out = fabric.route("west-ws1", "east-ws1")
    back = fabric.route("east-ws1", "west-ws1")
    assert out == ["wifi-up:west", "cloud", "umts-cn-utran-down:east",
                   "umts-air-down:east"]
    assert back == ["umts-air-up:east", "umts-utran-cn-up:east", "cloud",
                    "wifi-down:west"]


def test_route_umts_to_umts():
    sim = Simulator(master_seed=9)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    fabric.attach_cell(UmtsCell(sim, "a", ["a-ws1"]))
    fabric.attach_cell(UmtsCell(sim, "b", ["b-ws1"]))
    assert fabric.route("a-ws1", "b-ws1") == [
        "umts-air-up:a", "umts-utran-cn-up:a", "cloud",
        "umts-cn-utran-down:b", "umts-air-down:b"]


def test_route_intra_cell_skips_cloud():
    sim = Simulator(master_seed=9)
    cloud = IpCloud(sim, CloudSpec(base_delay_us=0, jitter_half_width_us=0, loss_prob=0))
    fabric = Fabric(sim, cloud)
    fabric.attach_cell(WifiCell(sim, "a", ["a-ws1", "a-ws2"]))
    assert fabric.route("a-ws1", "a-ws2") == ["wifi-up:a", "wifi-down:a"]


def test_route_unknown_endpoint():
    sim, fabric = build_mixed_fabric()
    with pytest.raises(UnknownEndpoint):
        fabric.route("west-ws1", "nowhere")


def test_proxy_reachable_from_both_sides():
    sim, fabric = build_mixed_fabric()
    assert fabric.route("west-ws1", "proxy") == ["wifi-up:west", "cloud"]
    assert fabric.route("proxy", "east-ws1") == [
        "cloud", "umts-cn-utran-down:east", "umts-air-down:east"]


def test_segment_times_are_contiguous_and_ordered():
    sim = Simulator(master_seed=4)
    tracer = TraceRows()
    cloud = IpCloud(sim, CloudSpec(base_delay_us=millis(30),
                                   jitter_half_width_us=millis(2), loss_prob=0))
    fabric = Fabric(sim, cloud, tracer)
    fabric.attach_cell(WifiCell(sim, "west", ["west-ws1"]))
    fabric.attach_cell(UmtsCell(sim, "east", ["east-ws1"], UmtsParams(bler=0.3, max_rlc_retx=3)))
    probe = Probe()
    for k in range(200):
        sim.schedule(k * 20_000, _send_one(fabric, probe, k, src="west-ws1",
                                           dst="east-ws1"), kind="feed")
    sim.run_until(seconds(30))
    assert probe.delivered
    by_pid = {}
    for row in tracer:
        by_pid.setdefault(row[0], []).append(row)
    for pid, rows in by_pid.items():
        for (_, _, ing1, eg1, _), (_, _, ing2, eg2, _) in zip(rows, rows[1:]):
            assert eg1 == ing2  # handoff happens at a single instant
        for _, _, ingress, egress, _ in rows:
            assert egress >= ingress
    # delivered packets' path duration equals delivery minus send, exactly
    for tag, t_recv in probe.delivered:
        rows = by_pid[tag]
        assert rows[-1][3] - rows[0][2] == t_recv - tag * 20_000
        assert sum(eg - ing for _, _, ing, eg, _ in rows) == t_recv - tag * 20_000


def test_folded_umts_pair_keeps_one_trace_row_per_segment():
    tracer = TraceRows()
    sim, fabric, up, down = umts_pair_fixture(tracer, up_bler=0.0)
    probe = Probe()
    sim.schedule(3_000, _send_one(fabric, probe, "p", src="a-ws1", dst="b-ws1"),
                 kind="feed")
    sim.run_until(seconds(1))
    [(_tag, t_recv)] = probe.delivered
    rows = [r for r in tracer if r[0] == 0]
    assert [r[1] for r in rows] == fabric.route("a-ws1", "b-ws1")
    for (_, _, _, eg1, _), (_, _, ing2, _, _) in zip(rows, rows[1:]):
        assert eg1 == ing2
    assert rows[0][2] == 3_000 and rows[-1][3] == t_recv
    assert sum(eg - ing for _, _, ing, eg, _ in rows) == t_recv - 3_000
    assert [eg - ing for _, _, ing, eg, _ in rows[1:4]] == [
        up.params.pipe_us, millis(30), down.params.pipe_us]
