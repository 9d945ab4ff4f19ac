"""Codec table consistency, arrival/duration sampling, call and stream pacing."""

import math
from types import SimpleNamespace

import pytest

from voipsim import traffic
from voipsim.simcore import US_PER_S, Simulator, exp_sample, seconds
from voipsim.traffic import (
    CODECS,
    IP_UDP_RTP_OVERHEAD_BYTES,
    PENDING,
    CallScheduler,
    CallSpec,
    CodecProfile,
    count_in_flight,
)


def test_codec_table_is_internally_consistent():
    for key, codec in CODECS.items():
        assert codec.payload_bytes * 8 * US_PER_S == codec.bitrate_bps * codec.frame_interval_us
        assert codec.ie >= 0
        assert codec.bpl > 0
        assert codec.codec_delay_us >= 0


def test_default_codec_framing():
    g711 = CODECS["g711"]
    assert g711.bitrate_bps == 64_000
    assert g711.frame_interval_us == 20_000
    assert g711.payload_bytes == 160
    assert g711.ie == 0.0
    assert g711.bpl == 4.3
    assert g711.packet_size_bytes == 160 + IP_UDP_RTP_OVERHEAD_BYTES


def test_codec_rejects_inconsistent_framing():
    with pytest.raises(ValueError):
        CodecProfile(name="broken", bitrate_bps=64_000, frame_interval_us=20_000,
                     payload_bytes=100, ie=0, bpl=4.3,
                     encode_delay_us=0, decode_delay_us=0)


def test_codec_rejects_negative_impairment():
    with pytest.raises(ValueError):
        CodecProfile(name="broken", bitrate_bps=8_000, frame_interval_us=20_000,
                     payload_bytes=20, ie=-1, bpl=19,
                     encode_delay_us=0, decode_delay_us=0)


def test_arrival_rate_matches_configured_mean():
    # brute-force: with a 60 s mean, arrivals per hour over 10,000 simulated
    # hours must come out at 60 within 2%
    sim = Simulator(master_seed=99)
    rng = sim.rng.stream("call-arrivals:probe")
    horizon = 10_000 * 3_600 * US_PER_S
    mean = 60 * US_PER_S
    t = 0
    count = 0
    while True:
        t += exp_sample(rng, mean)
        if t > horizon:
            break
        count += 1
    per_hour = count / 10_000
    assert abs(per_hour - 60) / 60 < 0.02


def test_duration_sampling_mean():
    sim = Simulator(master_seed=5)
    rng = sim.rng.stream("probe")
    mean = 180 * US_PER_S
    draws = [exp_sample(rng, mean) for _ in range(100_000)]
    assert abs(sum(draws) / len(draws) - mean) / mean < 0.02


def test_call_process_rejects_bad_means():
    with pytest.raises(ValueError, match="inter_arrival_us must be > 0"):
        CallSpec(0, 1).check()
    with pytest.raises(ValueError, match="duration_mean_us must be > 0"):
        CallSpec(1, 0).check()


class _InstantLayer:
    """Session stub: establishes after one zero-delay event, no transport.
    Keeps the established sessions in order, each stamped with the instants
    it was established and torn down (None while the call runs)."""

    def __init__(self, sim):
        self.sim = sim
        self._next = 0
        self.established = []

    def initiate(self, caller, callee, on_established, on_closed):
        session = SimpleNamespace(session_id=self._next, caller=caller,
                                  callee=callee, call=None,
                                  on_established=on_established,
                                  on_closed=on_closed,
                                  t_established=None, t_teardown=None)
        self._next += 1
        self.sim.schedule(self.sim.now, self._establish, session)
        return session

    def _establish(self, session):
        session.t_established = self.sim.now
        self.established.append(session)
        session.on_established(session)

    def teardown(self, session):
        session.t_teardown = self.sim.now
        self.sim.schedule(self.sim.now, session.on_closed, session)


class _SinkFabric:
    """Swallows packets and logs their emission order."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send_media(self, stream, seq):
        self.sent.append((stream, seq, self.sim.now))
        stream.recv[seq] = self.sim.now
        self.sim.stats.packets_delivered += 1


def _run_scheduler(seed, inter_s, dur_s, callers, callees, horizon_s):
    sim = Simulator(master_seed=seed)
    fabric = _SinkFabric(sim)
    layer = _InstantLayer(sim)
    # the arrival stream is named after the caller subnet
    calls = CallSpec(seconds(inter_s), seconds(dur_s), caller_subnet="calls")
    sched = CallScheduler(sim, calls, callers, callees, CODECS["g711"], layer, fabric)
    sched.start()
    sim.run_until(seconds(horizon_s))
    return sim, sched, fabric


def _one_call(monkeypatch, t_arrival, duration_us):
    """One G.711 call between one pair, its arrival gap and duration forced;
    the next arrival falls far past the 200 s run."""
    draws = iter((t_arrival, seconds(10_000), duration_us))
    monkeypatch.setattr(traffic, "exp_sample", lambda _rng, _mean: next(draws))
    sim, sched, _ = _run_scheduler(1, 60, 180, ["a"], ["b"], 200)
    (session,) = sched.session_layer.established
    (pair,) = sched.calls
    return sim, session, pair


def test_call_packet_budget(monkeypatch):
    _sim, _session, (fwd, rev) = _one_call(monkeypatch, 1_234, seconds(180))
    assert fwd.n_packets == 9_000
    assert rev.n_packets == 9_000
    assert len(fwd.recv) == len(rev.recv) == 9_000


def test_zero_duration_call_has_no_packets(monkeypatch):
    sim, _session, (fwd, rev) = _one_call(monkeypatch, 1_234, 0)
    assert fwd.n_packets == rev.n_packets == 0
    assert sim.stats.packets_generated == 0


def test_stream_sends_follow_frame_interval(monkeypatch):
    _sim, session, pair = _one_call(monkeypatch, 1_234, seconds(1))
    assert session.t_established == 1_234
    for stream in pair:
        # t0 is the establishment instant, and send times are implicit:
        # t0 + seq * frame interval (the sink logs each emission tick)
        assert stream.t0 == 1_234
        assert stream.recv[7] == 1_234 + 7 * 20_000


def test_source_pacing_is_exact():
    sim, sched, fabric = _run_scheduler(1, 30, 5, ["a1", "a2"], ["b1", "b2"], 120)
    assert sched.calls, "expected at least one established call"
    # consecutive seq within one direction are spaced exactly one frame
    # interval; the sink logs each packet's emission tick as its arrival
    for pair in sched.calls:
        for stream in pair:
            for seq in range(1, len(stream.recv)):
                assert stream.recv[seq] - stream.recv[seq - 1] == 20_000
    assert fabric.sent, "packets must reach the fabric"


def test_media_only_within_call_window():
    sim, sched, fabric = _run_scheduler(2, 20, 10, ["a1", "a2"], ["b1", "b2"], 200)
    for session, pair in zip(sched.session_layer.established, sched.calls, strict=True):
        # a call still running at the end has sent nothing past now
        end = sim.now if session.t_teardown is None else session.t_teardown
        for stream in pair:
            assert stream.t0 == session.t_established
            if len(stream.recv):
                last_send = stream.recv[-1]
                assert last_send <= end


def test_forced_pair_when_single_idle():
    sim, sched, fabric = _run_scheduler(3, 30, 1, ["only-a"], ["only-b"], 300)
    assert sched.calls
    for fwd, rev in sched.calls:
        assert (fwd.src, fwd.dst) == ("only-a", "only-b")
        assert (rev.src, rev.dst) == ("only-b", "only-a")


def test_serial_mode_blocks_and_counts():
    # one pair, arrivals far faster than call turnover: most arrivals blocked
    sim, sched, _ = _run_scheduler(4, 2, 60, ["a"], ["b"], 120)
    assert sim.stats.calls_blocked > 0
    assert sim.stats.calls_started >= 1


def test_serial_mode_no_overlapping_calls_per_workstation():
    sim, sched, _ = _run_scheduler(5, 10, 30, ["a1", "a2"], ["b1", "b2"], 600)
    spans = {}
    for session in sched.session_layer.established:
        end = math.inf if session.t_teardown is None else session.t_teardown
        for ws in (session.caller, session.callee):
            spans.setdefault(ws, []).append((session.t_established, end))
    for ws, intervals in spans.items():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2, f"{ws} active in two calls at once"


def test_generation_counts_match_stream_logs():
    sim, sched, fabric = _run_scheduler(6, 15, 20, ["a1", "a2"], ["b1", "b2"], 300)
    emitted = sum(len(s.recv) for pair in sched.calls for s in pair)
    assert emitted == sim.stats.packets_generated
    sim.stats.packets_in_flight = count_in_flight(sched.calls)
    assert sim.stats.conservation_holds()
    assert not any(PENDING in s.recv for pair in sched.calls for s in pair)
