"""Call generation and voice streams: codec profiles, arrivals, media pacing.

Calls arrive per an exponential process, last an exponential duration (3 min
mean) and carry one codec frame per packet in both directions.  Workstations
run in serial mode: a station is in at most one call at a time, and arrivals
that find no idle pair are dropped and counted, not queued.  CallSpec owns
the call layer's parameters; the scheduler and the SIP layer take it whole.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .simcore import US_PER_S, Simulator, exp_sample

# RTP(12) + UDP(8) + IP(20) on every voice packet; link-layer overhead is
# added inside each network model.
IP_UDP_RTP_OVERHEAD_BYTES = 40

DIR_FORWARD = 0  # index in a call's stream pair: caller to callee
DIR_REVERSE = 1
DIRECTION_LABELS = ("caller_to_callee", "callee_to_caller")


@dataclass(frozen=True)
class CodecProfile:
    """Voice codec: framing plus the impairment and delay figures it brings."""

    name: str
    bitrate_bps: int
    frame_interval_us: int
    payload_bytes: int
    ie: float  # equipment impairment
    bpl: float  # robustness against packet loss
    encode_delay_us: int
    decode_delay_us: int

    def __post_init__(self):
        # framing consistency: payload_bytes * 8 / (frame_interval in s) == bitrate
        if self.payload_bytes * 8 * US_PER_S != self.bitrate_bps * self.frame_interval_us:
            raise ValueError(
                f"{self.name}: {self.payload_bytes} B per {self.frame_interval_us} us "
                f"frame does not yield {self.bitrate_bps} bit/s"
            )
        if self.ie < 0:
            raise ValueError(f"{self.name}: Ie must be >= 0")
        if self.encode_delay_us < 0 or self.decode_delay_us < 0:
            raise ValueError(f"{self.name}: delay components must be >= 0")

    @property
    def codec_delay_us(self) -> int:
        """Encode + decode, the non-network delay share."""
        return self.encode_delay_us + self.decode_delay_us

    @property
    def packet_size_bytes(self) -> int:
        return self.payload_bytes + IP_UDP_RTP_OVERHEAD_BYTES


# G.711 is the default: conventional "Interactive Voice" profile, zero Ie.
# The low-rate alternatives carry their usual impairment and lookahead
# figures; G.723.1 is modeled at its 6.4 kbit/s wire rate so framing stays
# exact (24 B per 30 ms frame).
CODECS: dict[str, CodecProfile] = {
    "g711": CodecProfile(
        name="G.711",
        bitrate_bps=64_000,
        frame_interval_us=20_000,
        payload_bytes=160,
        ie=0.0,
        bpl=4.3,
        encode_delay_us=500,
        decode_delay_us=500,
    ),
    "g729": CodecProfile(
        name="G.729",
        bitrate_bps=8_000,
        frame_interval_us=20_000,
        payload_bytes=20,
        ie=11.0,
        bpl=19.0,
        encode_delay_us=15_000,
        decode_delay_us=5_000,
    ),
    "g7231": CodecProfile(
        name="G.723.1",
        bitrate_bps=6_400,
        frame_interval_us=30_000,
        payload_bytes=24,
        ie=15.0,
        bpl=16.1,
        encode_delay_us=37_500,
        decode_delay_us=7_500,
    ),
}

DEFAULT_CODEC = "g711"

# recv-tick sentinels: negative, so they share the log's int64 slots with ticks
PENDING = -2
DROPPED = -1


class MediaStream:
    """One direction of one call's packet log.

    Send times are implicit (t0 + seq * frame_interval); recv holds one
    signed 64-bit entry (8 bytes) per emitted packet: the arrival tick,
    DROPPED, or PENDING.
    """

    __slots__ = ("src", "dst", "codec", "size_bytes", "t0", "n_packets", "recv")

    def __init__(self, src: str, dst: str, codec: CodecProfile, t0: int, n_packets: int):
        self.src = src
        self.dst = dst
        self.codec = codec
        self.size_bytes = codec.packet_size_bytes  # of every packet, read once
        self.t0 = t0
        self.n_packets = n_packets
        self.recv = array("q")


def count_in_flight(calls) -> int:
    """Packets of these stream pairs still in flight: their PENDING log entries."""
    return sum(stream.recv.count(PENDING) for pair in calls for stream in pair)


@dataclass(frozen=True)
class CallSpec:
    """The call layer's parameters: arrival and duration means, the two
    subnets calls run between, and the SIP answer delay and INVITE timer."""

    inter_arrival_us: int = 60_000_000
    duration_mean_us: int = 180_000_000
    caller_subnet: str = ""
    callee_subnet: str = ""
    answer_delay_us: int = 2_000_000
    invite_timeout_us: int = 32_000_000

    def check(self) -> None:
        """Raise ValueError for the first rule broken, its message led by the
        field's name (validate() reports it under the config key)."""
        for key in ("inter_arrival_us", "duration_mean_us", "invite_timeout_us"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")
        if self.answer_delay_us < 0:
            raise ValueError("answer_delay_us must be >= 0")


class CallScheduler:
    """Drives arrivals, pairs idle workstations, and paces media packets.

    Signaling is delegated to a session layer exposing
    initiate(caller, callee, on_established, on_closed) and teardown(session);
    each media packet is handed to fabric.send_media as its stream and seq.
    """

    def __init__(self, sim: Simulator, calls: CallSpec, caller_pool: list[str],
                 callee_pool: list[str], codec: CodecProfile, session_layer, fabric):
        calls.check()
        self.sim = sim
        self.spec = calls
        self.caller_pool = caller_pool
        self.callee_pool = callee_pool
        self.codec = codec
        self.session_layer = session_layer
        self.fabric = fabric
        # one (forward, reverse) MediaStream pair per established call
        self.calls: list[tuple[MediaStream, MediaStream]] = []
        self._rng = sim.rng.stream(f"call-arrivals:{calls.caller_subnet}")
        self._busy: set[str] = set()
        self._pending_durations: dict[int, int] = {}  # session_id -> duration ticks

    def start(self) -> None:
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = exp_sample(self._rng, self.spec.inter_arrival_us)
        self.sim.schedule(self.sim.now + gap, self._on_arrival, kind="call-arrival")

    def _on_arrival(self, _arg) -> None:
        self._schedule_next_arrival()
        stats = self.sim.stats
        idle_callers = [w for w in self.caller_pool if w not in self._busy]
        if not idle_callers:
            stats.calls_blocked += 1
            return
        caller = self._rng.choice(idle_callers)
        idle_callees = [w for w in self.callee_pool
                        if w not in self._busy and w != caller]
        if not idle_callees:
            stats.calls_blocked += 1
            return
        callee = self._rng.choice(idle_callees)
        duration = exp_sample(self._rng, self.spec.duration_mean_us)
        self._busy.add(caller)
        self._busy.add(callee)
        stats.calls_started += 1
        session = self.session_layer.initiate(
            caller, callee,
            on_established=self._on_established,
            on_closed=self._on_closed,
        )
        self._pending_durations[session.session_id] = duration

    def _on_established(self, session) -> None:
        duration = self._pending_durations.pop(session.session_id)
        now = self.sim.now
        n = duration // self.codec.frame_interval_us
        streams = (MediaStream(session.caller, session.callee, self.codec, now, n),
                   MediaStream(session.callee, session.caller, self.codec, now, n))
        self.calls.append(streams)
        self.sim.stats.calls_established += 1
        if n > 0:
            # both directions share t0, frame interval and length, so one
            # event per frame paces the pair
            self.sim.schedule(now, self._emit, streams, kind="media-emit")
        self.sim.schedule(now + duration, self._end_call, session, kind="call-end")

    def _emit(self, streams) -> None:
        seq = len(streams[0].recv)  # the log holds one entry per packet emitted
        sim = self.sim
        if seq + 1 < streams[0].n_packets:
            sim.schedule(sim.now + self.codec.frame_interval_us, self._emit, streams,
                         kind="media-emit")
        stats = sim.stats
        for stream in streams:  # forward, then reverse
            stream.recv.append(PENDING)
            stats.packets_generated += 1
            self.fabric.send_media(stream, seq)

    def _end_call(self, session) -> None:
        self.sim.stats.calls_completed += 1
        self.session_layer.teardown(session)

    def _on_closed(self, session) -> None:
        # releases the pair whether setup succeeded or timed out
        self._pending_durations.pop(session.session_id, None)
        self._busy.discard(session.caller)
        self._busy.discard(session.callee)
