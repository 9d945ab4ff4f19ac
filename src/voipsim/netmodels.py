"""Network transport: 802.11 DCF cells, a UMTS delay pipeline, and an IP cloud.

Each model owns its parameters: WifiParams, UmtsParams and CloudSpec hold
the defaults, and their check() is the one place their range rules live.  A
model takes its params object whole and reads its fields from there.

Every packet (voice or signaling) travels an ordered list of path segments.
Segment implementations never talk to each other; they hand completed or
dropped envelopes back to the Fabric, which advances the path and does the
delivery bookkeeping.  A segment that only waits a constant time (the UMTS
UTRAN/CN chain, a jitter-free lossless cloud) is carried by the Fabric
itself, folded into one scheduled event with its neighbours.  All times are
integer microseconds.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .simcore import Simulator, SimError, uniform_below
from .traffic import DROPPED

WIFI_ACK_BYTES = 14
WIFI_ACK_RATE_BPS = 1_000_000  # control frames at 802.11b base rate
WIFI_ACK_US = round(WIFI_ACK_BYTES * 8 * 1_000_000 / WIFI_ACK_RATE_BPS)

# drop reasons as they appear in stats and segment traces
DROP_QUEUE_OVERFLOW = "queue-overflow"
DROP_COLLISION_RETRY = "collision-retry-exhausted"
DROP_BLER_RETX = "bler-retx-exhausted"
DROP_CLOUD_LOSS = "cloud-loss"


class UnknownEndpoint(SimError):
    """Route requested for a workstation no cell claims."""


@dataclass(frozen=True)
class WifiParams:
    data_rate_bps: int = 11_000_000
    slot_us: int = 20
    sifs_us: int = 10
    difs_us: int = 50
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    phy_mac_overhead_bytes: int = 58
    queue_cap: int = 50

    def check(self) -> None:
        """Raise ValueError for the first rule broken, its message led by the
        field's name (validate() reports it under the config key)."""
        if self.cw_min < 0:
            raise ValueError("cw_min must be >= 0")
        if not self.cw_min < self.cw_max:
            raise ValueError("cw_min must be < cw_max")
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be > 0")
        if self.slot_us <= 0:
            raise ValueError("slot_us must be > 0")
        for key in ("sifs_us", "difs_us", "phy_mac_overhead_bytes"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.queue_cap <= 0:
            raise ValueError("queue_cap must be > 0")

    def exchange_us(self, size_bytes: int) -> int:
        """Medium occupancy of one successful exchange: data + SIFS + ACK."""
        data = round((size_bytes + self.phy_mac_overhead_bytes) * 8 * 1_000_000
                     / self.data_rate_bps)
        return data + self.sifs_us + WIFI_ACK_US


@dataclass(frozen=True)
class UmtsParams:
    tti_us: int = 10_000
    bler: float = 0.02
    max_rlc_retx: int = 2
    nodeb_rnc_delay_us: int = 15_000
    rnc_proc_delay_us: int = 25_000
    cn_delay_us: int = 25_000
    air_interleave_delay_us: int = 40_000
    queue_cap: int = 50

    def check(self) -> None:
        """Raise ValueError for the first rule broken, its message led by the
        field's name (validate() reports it under the config key)."""
        if not 0 <= self.bler < 1:
            raise ValueError("bler must be in [0, 1)")
        if self.max_rlc_retx < 0:
            raise ValueError("max_rlc_retx must be >= 0")
        if self.tti_us <= 0:
            raise ValueError("tti_us must be > 0")
        if min(self.nodeb_rnc_delay_us, self.rnc_proc_delay_us, self.cn_delay_us,
               self.air_interleave_delay_us) < 0:
            raise ValueError("delays must be >= 0")
        if self.queue_cap <= 0:
            raise ValueError("queue_cap must be > 0")

    @property
    def pipe_us(self) -> int:
        """The fixed chain after the air link: interleave + Iub + RNC + CN."""
        return (self.air_interleave_delay_us + self.nodeb_rnc_delay_us
                + self.rnc_proc_delay_us + self.cn_delay_us)


@dataclass(frozen=True)
class CloudSpec:
    base_delay_us: int = 30_000
    jitter_half_width_us: int = 5_000
    loss_prob: float = 0.0

    def check(self) -> None:
        """Raise ValueError for the first rule broken, its message led by the
        field's name (validate() reports it under the config key)."""
        if self.jitter_half_width_us < 0:
            raise ValueError("jitter_half_width_us must be >= 0")
        if self.base_delay_us - self.jitter_half_width_us < 0:
            raise ValueError("delay range must not go negative")
        if not 0 <= self.loss_prob <= 1:
            raise ValueError("loss_prob must be in [0, 1]")


class Envelope:
    """Transport wrapper that carries any payload across a segment path."""

    __slots__ = ("item", "size_bytes", "pid", "path", "hop", "hop_ingress", "on_end", "on_fail")

    def __init__(self, item, size_bytes, pid, path, on_end, on_fail):
        self.item = item
        self.size_bytes = size_bytes
        self.pid = pid
        self.path = path
        self.hop = 0
        self.hop_ingress = 0
        self.on_end = on_end
        self.on_fail = on_fail


# the per-packet segment trace's columns: Fabric.trace_row's arguments, in order
TRACE_COLUMNS = ("packet_id", "segment", "ingress_ticks", "egress_ticks", "drop_reason")


class _Contender:
    """Per-node DCF state: FIFO queue plus the backoff countdown for its head."""

    __slots__ = ("rank", "queue", "backoff", "cw", "retries")

    def __init__(self, rank: int):
        self.rank = rank  # position in station order, the AP last
        self.queue: deque = deque()
        self.backoff: int | None = None  # remaining idle slots; None = not contending
        self.cw = 0
        self.retries = 0


_by_rank = attrgetter("rank")
_backoff = attrgetter("backoff")


class WifiCell:
    """Slot-granular 802.11 DCF: DIFS sensing, binary exponential backoff with
    freeze/resume, collisions on equal countdown, positive ACK after SIFS.

    The access point contends like any station; downlink traffic queues there.
    A successful exchange occupies the medium for data airtime + SIFS + ACK,
    and the packet egresses the cell when the exchange completes.

    A round is one scheduled event: it fires when the smallest backoff runs
    out.  Nearly every round has one contender, so its steps run in one
    frame each: _enqueue arms the round itself when none is pending, and
    _round_fire serves a single winner (pop the head, hold the medium, reset
    cw and retries, redraw or retire it, arm the next round) in its own
    body.  Only a join in the middle of a round (_join_round) and a
    collision take further calls.
    """

    def __init__(self, sim: Simulator, name: str, stations: list[str],
                 params: WifiParams = WifiParams()):
        params.check()
        self.sim = sim
        self.name = name
        self.stations = list(stations)
        self.ap_id = f"{name}-ap"
        self.params = params
        # the fields every round reads, looked up once
        self._slot_us = params.slot_us
        self._difs_us = params.difs_us
        self._cw_min = params.cw_min
        self._queue_cap = params.queue_cap
        self.fabric = None
        # backoff draws: _below(cw + 1) is randint(0, cw) on the same stream
        self._below = uniform_below(sim.rng.stream(f"wifi-backoff:{name}"))
        self._contenders = {node: _Contender(rank)
                            for rank, node in enumerate(self.stations + [self.ap_id])}
        # contenders whose backoff is not None, kept in rank order so that
        # collision redraws consume the random stream in station order
        self._active: list[_Contender] = []
        self._busy_until = 0
        self._round_event: list | None = None
        self._round_t0 = 0
        self._exchange: dict[int, int] = {}  # size_bytes -> exchange_us

    def bind(self, fabric: "Fabric") -> None:
        self.fabric = fabric

    def up_segments(self, ws: str) -> list[tuple]:
        return [(f"wifi-up:{self.name}", self._enqueue, self._contenders[ws])]

    def down_segments(self, ws: str) -> list[tuple]:
        return [(f"wifi-down:{self.name}", self._enqueue, self._contenders[self.ap_id])]

    def exchange_us(self, size_bytes: int) -> int:
        """WifiParams.exchange_us, cached per size."""
        us = self._exchange.get(size_bytes)
        if us is None:
            us = self._exchange[size_bytes] = self.params.exchange_us(size_bytes)
        return us

    # -- DCF mechanics --------------------------------------------------

    def _enqueue(self, env: Envelope, c: _Contender) -> None:
        if len(c.queue) >= self._queue_cap:
            self.fabric.segment_drop(env, DROP_QUEUE_OVERFLOW)
            return
        c.queue.append(env)
        if c.backoff is None:
            c.cw = cw = self._cw_min
            c.retries = 0
            c.backoff = backoff = self._below(cw + 1)
            if self._round_event is not None:
                self._join_round(c)
                return
            # no round pending means nobody else is contending: start one
            # after DIFS, which lies ahead of now
            self._active.append(c)
            sim = self.sim
            busy_until = self._busy_until
            t0 = (busy_until if busy_until > sim.now else sim.now) + self._difs_us
            self._round_t0 = t0
            self._round_event = sim.schedule(t0 + backoff * self._slot_us, self._round_fire,
                                             kind="wifi-round")

    def _join_round(self, newcomer: _Contender) -> None:
        """A newly armed contender mid-round: fold elapsed slots into
        everyone's counter, keep the slot phase, and recompute the next
        expiry."""
        sim = self.sim
        sim.cancel(self._round_event)
        active = self._active
        insort(active, newcomer, key=_by_rank)
        t0 = self._round_t0
        slot_us = self._slot_us
        elapsed = (sim.now - t0) // slot_us
        if elapsed > 0:
            # deviation: a newcomer's fresh draw also loses the slots elapsed before it arrived
            for c in active:
                if c.backoff >= elapsed:
                    c.backoff -= elapsed
            t0 += elapsed * slot_us
        self._round_t0 = t0
        fire_at = t0 + min(map(_backoff, active)) * slot_us
        self._round_event = sim.schedule(fire_at if fire_at > sim.now else sim.now,
                                         self._round_fire, kind="wifi-round")

    def _round_fire(self, _arg) -> None:
        self._round_event = None
        active = self._active
        if len(active) == 1:
            w = active[0]  # a lone contender wins whatever its count
        else:
            min_b = min(map(_backoff, active))
            winners = []
            for c in active:
                if c.backoff == min_b:
                    winners.append(c)
                else:
                    c.backoff -= min_b  # frozen residual carries to the next round
            w = winners[0] if len(winners) == 1 else None
        now = self.sim.now
        if w is not None:
            queue = w.queue
            env = queue.popleft()
            exchange = self._exchange.get(env.size_bytes)
            if exchange is None:
                exchange = self.exchange_us(env.size_bytes)
            self._busy_until = now + exchange
            self.fabric.hold(env, exchange, "wifi-deliver")
            w.cw = cw = self._cw_min
            w.retries = 0
            if queue:
                w.backoff = self._below(cw + 1)
            else:
                w.backoff = None
                active.remove(w)
        else:
            # simultaneous expiry: all transmit, none gets an ACK; the medium
            # stays busy for the longest exchange
            p = self.params
            longest = max(self.exchange_us(c.queue[0].size_bytes) for c in winners)
            self._busy_until = now + longest
            for c in winners:
                c.retries += 1
                if c.retries > p.retry_limit:
                    env = c.queue.popleft()
                    self.fabric.segment_drop(env, DROP_COLLISION_RETRY)
                    c.cw = p.cw_min
                    c.retries = 0
                else:
                    c.cw = min(2 * c.cw + 1, p.cw_max)
                self._redraw(c)
        if active:
            # the medium is busy past now, so DIFS after it lies ahead
            t0 = self._busy_until + self._difs_us
            self._round_t0 = t0
            self._round_event = self.sim.schedule(
                t0 + min(map(_backoff, active)) * self._slot_us, self._round_fire,
                kind="wifi-round")

    def _redraw(self, c: _Contender) -> None:
        """Draw a backoff for c's next head frame, or retire c if it has none."""
        if c.queue:
            c.backoff = self._below(c.cw + 1)
        else:
            c.backoff = None
            self._active.remove(c)


class _Bearer:
    """One UE's air link one way: the packet on the air (None when idle),
    its attempt number, and the FIFO behind it."""

    __slots__ = ("items", "env", "attempt")

    def __init__(self):
        self.items: deque = deque()
        self.env: Envelope | None = None
        self.attempt = 0


class UmtsCell:
    """Dedicated-channel UMTS access: per-UE FIFO bearers, TTI-quantized air
    transmission with BLER retransmissions, then a fixed UTRAN/CN delay chain.

    One packet occupies one TTI per attempt; a failed attempt retransmits in
    the next TTI up to max_rlc_retx times, then the packet drops.  Each
    attempt is one event on its bearer, which holds the packet and attempt.
    An idle bearer's first attempt ends a TTI after the next TTI boundary;
    attempts end on the TTI grid, so a queued packet's first attempt ends a
    TTI after the last one before it.  The fixed chain (interleaving, Iub,
    RNC, CN) is one segment per direction that the fabric carries as a fixed
    delay of pipe_us.
    """

    def __init__(self, sim: Simulator, name: str, ues: list[str],
                 params: UmtsParams = UmtsParams()):
        params.check()
        self.sim = sim
        self.name = name
        self.stations = list(ues)
        self.params = params
        self.fabric = None
        self._rng = sim.rng.stream(f"umts-bler:{name}")
        self._up = {ue: _Bearer() for ue in ues}
        self._down = {ue: _Bearer() for ue in ues}

    def bind(self, fabric: "Fabric") -> None:
        self.fabric = fabric
        fabric.fix(f"umts-utran-cn-up:{self.name}", self.params.pipe_us, "umts-pipe")
        fabric.fix(f"umts-cn-utran-down:{self.name}", self.params.pipe_us, "umts-pipe")

    def up_segments(self, ue: str) -> list[tuple]:
        # uplink: air first, then the pipe toward the cloud; downlink mirrors it
        return [
            (f"umts-air-up:{self.name}", self._air_enqueue, self._up[ue]),
            (f"umts-utran-cn-up:{self.name}", None, None),
        ]

    def down_segments(self, ue: str) -> list[tuple]:
        return [
            (f"umts-cn-utran-down:{self.name}", None, None),
            (f"umts-air-down:{self.name}", self._air_enqueue, self._down[ue]),
        ]

    def _air_enqueue(self, env: Envelope, bearer: _Bearer) -> None:
        if bearer.env is not None:
            if len(bearer.items) >= self.params.queue_cap:
                self.fabric.segment_drop(env, DROP_QUEUE_OVERFLOW)
                return
            bearer.items.append(env)
            return
        bearer.env = env
        bearer.attempt = 1
        tti = self.params.tti_us
        self.sim.schedule(-(-self.sim.now // tti) * tti + tti, self._attempt_end, bearer,
                          kind="umts-air")

    def _attempt_end(self, bearer: _Bearer) -> None:
        p = self.params
        if p.bler == 0.0 or self._rng.random() >= p.bler:
            self.fabric.segment_done(bearer.env)
        elif bearer.attempt <= p.max_rlc_retx:
            bearer.attempt += 1
            self.sim.schedule(self.sim.now + p.tti_us, self._attempt_end, bearer,
                              kind="umts-air")
            return
        else:
            self.fabric.segment_drop(bearer.env, DROP_BLER_RETX)
        if bearer.items:
            bearer.env = bearer.items.popleft()
            bearer.attempt = 1
            self.sim.schedule(self.sim.now + p.tti_us, self._attempt_end, bearer,
                              kind="umts-air")
        else:
            bearer.env = None


class IpCloud:
    """Wide-area segment: uniform delay around a base, independent loss,
    no FIFO clamp (reordering allowed when the jitter width is nonzero).
    With neither jitter nor loss it draws nothing, and the fabric carries it
    as a fixed delay."""

    def __init__(self, sim: Simulator, params: CloudSpec = CloudSpec()):
        params.check()
        self.params = params
        self.fabric = None
        # jitter draws: _below(2*hw + 1) - hw is randint(-hw, hw) on the same stream
        self._below = uniform_below(sim.rng.stream("cloud-jitter"))
        self._rng_loss = sim.rng.stream("cloud-loss")

    def bind(self, fabric: "Fabric") -> None:
        self.fabric = fabric
        p = self.params
        if p.jitter_half_width_us == 0 and p.loss_prob == 0:
            fabric.fix("cloud", p.base_delay_us, "cloud-deliver")

    def forward(self, env: Envelope, _node) -> None:
        p = self.params
        if p.loss_prob > 0.0 and self._rng_loss.random() < p.loss_prob:
            self.fabric.segment_drop(env, DROP_CLOUD_LOSS)
            return
        delay = p.base_delay_us
        hw = p.jitter_half_width_us
        if hw:
            delay += self._below(2 * hw + 1) - hw
        self.fabric.hold(env, delay, "cloud-deliver")


class Fabric:
    """Routes packets between workstations across cells and the cloud.

    A path is a cached list of steps (label, transmit_fn, node, fixed,
    tail_us, next_hop).  A step's node is the queue its segment feeds (a
    WiFi contender, a UMTS bearer; None for the cloud), and entering the
    step calls transmit_fn(envelope, node).  WiFi and UMTS endpoints
    contribute their access legs; distinct subnets are always joined by the
    cloud.  The proxy endpoint lives at the cloud edge.  One method,
    _advance, moves an envelope to a hop: past the last step it delivers,
    otherwise it enters the step.  send, segment_done and the end of a
    wait all go through it.

    A segment whose label its model declared with fix() when bound (a UMTS
    pipe, a cloud that neither jitters nor loses) is fixed: fixed is its
    (delay_us, event kind), and the fabric never calls its transmit_fn.  A run
    of consecutive fixed segments of at least 1 us costs one scheduled event.
    tail_us is the delay of the fixed run right after a step and next_hop the
    step that follows that run, so a segment that ends in a pure wait (hold)
    carries the run too.  A segment that draws is never folded into the one
    before it, so every random draw keeps its simulated instant and order.
    A fixed segment of 0 us folds with nothing: it ends the run before it
    and keeps its own event, so it costs the round of same-instant events
    it costs unfolded.  A folded event is queued when its run starts, not
    when its last segment starts, so at an equal fire time it can sort
    before an event scheduled in between.  tests/test_properties.py runs
    random validated scenarios against a fabric that gives every segment its
    own event: the metrics CSV, the session log, the run's counters and the
    trace rows of every finished packet are the same.

    A media packet's last wait needs no event.  When a hold (with its fixed
    run) ends the path of an envelope whose on_end is the media sink, and it
    ends within the simulator's horizon (the t_end of the run_until in
    progress), the fabric writes its trace rows and records the arrival tick
    at once.  Its arrival is fixed, and delivery only does bookkeeping that
    nothing reads before the run ends, so the metrics are the same.  A SIP
    message keeps its event, because its on_end changes protocol state at
    the arrival instant; so does an arrival past the horizon, which stays in
    flight, and any hold made outside run_until (the horizon is -1 there).
    """

    PROXY = "proxy"

    def __init__(self, sim: Simulator, cloud: IpCloud, trace_row=None):
        self.sim = sim
        self.cloud = cloud
        # called with one trace row per segment a packet ends or is dropped in
        self.trace_row = trace_row
        self.cells_by_ws: dict[str, object] = {}
        self._paths: dict[tuple, list] = {}
        self._fixed: dict[str, tuple[int, str]] = {}
        self._next_pid = 0
        # one bound method for every media envelope, so hold() can tell
        # media from SIP by identity
        self._media_sink = self._media_done
        cloud.bind(self)

    def fix(self, label: str, delay_us: int, kind: str) -> None:
        """Declare segment label a constant delay that draws nothing; kind
        names the event that carries it."""
        self._fixed[label] = (delay_us, kind)

    def attach_cell(self, cell) -> None:
        cell.bind(self)
        for ws in cell.stations:
            if ws in self.cells_by_ws:
                raise ValueError(f"workstation {ws} already attached")
            self.cells_by_ws[ws] = cell

    def _endpoint_cell(self, ws: str):
        if ws == self.PROXY:
            return None
        cell = self.cells_by_ws.get(ws)
        if cell is None:
            raise UnknownEndpoint(ws)
        return cell

    def _path(self, src: str, dst: str) -> list:
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            src_cell = self._endpoint_cell(src)
            dst_cell = self._endpoint_cell(dst)
            segments = []
            if src_cell is not None and src_cell is dst_cell:
                segments += src_cell.up_segments(src) + src_cell.down_segments(dst)
            else:
                if src_cell is not None:
                    segments += src_cell.up_segments(src)
                segments.append(("cloud", self.cloud.forward, None))
                if dst_cell is not None:
                    segments += dst_cell.down_segments(dst)
            path = self._paths[key] = self._compile(segments)
        return path

    def _compile(self, segments: list[tuple]) -> list[tuple]:
        steps = []
        tail_us = 0
        next_hop = len(segments)
        for hop in range(len(segments) - 1, -1, -1):
            label, fn, node = segments[hop]
            fixed = self._fixed.get(label)
            if fixed is not None and fixed[0] == 0:
                tail_us = 0  # a 0 us segment folds with nothing
                next_hop = hop + 1
            steps.append((label, fn, node, fixed, tail_us, next_hop))
            if fixed is None or fixed[0] == 0:
                tail_us = 0
                next_hop = hop
            else:
                tail_us += fixed[0]
        steps.reverse()
        return steps

    def route(self, src: str, dst: str) -> list[str]:
        """Ordered segment labels a packet from src to dst will traverse."""
        return [step[0] for step in self._path(src, dst)]

    def send(self, item, size_bytes: int, src: str, dst: str, on_end, on_fail) -> None:
        pid = self._next_pid
        self._next_pid = pid + 1
        path = self._paths.get((src, dst))
        if path is None:
            path = self._path(src, dst)
        self._advance(Envelope(item, size_bytes, pid, path, on_end, on_fail), 0)

    def _advance(self, env: Envelope, hop: int) -> None:
        """Move env to hop now: past the last step it is delivered, otherwise
        it enters that step, which transmits it or holds its fixed delay."""
        env.hop = hop
        path = env.path
        if hop == len(path):
            env.on_end(env.item, self.sim.now)
            return
        env.hop_ingress = self.sim.now
        _label, fn, node, fixed, _tail_us, _next_hop = path[hop]
        if fixed is None:
            fn(env, node)
        else:
            self.hold(env, *fixed)

    def hold(self, env: Envelope, delay_us: int, kind: str) -> None:
        """End env's current segment after a pure wait of delay_us; the fixed
        run that follows rides the same event of the given kind, or none for
        a media packet's last wait within the horizon (see the class doc)."""
        sim = self.sim
        step = env.path[env.hop]
        t_done = sim.now + delay_us + step[4]
        if (step[5] == len(env.path) and env.on_end is self._media_sink
                and t_done <= sim.horizon):
            if self.trace_row is not None:
                self._trace_run(env, step, t_done)
            self._media_done(env.item, t_done)
        else:
            sim.schedule(t_done, self._run_done, env, kind=kind)

    def _run_done(self, env: Envelope) -> None:
        """The current segment and the fixed run after it end now."""
        step = env.path[env.hop]
        if self.trace_row is not None:
            self._trace_run(env, step, self.sim.now)
        self._advance(env, step[5])

    def _trace_run(self, env: Envelope, step: tuple, t_done: int) -> None:
        """Trace rows of the current segment and the fixed run after it, which
        ends at t_done, rebuilt by arithmetic from the fixed delays."""
        label, _fn, _node, _fixed, tail_us, next_hop = step
        egress = t_done - tail_us
        self.trace_row(env.pid, label, env.hop_ingress, egress, "")
        for label, _fn, _node, fixed, _tail, _next in env.path[env.hop + 1:next_hop]:
            self.trace_row(env.pid, label, egress, egress + fixed[0], "")
            egress += fixed[0]

    def segment_done(self, env: Envelope) -> None:
        """The current segment ended now, with no wait after it."""
        if self.trace_row is not None:
            self.trace_row(env.pid, env.path[env.hop][0], env.hop_ingress, self.sim.now, "")
        self._advance(env, env.hop + 1)

    def segment_drop(self, env: Envelope, reason: str) -> None:
        if self.trace_row is not None:
            self.trace_row(env.pid, env.path[env.hop][0], env.hop_ingress, self.sim.now, reason)
        env.on_fail(env.item, reason)

    # -- media bookkeeping ----------------------------------------------

    def send_media(self, stream, seq: int) -> None:
        """Carry packet seq of a media stream; the envelope's item is the
        (stream, seq) pair."""
        self.send((stream, seq), stream.size_bytes, stream.src, stream.dst,
                  self._media_sink, self._media_fail)

    def _media_done(self, packet: tuple, t_recv: int) -> None:
        stream, seq = packet
        stream.recv[seq] = t_recv
        self.sim.stats.packets_delivered += 1

    def _media_fail(self, packet: tuple, reason: str) -> None:
        stream, seq = packet
        stream.recv[seq] = DROPPED
        stats = self.sim.stats
        stats.packets_dropped += 1
        stats.count_drop(reason)
