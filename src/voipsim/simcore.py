"""Deterministic discrete-event core: microsecond clock, event queue, seeded streams.

All simulation interfaces exchange time as integer microsecond ticks; floats
only appear in emitted reports.  Events fire in (fire_at, insertion seq)
order, so runs are reproducible byte for byte given the same master seed.

Stream seeds and scenario digests are SHA-256.  The hash comes from the
interpreter's builtin module (``_sha2`` from 3.12, ``_sha256`` before), as
the stdlib's ``random`` takes its sha512, because ``hashlib`` maps OpenSSL's
libcrypto, about 3.4 MB resident, for two digests a run.  ``hashlib`` is the
fallback for a build without the builtin module; the bytes are the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

US_PER_MS = 1_000
US_PER_S = 1_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer microsecond ticks."""
    return round(value * US_PER_S)


def millis(value: float) -> int:
    """Convert milliseconds to integer microsecond ticks."""
    return round(value * US_PER_MS)


class SimError(Exception):
    """Base class for simulator errors."""


class SchedulingInPast(SimError):
    """An event was scheduled before the current simulation time."""


class InvalidMean(SimError):
    """Sampling means must be strictly positive."""


class EventHandlerFault(SimError):
    """An event handler raised; the run aborted with partial stats attached."""

    def __init__(self, message: str, stats: "RunStats"):
        super().__init__(message)
        self.stats = stats


@dataclass
class RunStats:
    """Counters accumulated over one simulation run."""

    events_processed: int = 0
    end_ticks: int = 0
    calls_started: int = 0
    calls_blocked: int = 0
    calls_established: int = 0
    calls_failed_setup: int = 0
    calls_completed: int = 0
    packets_generated: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    packets_in_flight: int = 0
    sip_messages_sent: int = 0
    sip_messages_delivered: int = 0
    sip_messages_dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)

    def count_drop(self, reason: str) -> None:
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def conservation_holds(self) -> bool:
        """Every generated packet must be delivered, dropped or still in flight."""
        return self.packets_generated == (
            self.packets_delivered + self.packets_dropped + self.packets_in_flight
        )


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for a named stream, independent of platform hashing."""
    digest = sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngManager:
    """Named, independently seeded random streams.

    Each consumer pulls from its own stream, so adding a new random consumer
    cannot shift the draw sequences of existing ones.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_stream_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng


def exp_sample(rng: random.Random, mean_ticks: int, u: float | None = None) -> int:
    """Exponential draw with the given mean, in ticks.

    Uses the inverse transform -mean*ln(u) with u uniform in (0, 1]; u may be
    forced for boundary tests (u=1 yields exactly 0).
    """
    if mean_ticks <= 0:
        raise InvalidMean(f"mean must be > 0, got {mean_ticks}")
    if u is None:
        u = 1.0 - rng.random()  # random() is [0,1); flip to (0,1]
    return round(-mean_ticks * math.log(u))


def uniform_below(rng: random.Random):
    """Return below(n), a uniform draw from [0, n) for n >= 1 out of rng.

    It takes the same bits from the stream as Random._randbelow_with_getrandbits
    (3.10 to 3.13), so below(b - a + 1) + a equals rng.randint(a, b) draw for
    draw, without randint's three Python frames per draw.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class Simulator:
    """Single-threaded event loop over a same-instant calendar.

    Events are entries [fn, arg, kind], and schedule() returns the entry
    itself as the event's handle.  The future-event list is two structures: a
    heap of the distinct instants that have events, and a dict from each
    instant to its entries in the order they were scheduled (seq order), so
    an entry's fire_at is its key and its seq is its place in that list.
    schedule() appends to its instant's list and pushes the instant onto the
    heap only when it creates that list, so a run pays one heap push and pop
    per instant, not per event.  On a TTI grid (UMTS) nearly ten events
    share an instant.

    run_until pops an instant, pops its list, sets now once and walks the
    list.  An event a handler schedules for now goes into a fresh list under
    the same key, popped right after the current one; its seq is larger than
    any already queued, so events fire exactly in (fire_at, seq) order.  If a
    handler raises, its entry is consumed, and the entries after it stay
    queued for that instant ahead of any fresh list.

    Cancellation is lazy: cancel(entry) tombstones fn to None, and run_until
    does the same to an entry as it fires it, so a handle cancels at most
    once and never after its event ran.  The live count is scheduled minus
    fired minus cancelled.

    While run_until(t_end) runs, horizon is t_end: an event due by then will
    run in this call.  Outside run_until it is -1.
    """

    def __init__(self, master_seed: int = 1):
        self.now = 0
        self.rng = RngManager(master_seed)
        self.stats = RunStats()
        self._instants: list[int] = []  # heap of the keys of _due
        self._due: dict[int, list] = {}  # instant -> its entries in seq order
        self._next_seq = 0  # events scheduled so far
        self._cancelled = 0
        self.horizon = -1

    # target is unused; perfbench/layers.py passes it, and kind after it, by position
    def schedule(self, fire_at: int, fn, arg=None, target: str = "", kind: str = "") -> list:
        """Enqueue fn(arg) to run at fire_at; returns the entry as its cancel handle."""
        if fire_at < self.now:
            raise SchedulingInPast(f"fire_at={fire_at} < now={self.now}")
        self._next_seq += 1
        entry = [fn, arg, kind]
        same = self._due.get(fire_at)
        if same is None:
            self._due[fire_at] = [entry]
            heappush(self._instants, fire_at)
        else:
            same.append(entry)
        return entry

    def cancel(self, entry: list) -> bool:
        """Make a pending event inert; False if it already fired or was cancelled."""
        if entry[0] is None:
            return False
        entry[0] = None
        self._cancelled += 1
        return True

    def pending_count(self) -> int:
        """Events still due to fire."""
        return self._next_seq - self.stats.events_processed - self._cancelled

    def run_until(self, t_end: int) -> RunStats:
        """Process all events with fire_at <= t_end in (fire_at, seq) order.

        The clock lands exactly on t_end.  A raising handler aborts the run
        with EventHandlerFault carrying the partial stats.
        """
        if t_end < self.now:
            raise SchedulingInPast(f"t_end={t_end} < now={self.now}")
        instants = self._instants
        due = self._due
        stats = self.stats
        self.horizon = t_end
        try:
            while instants and instants[0] <= t_end:
                now = heappop(instants)
                self.now = now
                walk = iter(due.pop(now))
                for entry in walk:
                    fn = entry[0]
                    if fn is None:
                        continue
                    entry[0] = None
                    stats.events_processed += 1
                    fn(entry[1])
        except Exception as exc:
            self._requeue(now, list(walk))
            stats.end_ticks = now
            raise EventHandlerFault(
                f"handler for event kind={entry[2]!r} at t={now} raised: {exc!r}",
                stats,
            ) from exc
        finally:
            self.horizon = -1
        self.now = t_end
        stats.end_ticks = t_end
        return stats

    def _requeue(self, instant: int, rest: list) -> None:
        """Put back the unwalked entries of instant, ahead of its fresh list."""
        if not rest:
            return
        fresh = self._due.get(instant)
        if fresh is None:
            heappush(self._instants, instant)
        else:
            rest += fresh
        self._due[instant] = rest
