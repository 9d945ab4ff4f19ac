"""Event loop ordering, cancellation, seeded streams and exponential sampling."""

import hashlib
import math
import random
from heapq import heappop, heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voipsim import simcore
from voipsim.simcore import (
    US_PER_S,
    EventHandlerFault,
    InvalidMean,
    RngManager,
    SchedulingInPast,
    Simulator,
    derive_stream_seed,
    exp_sample,
    millis,
    seconds,
)


def test_time_helpers_round_trip():
    assert seconds(1.5) == 1_500_000
    assert millis(2.5) == 2_500
    assert seconds(250_000 / US_PER_S) == 250_000
    assert seconds(123_456 / US_PER_S) == 123_456


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run_until(1_000)
    assert fired == ["a", "b", "c"]
    assert sim.now == 1_000


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(500, fired.append, tag)
    sim.run_until(500)
    assert fired == list(range(10))


def test_run_until_is_inclusive_and_resumable():
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(200, fired.append, 2)
    sim.schedule(201, fired.append, 3)
    sim.run_until(200)
    assert fired == [1, 2]
    assert sim.now == 200
    assert sim.pending_count() == 1
    sim.run_until(300)
    assert fired == [1, 2, 3]


def test_cancelled_event_never_fires():
    sim = Simulator()
    fired = []
    handle = sim.schedule(100, fired.append, "x")
    done = sim.schedule(100, fired.append, "y")
    assert sim.cancel(handle) is True
    assert sim.cancel(handle) is False  # second cancel is a no-op
    sim.run_until(1_000)
    assert fired == ["y"]
    assert sim.cancel(done) is False  # already fired


def test_pending_count_tracks_live_events_across_cancels():
    sim = Simulator()
    fired = []
    first = sim.schedule(100, fired.append, "first")
    sim.schedule(200, fired.append, "second")
    assert sim.pending_count() == 2
    sim.cancel(first)
    assert sim.pending_count() == 1
    sim.run_until(150)  # pops the tombstone
    assert fired == []
    assert sim.pending_count() == 1

    # a handler cancels an event due in the same tick
    victim = []

    def cancel_victim(_):
        fired.append("canceller")
        sim.cancel(victim[0])
        assert sim.pending_count() == 1  # only "last" is still live

    sim.schedule(300, cancel_victim)
    victim.append(sim.schedule(300, fired.append, "victim"))
    sim.schedule(400, fired.append, "last")
    assert sim.pending_count() == 4
    sim.run_until(300)
    assert fired == ["second", "canceller"]
    assert sim.pending_count() == 1
    sim.run_until(500)
    assert fired == ["second", "canceller", "last"]
    assert sim.pending_count() == 0


def test_handler_may_schedule_more_work():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(sim.now + 10, chain, n + 1)

    sim.schedule(0, chain, 1)
    sim.run_until(1_000)
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 1_000


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.schedule(50, lambda _: None)
    sim.run_until(100)
    with pytest.raises(SchedulingInPast):
        sim.schedule(99, lambda _: None)
    with pytest.raises(SchedulingInPast):
        sim.run_until(99)


def test_handler_fault_carries_partial_stats():
    sim = Simulator()

    def boom(_):
        raise ValueError("broken handler")

    sim.schedule(10, lambda _: None)
    sim.schedule(20, boom, kind="boom")
    with pytest.raises(EventHandlerFault) as excinfo:
        sim.run_until(100)
    assert excinfo.value.stats.events_processed == 2
    assert excinfo.value.stats.end_ticks == 20
    assert str(excinfo.value).startswith("handler for event kind='boom' at t=20 raised")


def test_horizon_is_set_only_inside_run_until():
    sim = Simulator()
    seen = []
    assert sim.horizon == -1
    sim.schedule(10, lambda _: seen.append(sim.horizon))
    sim.run_until(50)
    assert seen == [50]
    assert sim.horizon == -1

    def boom(_):
        seen.append(sim.horizon)
        raise ValueError("broken handler")

    sim.schedule(60, boom)
    with pytest.raises(EventHandlerFault):
        sim.run_until(100)
    assert seen == [50, 100]
    assert sim.horizon == -1


def test_same_instant_fault_leaves_the_rest_queued_in_order():
    sim = Simulator()
    fired = []

    def first(_):
        fired.append("first")
        sim.schedule(sim.now, fired.append, "fresh")  # seq after every entry below

    def boom(_):
        raise ValueError("broken handler")

    sim.schedule(10, first)
    sim.schedule(10, boom)
    sim.schedule(10, fired.append, "after-1")
    sim.schedule(10, fired.append, "after-2")
    with pytest.raises(EventHandlerFault) as excinfo:
        sim.run_until(100)
    assert fired == ["first"]
    assert excinfo.value.stats.events_processed == 2  # the faulting entry is consumed
    assert excinfo.value.stats.end_ticks == 10
    assert sim.pending_count() == 3
    sim.run_until(100)
    assert fired == ["first", "after-1", "after-2", "fresh"]
    assert sim.pending_count() == 0
    assert sim.stats.events_processed == 5


def test_fault_before_a_lone_same_instant_event_requeues_it():
    # nothing was scheduled for the faulted instant during its walk, so the
    # unwalked rest goes back under a fresh heap key
    sim = Simulator()
    fired = []

    def boom(_):
        raise ValueError("broken handler")

    sim.schedule(10, boom)
    sim.schedule(10, fired.append, "second")
    with pytest.raises(EventHandlerFault):
        sim.run_until(100)
    assert fired == []
    assert sim.pending_count() == 1
    sim.run_until(100)
    assert fired == ["second"]
    assert sim.pending_count() == 0


def test_one_heap_key_per_instant(monkeypatch):
    pushed = []

    def counting_heappush(heap, item):
        pushed.append(item)
        heappush(heap, item)

    monkeypatch.setattr(simcore, "heappush", counting_heappush)
    sim = Simulator()
    fired = []
    for tag in range(1_000):
        sim.schedule(500, fired.append, tag)
    assert pushed == [500]
    assert sim.pending_count() == 1_000
    sim.run_until(500)
    assert fired == list(range(1_000))


class _HeapReference:
    """The plain event loop the calendar must match: one heap of
    [fire_at, seq, fn, arg] entries, cancelled entries skipped when popped."""

    def __init__(self):
        self.now = 0
        self.stats = SimpleNamespace(events_processed=0)
        self._heap = []
        self._seq = 0

    def schedule(self, fire_at, fn, arg=None):
        assert fire_at >= self.now
        entry = [fire_at, self._seq, fn, arg]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        if entry[2] is None:
            return False
        entry[2] = None
        return True

    def pending_count(self):
        return sum(entry[2] is not None for entry in self._heap)

    def run_until(self, t_end):
        while self._heap and self._heap[0][0] <= t_end:
            entry = heappop(self._heap)
            fn = entry[2]
            if fn is None:
                continue
            entry[2] = None
            self.now = entry[0]
            self.stats.events_processed += 1
            fn(entry[3])
        self.now = t_end


def _drive(sim, script, behaviours, limit=300):
    """Run script on sim; return everything observable: firings with their
    clock, cancel results, and the live and fired counts after each run."""
    handles = []
    log = []

    def add(fire_at):
        handles.append(sim.schedule(fire_at, fire, len(handles)))

    def cancel(x):
        if handles:
            log.append(("cancel", sim.cancel(handles[x % len(handles)])))

    def fire(label):
        log.append(("fire", label, sim.now))
        for op, x in behaviours[label % len(behaviours)]:
            if op == "cancel":
                cancel(x)
            elif len(handles) < limit:
                add(sim.now if op == "now" else sim.now + x)

    for op, x in script + [("run", 10_000)]:
        if op == "schedule":
            add(sim.now + x)
        elif op == "cancel":
            cancel(x)
        else:
            sim.run_until(sim.now + x)
            log.append(("run", sim.now, sim.pending_count(), sim.stats.events_processed))
    return log


_small = st.integers(min_value=0, max_value=12)


@given(
    script=st.lists(st.tuples(st.sampled_from(["schedule", "cancel", "run"]), _small),
                    max_size=60),
    behaviours=st.lists(
        st.lists(st.tuples(st.sampled_from(["now", "later", "cancel"]), _small), max_size=3),
        min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_calendar_matches_a_plain_heap(script, behaviours):
    assert _drive(Simulator(), script, behaviours) == _drive(_HeapReference(), script, behaviours)


def test_conservation_check():
    sim = Simulator()
    s = sim.stats
    s.packets_generated = 10
    s.packets_delivered = 7
    s.packets_dropped = 2
    s.packets_in_flight = 1
    assert s.conservation_holds()
    s.packets_in_flight = 0
    assert not s.conservation_holds()


# --- seeded streams ---------------------------------------------------------


def test_stream_seed_is_sha256_prefix():
    # contract: first 8 bytes of sha256("{seed}:{name}"), big-endian
    expected = int.from_bytes(
        hashlib.sha256(b"42:wifi-backoff:lan-a").digest()[:8], "big"
    )
    assert derive_stream_seed(42, "wifi-backoff:lan-a") == expected


def test_streams_are_independent_of_each_other():
    a = RngManager(7)
    b = RngManager(7)
    # interleave draws on one manager, draw straight on the other
    mixed = []
    for _ in range(50):
        mixed.append(a.stream("x").random())
        a.stream("y").random()
    straight = [b.stream("x").random() for _ in range(50)]
    assert mixed == straight


def test_same_name_returns_same_stream():
    mgr = RngManager(3)
    assert mgr.stream("s") is mgr.stream("s")


def test_different_seeds_give_different_draws():
    x = RngManager(1).stream("s").random()
    y = RngManager(2).stream("s").random()
    assert x != y


# --- exponential sampling ---------------------------------------------------


def test_exp_sample_boundary_u_one_gives_zero():
    rng = random.Random(0)
    assert exp_sample(rng, 1_000_000, u=1.0) == 0


def test_exp_sample_known_quantile():
    # u = e^-1 puts the draw exactly at the mean
    rng = random.Random(0)
    assert exp_sample(rng, 500_000, u=math.exp(-1)) == 500_000


def test_exp_sample_rejects_bad_mean():
    rng = random.Random(0)
    with pytest.raises(InvalidMean):
        exp_sample(rng, 0)
    with pytest.raises(InvalidMean):
        exp_sample(rng, -5)


def test_exp_sample_mean_and_ks():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(123)
    mean = 60 * US_PER_S
    draws = [exp_sample(rng, mean) for _ in range(20_000)]
    sample_mean = sum(draws) / len(draws)
    assert abs(sample_mean - mean) / mean < 0.02
    ks = scipy_stats.kstest([d / mean for d in draws], "expon")
    assert ks.pvalue > 0.001


@given(st.integers(min_value=1, max_value=10**9), st.floats(min_value=1e-12, max_value=1.0))
@settings(max_examples=200)
def test_exp_sample_never_negative(mean, u):
    rng = random.Random(0)
    assert exp_sample(rng, mean, u=u) >= 0


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=40))
@settings(max_examples=100)
def test_stream_seed_in_64_bit_range(seed, name):
    value = derive_stream_seed(seed, name)
    assert 0 <= value < 2**64
