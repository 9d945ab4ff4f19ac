"""Metrics engine: rating/MOS fixed points, jitter and PDV oracles, windows."""

import io
import statistics
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voipsim.metrics import (
    ACCEPTABLE,
    DEFAULT_IS,
    GOOD,
    MOS_TABLE,
    POOR,
    DomainError,
    QoSBucket,
    bucketize,
    delay_class,
    id_from_delay,
    jitter_class,
    mos_from_r,
    mos_label,
    r_factor,
    records_from_stream,
    write_metrics_csv,
)
from voipsim.traffic import CODECS, DROPPED, PENDING, MediaStream

G711 = CODECS["g711"]


def trace(delays, spacing=20_000, t0=0):
    """(t_send, tick) records with the given per-seq one-way delays; None
    marks a drop."""
    out = []
    for seq, d in enumerate(delays):
        t = t0 + seq * spacing
        out.append((t, DROPPED if d is None else t + d))
    return out


def delivered(records):
    return [(t_send, tick) for t_send, tick in records if tick != DROPPED]


def one_window(records):
    """The bucket of a single window that spans the whole trace."""
    span = max((t_send for t_send, _tick in records), default=0) + 1
    [bucket] = bucketize([records], G711, run_length_us=span, width_us=span)
    return bucket


# --- transmission rating and MOS -------------------------------------------

def test_mos_endpoints_exact():
    assert mos_from_r(0) == 1.0
    assert mos_from_r(100) == 4.5


def test_mos_midpoint():
    # 1 + 0.035*50 + 7e-6*50*(-10)*50 = 2.575
    assert abs(mos_from_r(50) - 2.575) < 1e-12


def test_mos_default_rating():
    # zero impairment leaves R = 100 - 6.8
    assert r_factor() == pytest.approx(93.2)
    assert mos_from_r(93.2) == pytest.approx(4.409285824, abs=1e-9)


def test_mos_domain():
    with pytest.raises(DomainError):
        mos_from_r(-0.001)
    with pytest.raises(DomainError):
        mos_from_r(100.001)


def test_mos_strictly_increasing_above_ten():
    # the cubic dips below R=10; the usable range must be monotone
    rs = [10 + 90 * k / 4000 for k in range(4001)]
    scores = [mos_from_r(r) for r in rs]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_loss_folds_into_equipment_impairment():
    # Ppl=2% on G.711: Ie_eff = 0 + 95*2/(2+4.3)
    got = r_factor(ppl_pct=2.0, bpl=4.3)
    assert got == pytest.approx(93.2 - 190 / 6.3, abs=1e-12)


def test_rating_clamps_to_unit_interval():
    assert r_factor(id_factor=500.0) == 0.0
    # the top is the zero-impairment rating, to the last bit
    assert r_factor() == 100.0 - DEFAULT_IS


def test_delay_impairment_breakpoint():
    assert id_from_delay(0) == 0.0
    assert id_from_delay(100) == pytest.approx(2.4)
    # the surcharge starts strictly past 177.3 ms
    assert id_from_delay(177.3) == pytest.approx(0.024 * 177.3)
    assert id_from_delay(200) == pytest.approx(0.024 * 200 + 0.11 * 22.7)
    with pytest.raises(DomainError):
        id_from_delay(-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError):
            id_from_delay(bad)


def test_mos_label_rows():
    assert set(MOS_TABLE) == {1, 2, 3, 4, 5}
    assert mos_label(4.5) == ("Excellent", "No effort required")
    assert mos_label(2.575) == ("Fair", "Moderate effort required")
    assert mos_label(3.49) == ("Fair", "Moderate effort required")
    assert mos_label(1.0) == ("Bad", "No meaning understood with effort")
    with pytest.raises(DomainError):
        mos_label(0.99)
    with pytest.raises(DomainError):
        mos_label(5.01)


# --- per-packet records ------------------------------------------------------

def test_record_consistency_enforced():
    # an arrival before its send time is a broken log, whatever the window
    for bad in (99, -3):
        with pytest.raises(ValueError):
            bucketize([[(100, bad)]], G711, run_length_us=1_000, width_us=1_000)


def test_records_from_stream_pairs_every_emitted_packet():
    s = MediaStream("a", "b", G711, t0=1_000, n_packets=5)
    for _ in range(4):
        s.recv.append(PENDING)
    s.recv[0] = 40_000
    s.recv[1] = DROPPED
    s.recv[3] = 90_000
    # one pair per emitted seq, the in-flight seq 2 included
    pairs = records_from_stream(s)
    assert len(pairs) == 4
    assert list(pairs) == [
        (1_000, 40_000), (21_000, DROPPED), (41_000, PENDING), (61_000, 90_000)]
    assert list(pairs) == list(pairs)  # each iteration starts afresh


def test_folding_a_stream_holds_no_pair_list():
    n = 100_000
    s = MediaStream("a", "b", G711, t0=0, n_packets=n)
    s.recv.extend(range(5_000, 5_000 + n * 20_000, 20_000))
    # what a list of the stream's pairs would hold: the list and its tuples
    pairs_bytes = sys.getsizeof([None] * n) + n * sys.getsizeof((0, 0))
    tracemalloc.start()
    try:
        [b] = bucketize([records_from_stream(s)], G711,
                        run_length_us=n * 20_000, width_us=n * 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.samples == n
    assert peak < pairs_bytes / 20


def test_bucketize_skips_in_flight_packets():
    # the in-flight seq 1 is neither a sample nor a loss, and the delivered
    # pair spans it: (90 - 41) - (41 - 1) ms = +9 ms
    records = [(1_000, 41_000), (21_000, PENDING), (41_000, 90_000)]
    [b] = bucketize([records], G711, run_length_us=60_000, width_us=60_000)
    assert b.samples == 2 and b.dropped == 0
    assert b.jitter_s == 0.009


# --- jitter ------------------------------------------------------------------

def test_jitter_positive_example():
    # delays 10, 15, 12 ms: spreads +5 then -3; max is +5 ms
    assert one_window(trace([10_000, 15_000, 12_000])).jitter_s == 0.005


def test_jitter_negative_when_delays_shrink():
    assert one_window(trace([20_000, 15_000, 10_000])).jitter_s == -0.005


def test_jitter_pairs_skip_drops():
    # the delivered neighbours of a dropped packet form the pair
    assert one_window(trace([10_000, None, 16_000])).jitter_s == 0.006


def test_jitter_needs_two_delivered():
    assert one_window(trace([10_000])).jitter_s is None
    assert one_window(trace([10_000, None, None])).jitter_s is None
    assert one_window([]).jitter_s is None


def test_jitter_zero_for_constant_delay():
    assert one_window(trace([7_000] * 50)).jitter_s == 0.0


# --- packet delay variation --------------------------------------------------

def test_pdv_worked_example():
    # delays 50/55/60 ms: population variance 50/3 ms^2
    pdv_s2 = one_window(trace([50_000, 55_000, 60_000])).pdv_s2
    assert pdv_s2 == float(Fraction(50_000_000, 3) / 10**12)
    assert pdv_s2 == pytest.approx(50 / 3 * 1e-6)


def test_pdv_degenerate_cases():
    assert one_window(trace([12_345])).pdv_s2 == 0.0
    assert one_window(trace([9_000] * 10)).pdv_s2 == 0.0
    assert one_window(trace([None, None])).pdv_s2 is None


# --- property checks of the fold against definitional oracles ---------------
# Both sides are the correctly rounded float of one exact integer or
# rational, so equality is exact.

delays_st = st.lists(
    st.one_of(st.integers(min_value=0, max_value=400_000), st.none()),
    min_size=2, max_size=40)


@settings(max_examples=300, deadline=None)
@given(delays_st)
def test_jitter_matches_bruteforce(delays):
    records = trace(delays)
    kept = delivered(records)
    got = one_window(records).jitter_s
    if len(kept) < 2:
        assert got is None
        return
    expected = max((b[1] - a[1]) - (b[0] - a[0]) for a, b in zip(kept, kept[1:]))
    assert got == expected / 1_000_000


@settings(max_examples=300, deadline=None)
@given(delays_st, st.integers(min_value=0, max_value=10**9))
def test_jitter_invariant_under_time_shift(delays, shift):
    if sum(d is not None for d in delays) < 2:
        return
    base = one_window(trace(delays)).jitter_s
    shifted = one_window(trace(delays, t0=shift)).jitter_s
    bumped = one_window(trace([None if d is None else d + 5_000 for d in delays])).jitter_s
    assert base == shifted == bumped


@settings(max_examples=300, deadline=None)
@given(delays_st)
def test_pdv_matches_statistics_pvariance(delays):
    records = trace(delays)
    kept = [Fraction(tick - t_send) for t_send, tick in delivered(records)]
    got = one_window(records).pdv_s2
    if not kept:
        assert got is None
        return
    assert got == float(statistics.pvariance(kept) / 10**12)


@settings(max_examples=300, deadline=None)
@given(delays_st, st.sampled_from(sorted(CODECS)))
def test_mean_delay_matches_exact_rational(delays, codec_name):
    codec = CODECS[codec_name]
    records = trace(delays)
    kept = [tick - t_send for t_send, tick in delivered(records)]
    span = records[-1][0] + 1
    [got] = bucketize([records], codec, run_length_us=span, width_us=span)
    if not kept:
        assert got.mean_e2e_s is None
        return
    expected = (Fraction(sum(kept), len(kept)) + codec.codec_delay_us) / 10**6
    assert got.mean_e2e_s == float(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=400_000), min_size=1,
                max_size=30),
       st.integers(min_value=0, max_value=200_000))
def test_pdv_invariant_under_delay_shift(delays, bump):
    assert (one_window(trace(delays)).pdv_s2
            == one_window(trace([d + bump for d in delays])).pdv_s2)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0, max_value=200),
       st.floats(min_value=0, max_value=100),
       st.floats(min_value=0, max_value=100, exclude_min=True),
       st.floats(min_value=0, max_value=100))
def test_rating_never_leaves_unit_interval(ie, ppl, bpl, id_factor):
    r = r_factor(ie=ie, ppl_pct=ppl, bpl=bpl, id_factor=id_factor)
    # no in-domain input rates above zero impairment
    assert 0.0 <= r <= 100.0 - DEFAULT_IS
    # the score cubic dips to ~0.9888 near R=3.2 before recovering; 4.5 at R=100
    assert 0.988 <= mos_from_r(r) <= 4.5 + 1e-9


# --- quality classes ---------------------------------------------------------

def test_delay_class_boundaries_favour_better():
    assert delay_class(150) == GOOD
    assert delay_class(150.001) == ACCEPTABLE
    assert delay_class(300) == ACCEPTABLE
    assert delay_class(300.001) == POOR


def test_jitter_class_uses_magnitude():
    assert jitter_class(20) == GOOD
    assert jitter_class(-20) == GOOD
    assert jitter_class(20.001) == ACCEPTABLE
    assert jitter_class(50) == ACCEPTABLE
    assert jitter_class(-50.001) == POOR


# --- windowed aggregation ----------------------------------------------------

def test_bucketize_window_count_is_ceiling():
    none = bucketize([], G711, run_length_us=3_600_000_000, width_us=10_000_000)
    assert len(none) == 360
    ragged = bucketize([], G711, run_length_us=3_605_000_000, width_us=10_000_000)
    assert len(ragged) == 361


def test_bucketize_constant_delay_stream():
    # 60 s of 20 ms frames at a fixed 31.4 ms transit
    n = 3_000
    records = trace([31_400] * n)
    buckets = bucketize([records], G711, run_length_us=60_000_000,
                        width_us=10_000_000)
    assert len(buckets) == 6
    assert sum(b.samples for b in buckets) == n
    expected_mos = mos_from_r(93.2 - id_from_delay(32.4))
    for b in buckets:
        assert b.samples == 500
        assert b.dropped == 0
        assert b.jitter_s == 0.0
        assert b.mean_e2e_s == pytest.approx(0.0324)
        assert b.pdv_s2 == 0.0
        assert b.mos == pytest.approx(expected_mos)
        assert b.delay_class == GOOD and b.jitter_class == GOOD


def test_bucketize_empty_window_has_no_metrics():
    records = trace([5_000] * 3)  # all inside the first window
    buckets = bucketize([records], G711, run_length_us=40_000_000,
                        width_us=10_000_000)
    assert buckets[0].samples == 3
    for b in buckets[1:]:
        assert b.samples == 0
        assert b.jitter_s is None and b.mean_e2e_s is None
        assert b.pdv_s2 is None and b.mos is None
        assert b.delay_class is None and b.jitter_class is None


def test_bucketize_flags_warmup_windows():
    buckets = bucketize([], G711, run_length_us=50_000_000, width_us=10_000_000,
                        warm_up_us=20_000_000)
    assert [b.in_warmup for b in buckets] == [True, True, False, False, False]


def test_bucketize_pair_lands_in_later_window():
    records = [(9_000, 10_000), (11_000, 17_000)]
    buckets = bucketize([records], G711, run_length_us=20_000, width_us=10_000)
    assert buckets[0].samples == 1 and buckets[0].jitter_s is None
    assert buckets[1].jitter_s == pytest.approx(0.005)


def test_bucketize_clamps_straggler_to_last_window():
    records = [(95_000, 96_000), (170_000, 171_000)]
    buckets = bucketize([records], G711, run_length_us=100_000, width_us=30_000)
    assert len(buckets) == 4
    assert buckets[3].samples == 2


def test_bucketize_holds_one_stream_of_records_at_a_time():
    made = []

    class Records(list):
        def __init__(self, items):
            super().__init__(items)
            made.append(weakref.ref(self))

    def streams():
        for _ in range(3):
            # the previous stream's list is gone before the next is made
            assert all(ref() is None for ref in made)
            yield Records(trace([30_000] * 10))

    [bucket] = bucketize(streams(), G711, run_length_us=200_000, width_us=200_000)
    assert bucket.samples == 30


def test_bucketize_loss_lowers_window_mos():
    clean = trace([31_400] * 100)
    lossy = trace([31_400] * 98 + [None, None])
    width = 10_000_000
    b_clean = bucketize([clean], G711, run_length_us=width, width_us=width)[0]
    b_lossy = bucketize([lossy], G711, run_length_us=width, width_us=width)[0]
    assert b_lossy.dropped == 2
    assert b_lossy.mos < b_clean.mos
    expected = mos_from_r(r_factor(
        ppl_pct=2.0, bpl=G711.bpl, id_factor=id_from_delay(32.4)))
    assert b_lossy.mos == pytest.approx(expected)


def test_bucketize_drop_only_window():
    records = trace([None] * 5)
    b = bucketize([records], G711, run_length_us=10_000_000,
                  width_us=10_000_000)[0]
    assert b.samples == 0 and b.dropped == 5
    assert b.mos is None


def test_bucketize_merges_streams():
    a = trace([10_000] * 4)
    b = trace([30_000] * 4)
    bucket = bucketize([a, b], G711, run_length_us=1_000_000,
                       width_us=1_000_000)[0]
    assert bucket.samples == 8
    assert bucket.mean_e2e_s == pytest.approx(0.021)  # mean 20 ms + 1 ms codec
    # jitter pairs never straddle streams: both are internally constant
    assert bucket.jitter_s == 0.0


def test_bucketize_rejects_bad_width():
    with pytest.raises(ValueError):
        bucketize([], G711, run_length_us=1_000, width_us=0)


# --- CSV ---------------------------------------------------------------------

def test_csv_layout_golden():
    full = QoSBucket(window_start_us=0, samples=500, dropped=0, jitter_s=0.002,
                     mean_e2e_s=0.0324, pdv_s2=1.5e-05, mos=4.4, delay_class=GOOD,
                     jitter_class=GOOD, in_warmup=True)
    empty = QoSBucket(window_start_us=10_000_000, samples=0, dropped=0,
                      jitter_s=None, mean_e2e_s=None, pdv_s2=None, mos=None,
                      delay_class=None, jitter_class=None, in_warmup=False)
    fh = io.StringIO()
    write_metrics_csv(fh, "demo", 7, {1: [empty], 0: [full]})
    expected = "\n".join([
        "scenario,seed,direction,window_start_s,samples,jitter_s,e2e_s,"
        "pdv_s2,mos,delay_class,jitter_class",
        "demo,7,caller_to_callee,0.000000000,500,0.002000000,0.032400000,"
        "0.000015000,4.400000000,Good,Good",
        "demo,7,callee_to_caller,10.000000000,0,,,,,,",
        "",
    ])
    assert fh.getvalue() == expected
