"""QoS metrics engine: transmission rating and MOS, jitter, delay, PDV.

bucketize is the one place jitter, PDV and mouth-to-ear delay are defined.
Packet arithmetic stays in integer microseconds: windows keep integer sums,
each quotient rounded once (int true division is correctly rounded) in the
final conversion to float, so results are reproducible to the last bit.
Jitter is the signed maximum over seq-consecutive delivered pairs; PDV is
the population variance of one-way delays.

A stream's packets reach the fold as plain (t_send, tick) pairs in seq
order, where tick is the stream log's entry: the arrival tick, DROPPED or
PENDING.  No per-packet object is made, and records_from_stream hands the
pairs over as a view, not a list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simcore import SimError
from .traffic import DIRECTION_LABELS, DROPPED, PENDING, CodecProfile

DEFAULT_IS = 6.8  # baseline signal impairment: zero-impairment R lands at 93.2

GOOD = "Good"
ACCEPTABLE = "Acceptable"
POOR = "Poor"

# quality/effort rows keyed by integer score
MOS_TABLE = {
    5: ("Excellent", "No effort required"),
    4: ("Good", "No appreciable effort required"),
    3: ("Fair", "Moderate effort required"),
    2: ("Poor", "Considerable effort required"),
    1: ("Bad", "No meaning understood with effort"),
}

CSV_COLUMNS = ("scenario", "seed", "direction", "window_start_s", "samples",
               "jitter_s", "e2e_s", "pdv_s2", "mos", "delay_class", "jitter_class")


class DomainError(SimError):
    pass


class StreamPairs:
    """A media stream's log as (t_send, tick) pairs in seq order, one per
    emitted packet, those still in flight included.  It is sized, and each
    iteration zips the send times with the log afresh, so no pair list is
    ever held."""

    __slots__ = ("sends", "recv")

    def __init__(self, stream):
        fi = stream.codec.frame_interval_us
        self.recv = stream.recv
        self.sends = range(stream.t0, stream.t0 + len(self.recv) * fi, fi)

    def __len__(self) -> int:
        return len(self.sends)

    def __iter__(self):
        return zip(self.sends, self.recv)


def records_from_stream(stream) -> StreamPairs:
    """The stream's (t_send, tick) pairs, as a lazily iterated view."""
    return StreamPairs(stream)


def id_from_delay(d_ms: float) -> float:
    """Delay impairment: 0.024 d plus a steeper surcharge past 177.3 ms."""
    if not 0 <= d_ms < math.inf:  # also catches NaN
        raise DomainError(f"delay must be finite and >= 0, got {d_ms}")
    rating = 0.024 * d_ms
    if d_ms > 177.3:
        rating += 0.11 * (d_ms - 177.3)
    return rating


def r_factor(*, ie: float = 0.0, ppl_pct: float = 0.0, bpl: float = 4.3,
             id_factor: float = 0.0) -> float:
    """Transmission rating with the observed packet loss (ppl_pct, percent)
    folded into the equipment impairment ie, clamped at 0.  The loss must be
    a percentage in [0, 100]; with ie and id_factor >= 0 and bpl > 0, R never
    exceeds 100 - DEFAULT_IS."""
    if not 0 <= ppl_pct <= 100:  # also catches NaN
        raise DomainError(f"packet loss must be in [0, 100] %, got {ppl_pct}")
    if ppl_pct > 0:
        ie_eff = ie + (95 - ie) * ppl_pct / (ppl_pct + bpl)
    else:
        ie_eff = ie
    return max(0.0, 100.0 - DEFAULT_IS - ie_eff - id_factor)


def mos_from_r(r: float) -> float:
    if not 0 <= r <= 100:
        raise DomainError(f"R must be in [0, 100], got {r}")
    return 1 + 0.035 * r + 7e-6 * r * (r - 60) * (100 - r)


def mos_label(score: float) -> tuple[str, str]:
    """Nearest quality/effort row for a score in [1, 5], half rounding up."""
    if not 1 <= score <= 5:
        raise DomainError(f"MOS must be in [1, 5], got {score}")
    row = int(score + 0.5)
    return MOS_TABLE[row]


def delay_class(delay_ms: float) -> str:
    """Guideline class of a mouth-to-ear delay; a boundary value belongs to
    the better class."""
    if delay_ms <= 150:
        return GOOD
    if delay_ms <= 300:
        return ACCEPTABLE
    return POOR


def jitter_class(jitter_ms: float) -> str:
    """Guideline class of a jitter, by magnitude (the sign is diagnostic
    only); a boundary value belongs to the better class."""
    magnitude = abs(jitter_ms)
    if magnitude <= 20:
        return GOOD
    if magnitude <= 50:
        return ACCEPTABLE
    return POOR


@dataclass
class QoSBucket:
    """One reporting window of one direction; fields are None when the window
    holds no delivered packet (or, for jitter, no delivered pair)."""

    window_start_us: int
    samples: int
    dropped: int
    jitter_s: float | None
    mean_e2e_s: float | None
    pdv_s2: float | None
    mos: float | None
    delay_class: str | None
    jitter_class: str | None
    in_warmup: bool


def bucketize(stream_records, codec: CodecProfile, *, run_length_us: int,
              width_us: int, warm_up_us: int = 0) -> list[QoSBucket]:
    """Fold per-stream records into fixed windows over [0, run_length).

    stream_records: iterable of per-stream lists of (t_send, tick) pairs,
    each seq-ordered, with t_send >= 0.  A DROPPED tick counts as a loss and
    a PENDING one is skipped, so a delivered pair spans a packet still in
    flight; a delivered tick before its send time raises ValueError.
    Windowing is by send time, the last window absorbing the boundary; a
    cross-window delivered pair counts toward the later packet's window.
    Window MOS combines the window's mean mouth-to-ear delay with its loss
    rate.  Warm-up windows are emitted and flagged, never silently skipped.
    """
    if width_us <= 0:
        raise ValueError("width must be > 0")
    n_win = -(-run_length_us // width_us)
    counts = [0] * n_win
    drops = [0] * n_win
    sums = [0] * n_win
    sumsqs = [0] * n_win
    jmax: list[int | None] = [None] * n_win
    last = n_win - 1
    for records in stream_records:
        prev_d = None  # delay of the stream's last delivered packet
        for t_send, tick in records:
            w = t_send // width_us
            if w > last:
                w = last
            if tick < t_send:  # both sentinels are negative
                if tick == DROPPED:
                    drops[w] += 1
                elif tick != PENDING:
                    raise ValueError(f"arrival tick {tick} before send tick {t_send}")
                continue
            d = tick - t_send
            counts[w] += 1
            sums[w] += d
            sumsqs[w] += d * d
            if prev_d is not None:
                # arrival spacing minus send spacing of the delivered pair
                delta = d - prev_d
                if jmax[w] is None or delta > jmax[w]:
                    jmax[w] = delta
            prev_d = d
        # so a lazily made next list replaces this one instead of joining it
        del records

    buckets = []
    codec_us = codec.codec_delay_us
    for w in range(n_win):
        start = w * width_us
        n = counts[w]
        if n == 0:
            buckets.append(QoSBucket(start, 0, drops[w], None, None,
                                     None, None, None, None, start < warm_up_us))
            continue
        e2e_sum_us = sums[w] + codec_us * n
        mean_e2e_ms = e2e_sum_us / (n * 1_000)
        loss_pct = 100.0 * drops[w] / (n + drops[w])
        r = r_factor(ie=codec.ie, ppl_pct=loss_pct, bpl=codec.bpl,
                     id_factor=id_from_delay(mean_e2e_ms))
        jit = jmax[w]
        jitter_s = None if jit is None else jit / 1_000_000
        buckets.append(QoSBucket(
            window_start_us=start,
            samples=n,
            dropped=drops[w],
            jitter_s=jitter_s,
            mean_e2e_s=e2e_sum_us / (n * 1_000_000),
            pdv_s2=(n * sumsqs[w] - sums[w] * sums[w]) / (n * n * 10**12),
            mos=mos_from_r(r),
            delay_class=delay_class(mean_e2e_ms),
            jitter_class=None if jit is None else jitter_class(jit / 1_000),
            in_warmup=start < warm_up_us,
        ))
    return buckets


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.9f}"


def write_metrics_csv(fh, scenario: str, seed: int,
                      buckets_by_direction: dict[int, list[QoSBucket]]) -> None:
    """One row per bucket, fixed column order, 9 fractional digits."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for direction in sorted(buckets_by_direction):
        label = DIRECTION_LABELS[direction]
        for b in buckets_by_direction[direction]:
            row = (scenario, str(seed), label, _fmt(b.window_start_us / 1_000_000),
                   str(b.samples), _fmt(b.jitter_s), _fmt(b.mean_e2e_s),
                   _fmt(b.pdv_s2), _fmt(b.mos),
                   b.delay_class or "", b.jitter_class or "")
            fh.write(",".join(row) + "\n")
