"""Exact draws: simcore.uniform_below takes the same bits from a stream as
Random.randint, so the WiFi backoff and cloud jitter streams are unchanged.

Runs under pytest, and as a script on an interpreter without pytest:

    PYTHONPATH=src python -S tests/test_draws.py
"""

from random import Random

from voipsim.simcore import uniform_below

SEEDS = (1, 2, 3)
DRAWS_PER_WIDTH = 8
CW_MAX = 1023
JITTER_HALF_WIDTHS = (1, 5000, 12000)
JITTER_DRAWS = 5000


def twins(seed):
    """A stream drawn through uniform_below and an identical twin."""
    rng = Random(seed)
    return rng, uniform_below(rng), Random(seed)


def test_backoff_draws_equal_randint():
    for seed in SEEDS:
        rng, below, twin = twins(seed)
        for cw in range(CW_MAX + 1):
            for _ in range(DRAWS_PER_WIDTH):
                assert below(cw + 1) == twin.randint(0, cw), (seed, cw)
        # and the streams are left in the same state
        assert rng.getstate() == twin.getstate()


def test_jitter_draws_equal_randint():
    for seed in SEEDS:
        for hw in JITTER_HALF_WIDTHS:
            rng, below, twin = twins(seed)
            for _ in range(JITTER_DRAWS):
                assert below(2 * hw + 1) - hw == twin.randint(-hw, hw), (seed, hw)
            assert rng.getstate() == twin.getstate()


if __name__ == "__main__":
    import sys

    test_backoff_draws_equal_randint()
    test_jitter_draws_equal_randint()
    print(f"draws equal randint on Python {sys.version.split()[0]}")
