"""Order statistics of the benchmark's samples."""

import statistics

# A percentile is reported only when at least this many samples lie
# strictly above it, so p90 needs >= 100 samples.
MIN_BEYOND = 10


def percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile (p an int in 1..100) of values.

    Raises ValueError when fewer than min_beyond samples lie beyond the
    rank: such a tail estimate rests on too few samples to compare.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-p * n // 100))  # ceil(p * n / 100) in integers
    if n - rank < min_beyond:
        raise ValueError(
            f"p{p} of {n} samples leaves {n - rank} beyond it; "
            f"need {min_beyond}")
    return sorted(values)[rank - 1]


def min_samples(p, min_beyond=MIN_BEYOND):
    """Fewest samples for which percentile(.., p, min_beyond) is defined."""
    n = 1
    while n - max(1, -(-p * n // 100)) < min_beyond:
        n += 1
    return n


def median(values, default=0.0):
    """Median of values, or default when there are none."""
    return statistics.median(values) if values else default

