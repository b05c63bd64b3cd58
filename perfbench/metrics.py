"""Metric math of the repository benchmark, kept free of I/O so it can be
tested on its own (perfbench/test_perfbench.py).

Every function that divides returns None when its base is zero, never
NaN: a ratio with nothing to divide by is undefined, not a number.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """First and third quartiles, as statistics.quantiles(n=4) gives them
    (the 'exclusive' method; needs at least two values)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return ratio(q3 - q1, median(values))


def ratio(num, den):
    """num / den, or None when den is zero."""
    return None if den == 0 else num / den


def reference_seconds(host_s, probe_s, reference_probe_s):
    """Host time restated at a fixed host speed: host_s scaled by how much
    slower the host-speed probe beside it ran (probe_s) than on the
    reference host (reference_probe_s)."""
    return host_s * reference_probe_s / probe_s


def weighted_mean(pairs):
    """Mean of several means, each weighted by its sample count.
    pairs: iterable of (mean, count). None when there are no samples."""
    pairs = list(pairs)
    return ratio(sum(m * n for m, n in pairs), sum(n for _, n in pairs))


def merge_counts(sample_lists):
    """Merges [[value, count], ...] lists into one {value: count} dict."""
    merged = {}
    for samples in sample_lists:
        for value, count in samples:
            merged[value] = merged.get(value, 0) + count
    return merged


def percentile(counts, pct):
    """Exact nearest-rank percentile of samples given as {value: count}:
    the smallest value v such that at least pct% of the samples are <= v.
    None when there are no samples."""
    total = sum(counts.values())
    if total == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise AssertionError("rank beyond sample count")


def jain(values):
    """Jain's fairness index (sum x)^2 / (n * sum x^2): 1 when all equal,
    1/n when one value holds everything. None for no values or all zero."""
    values = list(values)
    return ratio(sum(values) ** 2, len(values) * sum(v * v for v in values))


def geomean(values):
    """Geometric mean of positive values; None for an empty sequence."""
    values = list(values)
    if not values:
        return None
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
