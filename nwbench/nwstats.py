"""Statistics helpers for NWBench (run.py); covered by test_nwstats.py.

Everything here is pure: lists of numbers or records in, numbers out.
"""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, linearly interpolated
    between closest ranks. Infinite values (failed requests) sort last.
    Raises ValueError on an empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def latency_summary(values):
    """Median, p99 and the sample counts that say how far p99 can be
    trusted: `beyond_p99` is the number of samples above it (a percentile
    is worth reporting only with at least ten samples beyond it)."""
    p99 = percentile(values, 99)
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p99": p99,
        "beyond_p99": sum(1 for v in values if v > p99),
    }


def spread(values):
    """Interquartile distance as a share of the median, the way the
    benchmark's steadiness rule states it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def backlog_series(intervals, start, end, step):
    """Outstanding requests sampled every `step` over [start, end).

    `intervals` holds (sent, received) pairs; received is None for a
    request that never got an answer (outstanding to the end)."""
    series = []
    t = start
    while t < end:
        series.append(sum(1 for s, r in intervals
                          if s <= t and (r is None or r > t)))
        t += step
    return series


def backlog_growing(series, sent, min_growth=4, share=0.02):
    """True when the backlog climbs across a phase: the mean of its last
    quarter exceeds the mean of its first quarter by more than
    `min_growth` requests or `share` of the `sent` requests, whichever is
    larger. A system keeping up holds a flat (if noisy) backlog."""
    if len(series) < 4:
        return False
    quarter = len(series) // 4
    head = sum(series[:quarter]) / quarter
    tail = sum(series[-quarter:]) / quarter
    return tail - head > max(min_growth, share * sent)


def ladder_max_rate(rungs, limit):
    """Highest ladder rate that meets the p99 `limit` without a growing
    backlog, refined toward the first failing rung.

    `rungs` is [(rate, p99, growing)] in ascending rate order, run until
    the first failure. The result is the last passing rate plus the share
    of the step to the first failing rung at which p99, interpolated on a
    log scale, reaches the limit (a rung whose p99 met the limit but whose
    backlog grew adds nothing). With no failing rung the top rate is
    returned; with no passing rung, the first rate scaled by limit / p99."""
    passed = None
    for rate, p99, growing in rungs:
        ok = p99 <= limit and not growing
        if ok:
            passed = (rate, p99)
            continue
        if passed is None:
            return rate * min(1.0, limit / p99) if p99 > 0 else rate
        prate, pp99 = passed
        if p99 <= limit or pp99 <= 0 or math.isinf(p99):
            return prate
        share = (math.log(limit) - math.log(pp99)) / (
            math.log(p99) - math.log(pp99))
        return prate + (rate - prate) * min(1.0, max(0.0, share))
    return passed[0] if passed else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children counted
    once). `spans` are dicts with id, parent, name, start, end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans):
    """Total self time per span name."""
    per_id = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + per_id[s["id"]]
    return totals
