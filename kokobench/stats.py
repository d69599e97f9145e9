"""Reductions of the raw samples one benchmark run records."""


def median(xs):
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def tail(xs):
    """The highest percentile with at least min(10, n // 3) samples beyond it.

    With 30 or more samples this is the highest percentile that has ten
    samples beyond it; a shorter run keeps a third of its samples beyond,
    so the tail of a short window is not decided by one or two outliers.
    Returns (value, percentile, number of samples).
    """
    s = sorted(xs)
    if not s:
        raise ValueError("tail of no samples")
    beyond = min(10, len(s) // 3)
    k = len(s) - 1 - beyond
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover. Children may overlap each other or stick out of their
    parent; each instant is counted once and only inside the parent.
    Returns {span id: self time in ns}.
    """
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        lo, hi = sp["start_ns"], sp["end_ns"]
        covered, cur_lo, cur_hi = 0, None, None
        kids = sorted((max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                      for c in children.get(sp["id"], []))
        for a, b in kids:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp["id"]] = (hi - lo) - covered
    return out
