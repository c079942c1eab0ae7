"""Exact constrained minimization of chi over integer cycles.

The quantity minimized is ``chi(shift + l)`` for integral ``l`` subject to
componentwise bounds.  Writing K for the canonical class and
``Q(x) = -(x, x)`` (positive definite), one has

    chi(shift + l) = chi(K/2) + Q(l - c)/2,      c = K/2 - shift,

so the problem is a closest-vector search in a shifted lattice.  Any ``l``
whose value does not exceed a reference value ``chi_ref`` satisfies, for
every vertex v,

    (l - c)_v^2  <=  2 (chi_ref - chi(K/2)) * (-(E*_v, E*_v)),

by Cauchy-Schwarz in Q (coordinates against the anti-dual basis), which makes
every search region finite even when no explicit bounds are given, including
minimization over the whole lattice.

The search itself is a depth-first branch-and-bound over the fraction-free
(Bareiss) factorization of Q: with Delta_k the leading principal minors of
-I in the elimination order and R the fraction-free row echelon form,

    Q(y) = sum_k G_k(y)^2 / (Delta_k Delta_{k+1}),   G_k = sum_{j>=k} R[k][j] y_j,

all G_k and Delta_k integers.  Scaling by lcm_k(Delta_k Delta_{k+1}) keeps the
whole search in integer arithmetic; interval endpoints come from exact integer
square roots, so no floating point is involved anywhere.

Each search keeps only what its query needs (``want``):

* ``"value"`` prunes ties as well (values are integers, so a subtree must
  beat the incumbent by at least one unit) and keeps a single witness;
* ``"extremes"`` prunes only strictly worse subtrees and keeps the running
  componentwise join and meet of the minimizers as integer lists; each is
  then verified to be a minimizer itself (feasible, with the minimal value);
* ``"all"`` prunes only strictly worse subtrees and materializes the complete
  minimizer SET, so ties are never lost.

Results are cached on the form by the integer numerators of the shift and
the bounds; a cached result answers requests for its own or a weaker mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import EmptyFeasibleRegion, ExtremalNotMinimizer
from .graph import Cycle, IntersectionForm

__all__ = [
    "Constraint",
    "SearchStats",
    "ChiMinResult",
    "Extremal",
    "min_chi",
    "minimizer_join",
    "minimizer_meet",
    "laufer_zmin",
]


@dataclass(frozen=True)
class Constraint:
    """Componentwise bounds on the integer cycle being searched.

    ``lower is None`` means unbounded below (minimization over all of L);
    ``exclude_zero`` removes the single point 0 from the region, which is how
    the strictly-positive regions ``l > 0`` are expressed.
    """

    lower: Optional[Cycle] = None
    upper: Optional[Cycle] = None
    exclude_zero: bool = False

    @classmethod
    def over_lattice(cls) -> "Constraint":
        return cls(None, None, False)

    @classmethod
    def nonnegative(cls, f: IntersectionForm) -> "Constraint":
        return cls(f.zero(), None, False)

    @classmethod
    def positive(cls, f: IntersectionForm) -> "Constraint":
        return cls(f.zero(), None, True)

    @classmethod
    def box(cls, lower: Cycle, upper: Cycle, exclude_zero: bool = False) -> "Constraint":
        return cls(lower, upper, exclude_zero)

    @classmethod
    def at_least(cls, lower: Cycle) -> "Constraint":
        return cls(lower, None, False)


@dataclass(frozen=True)
class SearchStats:
    box_volume: int
    candidates: int
    nodes: int


class Extremal(NamedTuple):
    """Componentwise join or meet of a minimizer set, and whether it is a
    minimizer itself."""

    cycle: Cycle
    is_minimizer: bool


# what a search keeps, weakest first; a result answers its own and weaker wants
_STRENGTH = {"value": 0, "extremes": 1, "all": 2}


@dataclass(frozen=True)
class ChiMinResult:
    """Minimum of chi and as much of its minimizer set as was asked for.

    ``want`` is ``"all"`` (``minimizers`` is the complete set, sorted),
    ``"extremes"`` (``minimizers`` holds one witness) or ``"value"``
    (``minimizers`` holds one witness).  ``join`` and ``meet`` are the
    componentwise extremes of the complete set, for ``"all"`` and
    ``"extremes"``; a ``"value"`` result has neither.
    """

    min_value: Fraction
    minimizers: tuple[Cycle, ...]
    stats: SearchStats
    want: str = "all"
    join: Optional[Extremal] = None
    meet: Optional[Extremal] = None


class _QuadData:
    """Per-form search data: a fraction-free factorization of -I in a fixed
    elimination order, the canonical class over one denominator and the
    continuous minimum chi(K/2)."""

    def __init__(self, form: IntersectionForm):
        n = form.n
        # anti-dual diagonal -(E*_v, E*_v) = ((-I)^{-1})_vv = adj_vv / det(-I)
        # governs how wide a coordinate can swing; branching on the narrowest
        # coordinates first (widest eliminated first) keeps the top of the
        # search tree thin, measured orders of magnitude better on
        # box-clamped instances.
        adj = form.adj_neg
        perm = sorted(range(n), key=lambda i: (-adj[i][i], form.ids[i]))
        a = [[-form.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n):
            piv = a[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = piv
        rows = [tuple(a[k][j] if j >= k else 0 for j in range(n)) for k in range(n)]
        minors = [1] + [rows[k][k] for k in range(n)]  # Delta_0 .. Delta_n
        lam = 1
        for k in range(n):
            lam = math.lcm(lam, minors[k] * minors[k + 1])
        self.perm = tuple(perm)
        self.rows = tuple(rows)
        self.weights = tuple(lam // (minors[k] * minors[k + 1]) for k in range(n))
        self.lam = lam
        zk = form.canonical()
        self.k_num, self.k_den = form._numerators(zk)
        self.chi_cont = form.chi(zk.scale(Fraction(1, 2)))


def _nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0 (ties round up)."""
    return (2 * num + den) // (2 * den)


def _sqrt_interval(cnum: int, cden: int, a: int, b: int) -> tuple[int, int]:
    """Integer range of l with (l - cnum/cden)^2 <= a/b, cden > 0, b > 0."""
    if a < 0:
        return 1, 0
    s = math.isqrt(cden * cden * a * b)
    hi = (cnum * b + s) // (cden * b)
    lo = -((-(cnum * b - s)) // (cden * b))
    return lo, hi


def _bound_arrays(form: IntersectionForm, constraint: Constraint):
    n = form.n
    lo = [None] * n
    hi = [None] * n
    for cyc, arr in ((constraint.lower, lo), (constraint.upper, hi)):
        if cyc is None:
            continue
        if cyc.ids != form.ids:
            raise ValueError("constraint cycle does not live on this graph")
        if not cyc.is_integral():
            raise ValueError("constraint bounds must be integral cycles")
        for i, c in enumerate(cyc.coeffs):
            arr[i] = int(c)
    if constraint.lower is not None and constraint.upper is not None:
        if any(lo[i] > hi[i] for i in range(n)):
            raise EmptyFeasibleRegion("lower bound exceeds upper bound")
    if constraint.exclude_zero and all(l == 0 for l in lo) and hi == lo:
        raise EmptyFeasibleRegion("region is the single excluded point 0")
    return lo, hi


def min_chi(form: IntersectionForm, shift: Optional[Cycle],
            constraint: Constraint, want: str = "all") -> ChiMinResult:
    """Exact global minimum of chi(shift + l), and as much of the minimizer
    set as ``want`` asks for (see :class:`ChiMinResult`)."""
    if want not in _STRENGTH:
        raise ValueError(f"want must be one of {', '.join(_STRENGTH)}, got {want!r}")
    if shift is None:
        shift = form.zero()
    if shift.ids != form.ids:
        raise ValueError("shift does not live on this graph")
    lo, hi = _bound_arrays(form, constraint)

    s_num, s_den = form._numerators(shift)
    key = (tuple(s_num), s_den, tuple(lo), tuple(hi), constraint.exclude_zero)
    cached = form._minchi_cache.get(key)
    if cached is not None and _STRENGTH[cached.want] >= _STRENGTH[want]:
        return cached

    n = form.n
    if form._quad_data_cache is None:
        form._quad_data_cache = _QuadData(form)
    qd = form._quad_data_cache
    perm, rows, weights, lam = qd.perm, qd.rows, qd.weights, qd.lam
    # center c = K/2 - shift = p / dd in lowest terms: over the common
    # denominator denom, dd = denom / gcd(denom, all numerators)
    denom = math.lcm(2 * qd.k_den, s_den)
    kf, sf = denom // (2 * qd.k_den), denom // s_den
    p = [kf * a - sf * b for a, b in zip(qd.k_num, s_num)]
    common = math.gcd(denom, *p)
    dd = denom // common
    p = [x // common for x in p]

    def scaled_value(l: list[int]) -> int:
        """lam * Q(dd l - p), the search's integer measure of chi(shift + l)."""
        y = [dd * a - b for a, b in zip(l, p)]
        return -lam * form._pair(y, y)

    # feasible reference point: the rounded continuous minimizer clamped into
    # the box; bumped off 0 when 0 is excluded.
    ref = []
    for i in range(n):
        t = _nearest_int(p[i], dd)
        if lo[i] is not None and t < lo[i]:
            t = lo[i]
        if hi[i] is not None and t > hi[i]:
            t = hi[i]
        ref.append(t)
    if constraint.exclude_zero and all(t == 0 for t in ref):
        for i in range(n):
            for delta in (1, -1):
                t = ref[i] + delta
                if (lo[i] is None or t >= lo[i]) and (hi[i] is None or t <= hi[i]):
                    ref[i] = t
                    break
            else:
                continue
            break
        else:
            raise EmptyFeasibleRegion("no feasible point besides the excluded 0")

    best = scaled_value(ref)

    # advertised stat: per-coordinate ellipsoid box at the reference level,
    # radius^2 = 2 (chi_ref - chi(K/2)) adj_vv / det = best adj_vv / (dd^2 lam det)
    rad_den = dd * dd * lam * form.det_neg
    box_volume = 1
    for i in range(n):
        blo, bhi = _sqrt_interval(p[i], dd, best * form.adj_neg[i][i], rad_den)
        if lo[i] is not None:
            blo = max(blo, lo[i])
        if hi[i] is not None:
            bhi = min(bhi, hi[i])
        box_volume *= max(0, bhi - blo + 1)

    pp = [p[perm[k]] for k in range(n)]
    lo_p = [lo[perm[k]] for k in range(n)]
    hi_p = [hi[perm[k]] for k in range(n)]
    h = [0] * n
    lvals = [0] * n  # indexed by position (ascending vertex id)
    exclude_zero = constraint.exclude_zero
    counters = {"nodes": 0, "candidates": 0}
    keep_all = want == "all"
    keep_extremes = want == "extremes"
    # "value" prunes ties: values are integers, so a strictly better point
    # has value at most best - 1; the reference point is then the witness
    # unless the search improves on it.
    strict = 1 if want == "value" else 0
    limit = best - strict
    level: list[tuple[int, ...]] = [tuple(ref)] if strict else []
    # componentwise join and meet of the level: kept while searching for
    # "extremes", taken from the complete set for "all"
    top: list[int] = []
    bottom: list[int] = []

    def rec(k: int, partial: int) -> None:
        nonlocal best, limit
        if k < 0:
            counters["candidates"] += 1
            if exclude_zero and not any(lvals):
                return
            if partial < best or not level:
                best = partial
                limit = best - strict
                level[:] = [tuple(lvals)]
                if keep_extremes:
                    top[:] = lvals
                    bottom[:] = lvals
            elif keep_all:
                level.append(tuple(lvals))
            elif keep_extremes:
                top[:] = map(max, top, lvals)
                bottom[:] = map(min, bottom, lvals)
            return
        counters["nodes"] += 1
        budget = limit - partial
        if budget < 0:
            return
        dk = rows[k][k]
        wk = weights[k]
        hk = h[k]
        pk = pp[k]
        s = math.isqrt(budget * wk)
        den = dk * wk
        y_hi = (-hk * wk + s) // den
        y_lo = -((hk * wk + s) // den)
        l_hi = (y_hi + pk) // dd
        l_lo = -((-(y_lo + pk)) // dd)
        if lo_p[k] is not None and l_lo < lo_p[k]:
            l_lo = lo_p[k]
        if hi_p[k] is not None and l_hi > hi_p[k]:
            l_hi = hi_p[k]
        if l_lo > l_hi:
            return
        # walk outward from the continuous center (pk*dk - hk)/(dk*dd)
        cnum = pk * dk - hk
        cden = dk * dd
        lc = _nearest_int(cnum, cden)
        if lc < l_lo:
            lc = l_lo
        elif lc > l_hi:
            lc = l_hi
        pos = perm[k]

        def visit(l: int) -> bool:
            y = dd * l - pk
            g = dk * y + hk
            term = wk * g * g
            if partial + term > limit:
                return False
            lvals[pos] = l
            for kk in range(k):
                h[kk] += rows[kk][k] * y
            rec(k - 1, partial + term)
            for kk in range(k):
                h[kk] -= rows[kk][k] * y
            return True

        l = lc
        while l <= l_hi:
            if not visit(l) and l * cden >= cnum:
                break
            l += 1
        l = lc - 1
        while l >= l_lo:
            if not visit(l) and l * cden <= cnum:
                break
            l -= 1

    rec(n - 1, 0)

    if not level:
        raise EmptyFeasibleRegion("no feasible lattice point found")
    min_value = qd.chi_cont + Fraction(best, 2 * dd * dd * lam)
    stats = SearchStats(box_volume, counters["candidates"], counters["nodes"])
    ids = form.ids

    def extremal(l: list[int]) -> Extremal:
        # the same membership as "l in the complete minimizer set"
        feasible = (not exclude_zero or any(l)) and all(
            (a is None or a <= x) and (b is None or x <= b) for x, a, b in zip(l, lo, hi))
        return Extremal(Cycle.from_seq(ids, l), feasible and scaled_value(l) == best)

    join = meet = None
    if keep_all:
        level = sorted(set(level))
        cols = list(zip(*level))
        top, bottom = [max(c) for c in cols], [min(c) for c in cols]
    if want != "value":
        join, meet = extremal(top), extremal(bottom)
    kept = level if keep_all else level[:1]
    result = ChiMinResult(min_value, tuple(Cycle.from_seq(ids, t) for t in kept), stats,
                          want, join, meet)
    form._minchi_cache[key] = result
    return result


def minimizer_join(result: ChiMinResult) -> Cycle:
    """Componentwise max of the minimizers, verified to be a minimizer itself."""
    return _extremal(result, take_join=True)


def minimizer_meet(result: ChiMinResult) -> Cycle:
    """Componentwise min of the minimizers, verified to be a minimizer itself."""
    return _extremal(result, take_join=False)


def _extremal(result: ChiMinResult, take_join: bool) -> Cycle:
    kind = "join" if take_join else "meet"
    ext = result.join if take_join else result.meet
    if ext is None:
        raise ValueError(f"a {result.want!r} result has no minimizer {kind}; "
                         "search with want='extremes' or 'all'")
    if not ext.is_minimizer:
        raise ExtremalNotMinimizer(
            f"componentwise {kind} {ext.cycle} is not in the minimizer set; "
            "the uniqueness hypothesis fails on this input")
    return ext.cycle


def laufer_zmin(form: IntersectionForm) -> Cycle:
    """Fundamental cycle by the classical generalized-sequence iteration.

    Start from the reduced full cycle and, while some (z, E_v) > 0, add E_v.
    On a negative-definite form this terminates at the unique minimal nonzero
    element of the semigroup {l > 0 : (l, E_v) <= 0 for all v}.  The result
    is cached on the form.
    """
    if form._zmin_cache is None:
        form._zmin_cache = _laufer_iteration(form)
    return form._zmin_cache


def _laufer_iteration(form: IntersectionForm) -> Cycle:
    """Laufer's iteration on a worklist of vertices with (z, E_v) > 0.

    Adding E_v changes (z, E_w) only for w = v and its neighbours, so only
    those can turn positive; the order of additions does not change the end
    point, which is the least element of the cone above the reduced cycle.
    """
    diag, nbrs = form.diag, form.neighbours
    z = [1] * form.n
    p = [e + len(ns) for e, ns in zip(diag, nbrs)]  # p[v] = (z, E_v)
    todo = [v for v, pv in enumerate(p) if pv > 0]
    while todo:
        v = todo.pop()
        if p[v] <= 0:
            continue
        z[v] += 1
        p[v] += diag[v]
        if p[v] > 0:
            todo.append(v)
        for w in nbrs[v]:
            p[w] += 1
            if p[w] == 1:
                todo.append(w)
    return Cycle.from_seq(form.ids, z)
