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

The complete minimizer SET is materialized: subtrees are pruned only when
their value strictly exceeds the incumbent, so ties are never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EmptyFeasibleRegion, ExtremalNotMinimizer
from .graph import Cycle, IntersectionForm

__all__ = [
    "Constraint",
    "SearchStats",
    "ChiMinResult",
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


@dataclass(frozen=True)
class ChiMinResult:
    min_value: Fraction
    minimizers: tuple[Cycle, ...]
    stats: SearchStats


class _QuadData:
    """Fraction-free factorization of -I in a fixed elimination order."""

    def __init__(self, form: IntersectionForm):
        n = form.n
        # anti-dual diagonal -(E*_v, E*_v) = ((-I)^{-1})_vv = adj_vv / det(-I)
        # governs how wide a coordinate can swing; branching on the narrowest
        # coordinates first (widest eliminated first) keeps the top of the
        # search tree thin, measured orders of magnitude better on
        # box-clamped instances.
        adj = form.adj_neg
        perm = sorted(range(n), key=lambda i: (-adj[i][i], form.ids[i]))
        mq = [[-form.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        a = [row[:] for row in mq]
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
        self.mq = tuple(tuple(row) for row in mq)


def _nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0 (ties round up)."""
    return (2 * num + den) // (2 * den)


def _sqrt_interval(cnum: int, cden: int, radsq: Fraction) -> tuple[int, int]:
    """Integer range of l with (l - cnum/cden)^2 <= radsq, cden > 0."""
    if radsq < 0:
        return 1, 0
    a, b = radsq.numerator, radsq.denominator
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
            constraint: Constraint) -> ChiMinResult:
    """Exact global minimum of chi(shift + l) and the complete minimizer set."""
    if shift is None:
        shift = form.zero()
    if shift.ids != form.ids:
        raise ValueError("shift does not live on this graph")
    lo, hi = _bound_arrays(form, constraint)

    key = (shift.coeffs, tuple(lo), tuple(hi), constraint.exclude_zero)
    cached = form._minchi_cache.get(key)
    if cached is not None:
        return cached

    n = form.n
    zk = form.canonical()
    half_k = zk.scale(Fraction(1, 2))
    if form._chi_cont_cache is None:
        form._chi_cont_cache = form.chi(half_k)  # the unconstrained continuous minimum
    chi_cont = form._chi_cont_cache
    c = [half_k.coeffs[i] - shift.coeffs[i] for i in range(n)]
    dd = math.lcm(*[x.denominator for x in c]) if n else 1
    p = [int(x * dd) for x in c]

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

    if form._quad_data_cache is None:
        form._quad_data_cache = _QuadData(form)
    qd = form._quad_data_cache
    perm, rows, weights, lam, mq = qd.perm, qd.rows, qd.weights, qd.lam, qd.mq

    def qval(y: list[int]) -> int:
        return sum(y[i] * sum(mq[i][j] * y[j] for j in range(n)) for i in range(n))

    y_ref = [dd * ref[perm[k]] - p[perm[k]] for k in range(n)]
    best = lam * qval(y_ref)

    # advertised stat: per-coordinate ellipsoid box at the reference level
    delta_chi = Fraction(best, 2 * dd * dd * lam)
    box_volume = 1
    for i in range(n):
        w_i = Fraction(form.adj_neg[i][i], form.det_neg)
        blo, bhi = _sqrt_interval(p[i], dd, 2 * delta_chi * w_i)
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
    minimizers: list[tuple[int, ...]] = []
    exclude_zero = constraint.exclude_zero
    counters = {"nodes": 0, "candidates": 0}

    def rec(k: int, partial: int) -> None:
        nonlocal best
        if k < 0:
            counters["candidates"] += 1
            if exclude_zero and all(t == 0 for t in lvals):
                return
            if partial < best:
                best = partial
                minimizers.clear()
                minimizers.append(tuple(lvals))
            elif partial == best:
                minimizers.append(tuple(lvals))
            return
        counters["nodes"] += 1
        budget = best - partial
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
            if partial + term > best:
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

    min_value = chi_cont + Fraction(best, 2 * dd * dd * lam)
    cycles = tuple(Cycle.from_seq(form.ids, t)
                   for t in sorted(set(minimizers)))
    if not cycles:
        raise EmptyFeasibleRegion("no feasible lattice point found")
    result = ChiMinResult(min_value, cycles,
                          SearchStats(box_volume, counters["candidates"], counters["nodes"]))
    form._minchi_cache[key] = result
    return result


def minimizer_join(result: ChiMinResult) -> Cycle:
    """Componentwise max of the minimizers, verified to be a minimizer itself."""
    return _extremal(result, take_join=True)


def minimizer_meet(result: ChiMinResult) -> Cycle:
    """Componentwise min of the minimizers, verified to be a minimizer itself."""
    return _extremal(result, take_join=False)


def _extremal(result: ChiMinResult, take_join: bool) -> Cycle:
    if not result.minimizers:
        raise ValueError("empty minimizer set")
    acc = result.minimizers[0]
    for m in result.minimizers[1:]:
        acc = acc.join(m) if take_join else acc.meet(m)
    if acc not in result.minimizers:
        kind = "join" if take_join else "meet"
        raise ExtremalNotMinimizer(
            f"componentwise {kind} {acc} is not in the minimizer set; "
            "the uniqueness hypothesis fails on this input")
    return acc


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
