"""Self-check suite: exact identities and oracle comparisons for one graph.

Used by the command-line ``selfcheck`` and by the test suite.  Each check
returns (name, passed, detail); identity checks run on every graph, oracle
comparisons only when the scan boxes fit under the candidate guard.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import BoxTooLarge
from .graph import IntersectionForm
from .invariants import (
    geometric_genus,
    in_analytic_semigroup,
    min_chi_lattice,
    min_chi_positive,
)
from .minimize import Constraint, laufer_zmin, min_chi
from .oracle import brute_min_chi, brute_semigroup, brute_zmin
from .transforms import blow_up_generic

DEFAULT_SAMPLES = 60


def _random_rat_cycle(f: IntersectionForm, rng: random.Random):
    acc = f.zero()
    for v in f.ids:
        k = rng.randint(-3, 3)
        if k:
            acc = acc + f.dual(v).scale(k)
    return acc


def analytic_box(f: IntersectionForm, shift, value, constraint: Constraint,
                 margin: int = 2):
    """Coordinatewise search box certified to contain every candidate of value
    at most ``value``, widened by ``margin`` on the radius."""
    zk = f.canonical()
    chi_cont = f.chi(zk.scale(Fraction(1, 2)))
    delta = value - chi_cont
    lo, hi = [], []
    for i, v in enumerate(f.ids):
        c = zk.coeffs[i] / 2 - (shift.coeffs[i] if shift is not None else 0)
        w = Fraction(f.adj_neg[i][i], f.det_neg)
        rad2 = 2 * delta * w
        r = 0
        if rad2 > 0:
            r = math.isqrt(rad2.numerator // rad2.denominator) + 1
        a = math.floor(c) - margin * r
        b = math.ceil(c) + margin * r
        if constraint.lower is not None:
            a = max(a, int(constraint.lower.coeffs[i]))
        if constraint.upper is not None:
            b = min(b, int(constraint.upper.coeffs[i]))
        lo.append(a)
        hi.append(b)
    return f.cycle(lo), f.cycle(hi)


def _box_volume(lo, hi) -> int:
    vol = 1
    for a, b in zip(lo.coeffs, hi.coeffs):
        vol *= max(0, int(b - a) + 1)
    return vol


def oracle_min_chi_box(f: IntersectionForm, shift, constraint: Constraint,
                       budget: int = 3 * 10 ** 6):
    """Margin-2 analytic oracle box, shrinking the margin to 1 if needed."""
    res = min_chi(f, shift, constraint)
    for margin in (2, 1):
        lo, hi = analytic_box(f, shift, res.min_value, constraint, margin=margin)
        if _box_volume(lo, hi) <= budget:
            return res, lo, hi
    return res, lo, hi  # caller sees BoxTooLarge if even margin 1 is huge


def run_selfcheck(f: IntersectionForm, max_box: int = 10 ** 6, seed: int = 2718):
    rng = random.Random(seed)
    out = []

    def check(name, passed, detail=""):
        out.append((name, bool(passed), detail))

    duals = f.dual_basis()
    ok = all(f.pairing(duals[i], f.unit(v)) == -(1 if f.ids[i] == v else 0)
             for i in range(f.n) for v in f.ids)
    check("dual-basis-pairing", ok)
    check("dual-basis-positive", all(all(c > 0 for c in d.coeffs) for d in duals))

    zk = f.canonical()
    ok = all(f.pairing_vertex(zk, v) == f.graph.euler(v) + 2 for v in f.ids)
    check("adjunction", ok)

    samples = [_random_rat_cycle(f, rng) for _ in range(DEFAULT_SAMPLES)]
    check("chi-duality", all(f.chi(x) == f.chi(zk - x) for x in samples))
    pairs = list(zip(samples[::2], samples[1::2]))
    check("chi-bilinearity",
          all(f.chi(a + b) == f.chi(a) + f.chi(b) - f.pairing(a, b) for a, b in pairs))

    r_all = min_chi_lattice(f)
    r_nn = min_chi(f, None, Constraint.nonnegative(f))
    check("min-over-nonneg-equals-lattice", r_all.min_value == r_nn.min_value)

    zmin = laufer_zmin(f)
    check("fundamental-cycle-anti-nef", f.in_lipman_cone(zmin))
    # classify itself decides rationality by chi(Z_min); compare with the search
    mp = min_chi_positive(f, "value").min_value
    check("artin-criteria-agree", (f.chi(zmin) == 1) == (mp >= 1),
          f"chi(Z_min)={f.chi(zmin)}, min chi over l > 0 = {mp}")

    # oracle comparisons, guarded by box size
    try:
        z2 = zmin.scale(2)
        if _box_volume(f.zero(), z2) <= max_box:
            check("oracle-fundamental-cycle", brute_zmin(f, z2, guard=max_box) == zmin)
        elif _box_volume(f.zero(), zmin) <= max_box:
            check("oracle-fundamental-cycle", brute_zmin(f, zmin, guard=max_box) == zmin)
    except BoxTooLarge:
        pass
    try:
        cons = Constraint.positive(f)
        res, lo, hi = oracle_min_chi_box(f, None, cons, budget=max_box)
        if _box_volume(lo, hi) <= max_box:
            ora = brute_min_chi(f, None, lo, hi, exclude_zero=True, guard=max_box)
            check("oracle-min-chi-positive",
                  ora.min_value == res.min_value and ora.minimizers == res.minimizers)
    except BoxTooLarge:
        pass
    try:
        for lp in (f.zero(), zmin, duals[0]):
            member = in_analytic_semigroup(f, lp)
            witness = min_chi(f, lp, Constraint.positive(f))
            radius = 1 + max(int(c) for c in witness.minimizers[0].ceil().coeffs)
            _, lo, hi = oracle_min_chi_box(f, lp, Constraint.positive(f), budget=max_box)
            radius = max(radius, 1 + max(int(c) for c in hi.coeffs))
            if (radius + 1) ** f.n <= max_box:
                check(f"oracle-semigroup({lp})",
                      brute_semigroup(f, lp, radius, guard=max_box) == member)
    except BoxTooLarge:
        pass

    # blow-up invariance at the first vertex
    blown = blow_up_generic(f.graph, f.ids[0])
    check("blowup-min-chi-invariant",
          min_chi_lattice(blown.form).min_value == r_all.min_value)
    check("blowup-genus-invariant",
          geometric_genus(blown.form) == geometric_genus(f))
    ok = True
    for _ in range(10):
        lp = _random_rat_cycle(f, rng)
        k = rng.randint(-2, 3)
        lifted = blown.pull(lp) + blown.form.unit(blown.new_vertex).scale(k)
        if blown.form.chi(lifted) != f.chi(lp) + Fraction(k * (k + 1), 2):
            ok = False
    check("blowup-chi-shift", ok)
    return out
