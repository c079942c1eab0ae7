"""Acceptance criteria.

One test per criterion; each prints a PASS line with its runtime.  All
comparisons are exact (integers and Fractions); the only tolerances are the
stated wall-clock budgets.  Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import random
import time
from fractions import Fraction as Q

from plumblat import (
    Constraint,
    base_point_report,
    classify,
    geometric_genus,
    hilbert_h,
    in_analytic_semigroup,
    laufer_zmin,
    maximal_ideal_cycle,
    min_chi,
    minimally_elliptic_cycle,
    multiplicity_generic,
    star_condition,
    blow_up_generic,
)
from plumblat.checks import analytic_box, oracle_min_chi_box, _box_volume
from plumblat.invariants import SingularityClass, min_chi_lattice
from plumblat.oracle import brute_min_chi, brute_semigroup, brute_zmin

from corpus import (
    G1_END,
    G1_MINUS_THREE,
    G2_HUB,
    ade_graphs,
    elliptic_corpus,
    form,
    full_corpus,
    oracle_corpus,
    graph_g1,
    graph_g2,
    rational_random_graphs,
)


def _report(name, t0):
    print(f"PASS {name} ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_g1_package():
    t0 = time.monotonic()
    f = form(graph_g1())
    assert f.det_neg == 1
    zmin = laufer_zmin(f)
    zk = f.canonical()
    assert zmin == f.dual(G1_END)
    assert zk == f.dual(G1_MINUS_THREE)
    assert min_chi_lattice(f).min_value == 0
    assert geometric_genus(f) == 1
    zmax = maximal_ideal_cycle(f).cycle
    assert zmax == zk

    rep = multiplicity_generic(f)
    assert rep.multiplicity == 3
    assert rep.total_base_points == 1
    starred = [d for d in rep.per_vertex if d.star]
    assert len(starred) == 1
    assert starred[0].vertex == G1_MINUS_THREE and starred[0].t == 1

    assert not in_analytic_semigroup(f, zmin)
    assert in_analytic_semigroup(f, zk)

    second = base_point_report(f, zk + zmin)
    assert second.total_base_points == 1
    starred2 = [d for d in second.per_vertex if d.star]
    assert starred2[0].vertex == G1_MINUS_THREE and starred2[0].count == 1

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion-1 (G1 package)", t0)


def test_criterion_2_g2_package():
    t0 = time.monotonic()
    f = form(graph_g2())
    assert min_chi_lattice(f).min_value == -1
    assert geometric_genus(f) == 2
    zmax = maximal_ideal_cycle(f).cycle
    assert zmax == f.dual(G2_HUB).scale(2)
    assert f.pairing_vertex(zmax, G2_HUB) == -2
    rep = multiplicity_generic(f)
    assert rep.total_base_points == 2
    starred = [d for d in rep.per_vertex if d.star]
    assert len(starred) == 1 and starred[0].count == 2 and starred[0].t == 1
    assert rep.multiplicity == 6
    assert rep.wagreich_floor == 4  # -Z_max^2
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion-2 (G2 package)", t0)


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    graphs = oracle_corpus()
    assert len(graphs) >= 25 and all(len(g.vertices) <= 8 for g in graphs)
    rng = random.Random(271)
    budget = 3 * 10 ** 7
    for g in graphs:
        f = form(g)
        # minimizer: positive cone and a random integral shift over all of L
        jobs = [(None, Constraint.positive(f))]
        shift = f.cycle([rng.randint(-3, 3) for _ in f.ids])
        jobs.append((shift, Constraint.over_lattice()))
        for shift_c, cons in jobs:
            res, lo, hi = oracle_min_chi_box(f, shift_c, cons, budget=budget)
            ora = brute_min_chi(f, shift_c, lo, hi,
                                exclude_zero=cons.exclude_zero, guard=budget)
            assert ora.min_value == res.min_value, g.name
            assert ora.minimizers == res.minimizers, g.name

        # fundamental cycle (margin 2 on the box when affordable)
        z = laufer_zmin(f)
        box = z.scale(2)
        if _box_volume(f.zero(), box) > 2 * 10 ** 6:
            box = z
        assert brute_zmin(f, box, guard=budget) == z, g.name

        # semigroup membership for a handful of classes; 0 is a member by
        # definition, every other class by the strict-growth scan
        for lp in (f.zero(), z, f.dual(f.ids[0]), z + f.unit(f.ids[-1])):
            member = in_analytic_semigroup(f, lp)
            if lp.is_zero():
                assert member
                continue
            value = max(min_chi(f, lp, Constraint.positive(f)).min_value, f.chi(lp))
            lo, hi = analytic_box(f, lp, value, Constraint.positive(f), margin=1)
            ora = brute_min_chi(f, lp, lo, hi, exclude_zero=True, guard=budget)
            assert (ora.min_value > f.chi(lp)) == member, (g.name, lp)
            radius = max(int(c) for c in hi.coeffs)
            if (radius + 1) ** f.n <= 10 ** 6:
                assert brute_semigroup(f, lp, radius) == member, (g.name, lp)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(f"criterion-3 (oracle equivalence, {len(graphs)} graphs)", t0)


def test_criterion_4_blow_up_invariance():
    t0 = time.monotonic()
    graphs = full_corpus()
    rng = random.Random(314)
    shift_checks = 0
    for g in graphs:
        f = form(g)
        base = (min_chi_lattice(f).min_value,
                geometric_genus(f),
                multiplicity_generic(f).multiplicity)
        for v in f.ids:
            one = blow_up_generic(g, v)
            two = blow_up_generic(one.graph, one.new_vertex)
            for res in (one, two):
                assert min_chi_lattice(res.form).min_value == base[0], (g.name, v)
                assert geometric_genus(res.form) == base[1], (g.name, v)
                assert multiplicity_generic(res.form).multiplicity == base[2], (g.name, v)
        # chi pullback identity on random classes and multiples of the new curve
        res = blow_up_generic(g, rng.choice(f.ids))
        for _ in range(4):
            lp = f.zero()
            for w in f.ids:
                k = rng.randint(-2, 2)
                if k:
                    lp = lp + f.dual(w).scale(k)
            k = rng.randint(-2, 3)
            lifted = res.pull(lp) + res.form.unit(res.new_vertex).scale(k)
            assert res.form.chi(lifted) == f.chi(lp) + Q(k * (k + 1), 2)
            shift_checks += 1
    assert shift_checks >= 100
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(f"criterion-4 (blow-up invariance, {len(graphs)} graphs, "
            f"{shift_checks} shift identities)", t0)


def test_criterion_5_rational_suite():
    t0 = time.monotonic()
    graphs = ade_graphs() + rational_random_graphs(10)
    for g in graphs:
        f = form(g)
        assert classify(f).tag is SingularityClass.RATIONAL, g.name
        assert geometric_genus(f) == 0
        zmin = laufer_zmin(f)
        rep = multiplicity_generic(f)
        assert rep.total_base_points == 0
        assert rep.multiplicity == -f.pairing(zmin, zmin)
        # the depth-one condition provably fails at negative-pairing vertices
        for lp in (zmin, f.dual(f.ids[0])):
            if not in_analytic_semigroup(f, lp):
                continue
            for v in f.ids:
                if f.pairing_vertex(lp, v) < 0:
                    sc = star_condition(f, lp, v)
                    assert not sc.star and sc.depth >= 2, (g.name, v)
    _report(f"criterion-5 (rational suite, {len(graphs)} graphs)", t0)


def test_criterion_6_elliptic_suite():
    t0 = time.monotonic()
    graphs = elliptic_corpus()
    assert len(graphs) >= 5
    assert any(g.name == "g1" for g in graphs)
    for g in graphs:
        f = form(g)
        cls = classify(f)
        assert cls.tag is SingularityClass.ELLIPTIC
        assert cls.numerically_gorenstein and cls.is_minimal
        assert maximal_ideal_cycle(f).cycle == f.canonical(), g.name
        c = minimally_elliptic_cycle(f)
        assert f.chi(c) == 0
        rep = multiplicity_generic(f)
        assert (rep.total_base_points > 0) == (f.pairing(c, c) == -1), g.name
    _report(f"criterion-6 (elliptic suite, {len(graphs)} graphs)", t0)


def test_criterion_7_identity_suite():
    t0 = time.monotonic()
    graphs = full_corpus()
    rng = random.Random(161803)
    samples_per_graph = 1000
    for g in graphs:
        f = form(g)
        zk = f.canonical()
        # one-shot facts
        for u in f.ids:
            du = f.dual(u)
            assert all(c > 0 for c in du.coeffs)
            for v in f.ids:
                assert f.pairing_vertex(du, v) == -(1 if u == v else 0)
        assert (min_chi(f, None, Constraint.nonnegative(f)).min_value
                == min_chi_lattice(f).min_value)
        assert hilbert_h(f, f.zero()) == 0
        cls = classify(f)
        if cls.tag is not SingularityClass.RATIONAL:
            assert laufer_zmin(f).leq(maximal_ideal_cycle(f).cycle)
        # sampled identities
        for i in range(samples_per_graph):
            x = f.cycle([Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                         for _ in f.ids])
            y = f.cycle([Q(rng.randint(-9, 9), rng.choice((1, 1, 2)))
                         for _ in f.ids])
            assert f.chi(x) == f.chi(zk - x)
            assert f.chi(x + y) - f.chi(x) - f.chi(y) == -f.pairing(x, y)
            l0 = f.cycle([rng.randint(0, 3) for _ in f.ids])
            v = rng.choice(f.ids)
            assert hilbert_h(f, l0) <= hilbert_h(f, l0 + f.unit(v))
    _report(f"criterion-7 (identity suite, {len(graphs)} graphs x "
            f"{samples_per_graph} samples)", t0)
