"""Constrained chi minimization: exactness, completeness, extremal elements."""

import random

import pytest

from plumblat import (
    Constraint,
    EmptyFeasibleRegion,
    laufer_zmin,
    min_chi,
    minimizer_join,
    minimizer_meet,
)
from plumblat.checks import oracle_min_chi_box, _box_volume
from plumblat.oracle import brute_min_chi, brute_zmin

from corpus import (
    G1_MINUS_THREE,
    G1_END,
    form,
    full_corpus,
    oracle_corpus,
    graph_g1,
    graph_g2,
    random_trees,
    single,
)


def test_g1_min_over_lattice_and_canonical_membership():
    f = form(graph_g1())
    res = min_chi(f, None, Constraint.over_lattice())
    assert res.min_value == 0
    assert f.canonical() in res.minimizers


def test_g2_min_over_lattice():
    f = form(graph_g2())
    assert min_chi(f, None, Constraint.over_lattice()).min_value == -1


def test_min_nonneg_equals_min_lattice():
    for g in full_corpus():
        f = form(g)
        assert (min_chi(f, None, Constraint.nonnegative(f)).min_value
                == min_chi(f, None, Constraint.over_lattice()).min_value)


def test_g1_join_is_canonical():
    f = form(graph_g1())
    res = min_chi(f, None, Constraint.positive(f))
    assert minimizer_join(res) == f.canonical()


def test_singleton_minimizer_join_meet():
    f = form(single(-2))
    res = min_chi(f, None, Constraint.positive(f))
    assert len(res.minimizers) == 1
    assert minimizer_join(res) == minimizer_meet(res) == res.minimizers[0]
    assert res.min_value == 1


def test_level_set_meet_is_meet_closed():
    # pairwise meets of level-set members stay in the level set, hence the
    # global meet is the minimally elliptic cycle here
    f = form(graph_g1())
    zk = f.canonical()
    cons = Constraint.at_least(f.unit(G1_MINUS_THREE))
    res = min_chi(f, zk, cons)
    assert res.min_value == f.chi(zk) + 1
    members = set(res.minimizers)
    for a in res.minimizers:
        for b in res.minimizers:
            assert a.meet(b) in members
    meet = minimizer_meet(res)
    assert all(meet.leq(mm) for mm in res.minimizers)
    assert f.chi(zk + meet) == f.chi(zk) + 1
    # brute-force the level set independently and take the componentwise min
    lo, hi = oracle_min_chi_box(f, zk, cons, budget=10 ** 7)[1:]
    ora = brute_min_chi(f, zk, lo, hi)
    assert ora.min_value == res.min_value
    brute_meet = ora.minimizers[0]
    for mm in ora.minimizers[1:]:
        brute_meet = brute_meet.meet(mm)
    assert brute_meet == meet


def test_laufer_single_vertex():
    f = form(single(-2))
    assert laufer_zmin(f) == f.unit(1)


def test_laufer_g1_is_integral_dual():
    f = form(graph_g1())
    zmin = laufer_zmin(f)
    dual_end = f.dual(G1_END)
    assert dual_end.is_integral()
    assert zmin == dual_end


def test_laufer_matches_brute_on_small_graphs():
    for g in random_trees(8, seed=5, n_max=6):
        f = form(g)
        z = laufer_zmin(f)
        assert brute_zmin(f, z.scale(2)) == z
        assert f.in_lipman_cone(z)


def test_empty_feasible_region():
    f = form(single(-2))
    with pytest.raises(EmptyFeasibleRegion):
        min_chi(f, None, Constraint.box(f.unit(1), f.zero()))
    with pytest.raises(EmptyFeasibleRegion):
        min_chi(f, None, Constraint.box(f.zero(), f.zero(), exclude_zero=True))


def test_monotone_in_feasible_region():
    rng = random.Random(3)
    for g in oracle_corpus()[::4]:
        f = form(g)
        small = f.cycle([rng.randint(1, 2) for _ in f.ids])
        large = small + f.cycle([rng.randint(0, 2) for _ in f.ids])
        r_small = min_chi(f, None, Constraint.box(f.zero(), small))
        r_large = min_chi(f, None, Constraint.box(f.zero(), large))
        assert r_large.min_value <= r_small.min_value


def test_positive_constraint_dominates_lattice_min():
    for g in oracle_corpus()[::3]:
        f = form(g)
        lp = f.dual(f.ids[0])
        assert (min_chi(f, lp, Constraint.positive(f)).min_value
                >= min_chi(f, lp, Constraint.over_lattice()).min_value)


def test_artin_criteria_agree_across_corpus():
    graphs = full_corpus()
    assert len(graphs) >= 20
    for g in graphs:
        f = form(g)
        mp = min_chi(f, None, Constraint.positive(f)).min_value
        assert (mp >= 1) == (f.chi(laufer_zmin(f)) == 1)


def test_completeness_against_oracle_with_random_shifts():
    rng = random.Random(17)
    for g in random_trees(6, seed=23, n_max=6):
        f = form(g)
        shift = f.cycle([rng.randint(-3, 3) for _ in f.ids])
        for cons in (Constraint.over_lattice(), Constraint.nonnegative(f)):
            res, lo, hi = oracle_min_chi_box(f, shift, cons, budget=10 ** 6)
            if _box_volume(lo, hi) > 10 ** 6:
                continue
            ora = brute_min_chi(f, shift, lo, hi, exclude_zero=cons.exclude_zero)
            assert ora.min_value == res.min_value
            assert ora.minimizers == res.minimizers


def test_stats_are_populated():
    f = form(graph_g2())
    res = min_chi(f, None, Constraint.positive(f))
    assert res.stats.candidates >= len(res.minimizers)
    assert res.stats.nodes > 0
    assert res.stats.box_volume > 0
