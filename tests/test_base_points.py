"""Base-point detection and the multiplicity formula."""

import itertools

import pytest

from plumblat import (
    Distinctness,
    NotInSemigroup,
    NotStar,
    base_point_data,
    base_point_report,
    distinct_base_points_check,
    in_analytic_semigroup,
    invariant_report,
    laufer_zmin,
    maximal_ideal_cycle,
    multiplicity_generic,
    star_condition,
)
from plumblat.oracle import brute_zmin

from corpus import (
    G1_MINUS_THREE,
    G2_HUB,
    ade_graphs,
    e_n,
    elliptic_corpus,
    form,
    graph_g1,
    graph_g2,
    rational_random_graphs,
    single,
    star,
)


def test_star_condition_g1():
    f = form(graph_g1())
    zk = f.canonical()
    sc = star_condition(f, zk, G1_MINUS_THREE)
    assert sc.star and sc.depth == 1
    # chi(Z_K + Z_min) realizes the depth
    assert f.chi(zk + laufer_zmin(f)) == f.chi(zk) + 1


def test_star_condition_g2():
    f = form(graph_g2())
    zmax = f.dual(G2_HUB).scale(2)
    sc = star_condition(f, zmax, G2_HUB)
    assert sc.star
    # Z_K >= E_v + Z_max realizes it
    zk = f.canonical()
    assert (f.unit(G2_HUB) + zmax).leq(zk)
    assert f.chi(zk) == f.chi(zmax) + 1


def test_star_condition_rejects_nonmembers():
    f = form(graph_g1())
    with pytest.raises(NotInSemigroup):
        star_condition(f, laufer_zmin(f), G1_MINUS_THREE)


def test_rational_star_never_fires_at_negative_pairing():
    for g in ade_graphs()[:6] + rational_random_graphs(4):
        f = form(g)
        zmin = laufer_zmin(f)
        for lp in (zmin, f.dual(f.ids[0]), zmin + f.dual(f.ids[-1])):
            if not in_analytic_semigroup(f, lp):
                continue
            for v in f.ids:
                if f.pairing_vertex(lp, v) < 0:
                    sc = star_condition(f, lp, v)
                    assert not sc.star
                    assert sc.depth >= 2


def test_base_point_data_g1():
    f = form(graph_g1())
    zk = f.canonical()
    d = base_point_data(f, zk, G1_MINUS_THREE)
    assert d.count == 1 and d.t == 1 and d.pairing == -1
    assert d.m_v == 2 and d.m_v_plus == 3
    assert d.s_max == zk + laufer_zmin(f)
    assert in_analytic_semigroup(f, d.s_max)


def test_base_point_data_g1_second_class():
    f = form(graph_g1())
    zk = f.canonical()
    zmin = laufer_zmin(f)
    lp = zk + zmin
    assert f.pairing_vertex(lp, G1_MINUS_THREE) == -1
    assert f.chi(zk.scale(2)) == 2 == f.chi(lp) + 1
    d = base_point_data(f, lp, G1_MINUS_THREE)
    assert d.count == 1 and d.t == 1


def test_base_point_data_g2():
    f = form(graph_g2())
    zmax = f.dual(G2_HUB).scale(2)
    d = base_point_data(f, zmax, G2_HUB)
    assert d.count == 2 and d.t == 1


def test_base_point_data_requires_star():
    f = form(graph_g1())
    zk = f.canonical()
    # vertex with non-negative pairing
    with pytest.raises(NotStar):
        base_point_data(f, zk, 1)


def test_multiplicity_worked_examples():
    rep1 = multiplicity_generic(form(graph_g1()))
    assert rep1.multiplicity == 3
    assert rep1.wagreich_floor == 2
    assert rep1.total_base_points == 1
    rep2 = multiplicity_generic(form(graph_g2()))
    assert rep2.multiplicity == 6
    assert rep2.wagreich_floor == 4
    assert rep2.total_base_points == 2


def test_multiplicity_rational_single():
    f = form(single(-3))
    rep = multiplicity_generic(f)
    zmin = laufer_zmin(f)
    assert zmin == brute_zmin(f, f.cycle([4]))
    assert rep.multiplicity == -f.pairing(zmin, zmin) == 3
    assert rep.total_base_points == 0 and rep.artin_case
    # the depth-one condition has no chance here
    sc = star_condition(f, zmin, 1)
    assert not sc.star


def test_report_invariants():
    for g in (graph_g1(), graph_g2(), *elliptic_corpus()[1:4]):
        f = form(g)
        rep = multiplicity_generic(f)
        assert rep.multiplicity >= rep.wagreich_floor
        starred = [d for d in rep.per_vertex if d.star]
        assert rep.multiplicity - rep.wagreich_floor == sum(d.t * d.count for d in starred)
        for d in starred:
            assert d.pairing < 0 and d.t >= 1 and d.count == -d.pairing
        assert (rep.multiplicity == rep.wagreich_floor) == (not starred)


def test_base_point_report_non_zmax_class():
    f = form(graph_g1())
    zk = f.canonical()
    lp = zk + laufer_zmin(f)
    rep = base_point_report(f, lp)
    assert rep.multiplicity is None and rep.wagreich_floor is None
    assert rep.total_base_points == 1


def test_m_plus_equals_direct_minimal_semigroup_element():
    # small graphs: enumerate every class between lp + E_v and lp + join and
    # pick the least semigroup member directly
    for g in elliptic_corpus()[6:8]:
        f = form(g)
        zmax = maximal_ideal_cycle(f).cycle
        rep = multiplicity_generic(f)
        for d in rep.per_vertex:
            if not d.star:
                continue
            v = d.vertex
            join = d.s_max - zmax
            ranges = []
            unit = f.unit(v)
            for i, w in enumerate(f.ids):
                ranges.append(range(int(unit.coeffs[i]), int(join.coeffs[i]) + 1))
            count = 1
            for r in ranges:
                count *= len(r)
            if count > 600:
                continue
            members = []
            for tup in itertools.product(*ranges):
                cand = zmax + f.cycle(list(tup))
                if in_analytic_semigroup(f, cand):
                    members.append(cand)
            assert members, "level-set join must be a semigroup member"
            least = members[0]
            for mcand in members[1:]:
                least = least.meet(mcand)
            assert least == d.s_max
            assert least.coeff(v) == d.m_v_plus


def test_distinct_base_points_g1():
    f = form(graph_g1())
    zk = f.canonical()
    zmin = laufer_zmin(f)
    rep = distinct_base_points_check(f, zk, zk + zmin, G1_MINUS_THREE)
    assert rep.status is Distinctness.EXPECTED_DISTINCT
    assert rep.s_prime == zk + zmin
    # both minimal cycles are the minimally elliptic cycle: the m = m' pattern
    assert rep.m_equal
    assert rep.m_first == rep.m_second


def test_distinct_base_points_identical_classes():
    f = form(graph_g1())
    zk = f.canonical()
    rep = distinct_base_points_check(f, zk, zk, G1_MINUS_THREE)
    assert rep.status is Distinctness.POSSIBLY_COMMON
    assert rep.m_equal


def test_distinct_base_points_requires_star():
    f = form(graph_g1())
    zk = f.canonical()
    with pytest.raises(NotStar):
        distinct_base_points_check(f, zk, zk, 1)


def test_elliptic_base_point_iff_c_squared_minus_one():
    from plumblat import minimally_elliptic_cycle
    for g in elliptic_corpus():
        f = form(g)
        c = minimally_elliptic_cycle(f)
        rep = multiplicity_generic(f)
        has_bp = rep.total_base_points > 0
        assert has_bp == (f.pairing(c, c) == -1)
        if has_bp:
            assert rep.total_base_points == 1
            starred = [d for d in rep.per_vertex if d.star]
            assert len(starred) == 1 and starred[0].t == 1


@pytest.mark.parametrize("g", [graph_g1(), graph_g2(), e_n(8),
                               star("star9", -10, [-2, -3, -4] * 3)],
                         ids=["g1", "g2", "e8", "star9"])
def test_analysis_classifies_twice_and_searches_each_vertex_once(monkeypatch, g):
    import plumblat.basepoints as bp_mod
    import plumblat.invariants as inv_mod
    counts = {"classify": 0, "depth": 0}
    classify, min_chi = inv_mod.classify, bp_mod.min_chi

    def counted_classify(f):
        counts["classify"] += 1
        return classify(f)

    def counted_min_chi(*args, **kwargs):
        counts["depth"] += 1
        return min_chi(*args, **kwargs)

    monkeypatch.setattr(inv_mod, "classify", counted_classify)
    monkeypatch.setattr(bp_mod, "classify", counted_classify)
    monkeypatch.setattr(bp_mod, "min_chi", counted_min_chi)
    f = form(g)
    inv = invariant_report(f)
    multiplicity_generic(f)
    assert counts["classify"] == 2
    # on rational graphs only the debug scan searches; pytest runs with it on
    negative = [v for v in f.ids if f.pairing_vertex(inv.z_max, v) < 0]
    assert negative and counts["depth"] == len(negative)
