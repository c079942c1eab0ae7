"""Generic-structure invariants: genus, h1, Hilbert function, semigroup, Z_max."""

import dataclasses
import itertools
import random
from fractions import Fraction as Q

import pytest

from plumblat import (
    Constraint,
    DisconnectedSupport,
    InvariantViolation,
    NegativeInput,
    NotElliptic,
    SingularityClass,
    big_cycle,
    build_form,
    classify,
    e_dimension,
    geometric_genus,
    h1_bundle,
    h1_cycle,
    h1_twisted,
    hilbert_h,
    in_analytic_semigroup,
    invariant_report,
    laufer_zmin,
    maximal_ideal_cycle,
    min_chi,
    minimally_elliptic_cycle,
)

from corpus import (
    G1_MINUS_THREE,
    G1_END,
    G2_HUB,
    a_n,
    chain,
    elliptic_corpus,
    form,
    full_corpus,
    graph_g1,
    graph_g2,
    single,
)


def test_geometric_genus_reference_values():
    assert geometric_genus(form(graph_g1())) == 1
    assert geometric_genus(form(graph_g2())) == 2
    assert geometric_genus(form(single(-2))) == 0
    assert geometric_genus(form(a_n(8))) == 0


def test_classification():
    assert classify(form(single(-2))).tag is SingularityClass.RATIONAL
    g1 = classify(form(graph_g1()))
    assert g1.tag is SingularityClass.ELLIPTIC
    assert g1.numerically_gorenstein and g1.is_minimal
    g2 = classify(form(graph_g2()))
    assert g2.tag is SingularityClass.GENERAL
    assert not g2.is_minimal  # the two -1 vertices


def test_h1_cycle_rational_reduced():
    f = form(single(-2))
    assert h1_cycle(f, f.unit(1)) == 0
    f8 = form(a_n(3))
    assert h1_cycle(f8, f8.total()) == 0


def test_h1_cycle_saturates_to_genus():
    f = form(graph_g1())
    assert h1_cycle(f, f.canonical().scale(10)) == 1
    z = big_cycle(f)
    assert h1_cycle(f, z) == geometric_genus(f)
    # stabilization: one more full cycle does not change the value
    assert h1_cycle(f, z + f.total()) == 1


def test_h1_cycle_reduced_vs_subcycle_enumeration():
    for g in (a_n(4), chain("c534", [-5, -3, -4]), graph_g2()):
        f = form(g)
        e = f.total()
        best = None
        for bits in itertools.product((0, 1), repeat=f.n):
            if not any(bits):
                continue
            val = f.chi(f.cycle(list(bits)))
            best = val if best is None else min(best, val)
        assert h1_cycle(f, e) == 1 - best


def test_h1_cycle_disconnected_support():
    f = form(a_n(3))
    z = f.cycle({1: 1, 3: 1})
    with pytest.raises(DisconnectedSupport):
        h1_cycle(f, z)


def test_h1_cycle_proper_connected_support():
    f = form(graph_g2())
    z = f.cycle({1: 2, 2: 3})
    sub = f.restrict((1, 2))
    res = min_chi(sub, None, Constraint.box(sub.zero(), z.restrict((1, 2)),
                                            exclude_zero=True))
    assert h1_cycle(f, z) == 1 - res.min_value


def test_h1_twisted_zmax_on_g1():
    f = form(graph_g1())
    zk = f.canonical()
    z = big_cycle(f)
    out = h1_twisted(f, z, zk)
    assert out.value == 0 and out.hypothesis_ok
    # inner minimum oracle: chi(Z_K) - min over 0<=l<=z of chi(Z_K + l) = 0 - 0
    res = min_chi(f, zk, Constraint.box(f.zero(), z))
    assert f.chi(zk) - res.min_value == 0


def test_h1_twisted_deeply_negative_class():
    f = form(graph_g1())
    huge = f.zero()
    for v in f.ids:
        huge = huge + f.dual(v).scale(10)
    out = h1_twisted(f, big_cycle(f), huge)
    assert out.value == 0 and out.hypothesis_ok
    # minimum is attained at l = 0 for such classes
    res = min_chi(f, huge, Constraint.box(f.zero(), big_cycle(f)))
    assert res.minimizers == (f.zero(),)


def test_h1_twisted_hypothesis_flag():
    f = form(graph_g1())
    lp = f.unit(1) - f.unit(2)  # integral, not positive on the support
    out = h1_twisted(f, f.total(), lp)
    assert not out.hypothesis_ok
    assert out.value >= 0


def test_h1_bundle_branches():
    f = form(graph_g1())
    assert h1_bundle(f, f.zero()) == geometric_genus(f)
    assert h1_bundle(f, f.canonical()) == 0
    f_rat = form(single(-2))
    assert h1_bundle(f_rat, f_rat.zero()) == 0
    # non-integral classes never get the +1 branch
    f3 = form(single(-3))
    assert h1_bundle(f3, f3.cycle([Q(-1, 3)])) == f3.chi(f3.cycle([Q(-1, 3)])) - min_chi(
        f3, f3.cycle([Q(-1, 3)]), Constraint.nonnegative(f3)).min_value


def test_hilbert_function():
    f = form(graph_g1())
    assert hilbert_h(f, f.zero()) == 0
    zmax = maximal_ideal_cycle(f).cycle
    assert hilbert_h(f, zmax) == 1
    with pytest.raises(NegativeInput):
        hilbert_h(f, -f.unit(1))
    rng = random.Random(8)
    for _ in range(25):
        l0 = f.cycle([rng.randint(0, 2) for _ in f.ids])
        v = rng.choice(f.ids)
        assert hilbert_h(f, l0) <= hilbert_h(f, l0 + f.unit(v))


def test_analytic_semigroup_membership():
    f = form(graph_g1())
    assert in_analytic_semigroup(f, f.zero())
    assert in_analytic_semigroup(f, f.canonical())
    assert not in_analytic_semigroup(f, laufer_zmin(f))


def test_semigroup_closed_under_addition_sampled():
    f = form(graph_g1())
    zk = f.canonical()
    members = [zk, zk + laufer_zmin(f), zk.scale(2)]
    for a in members:
        assert in_analytic_semigroup(f, a)
        for b in members:
            assert in_analytic_semigroup(f, a + b)


def test_maximal_ideal_cycle():
    f = form(graph_g1())
    res = maximal_ideal_cycle(f)
    assert res.cycle == f.canonical()
    assert not res.artin_fallback
    f2 = form(graph_g2())
    assert maximal_ideal_cycle(f2).cycle == f2.dual(G2_HUB).scale(2)
    fr = form(single(-2))
    res = maximal_ideal_cycle(fr)
    assert res.cycle == fr.unit(1) == laufer_zmin(fr)
    assert res.artin_fallback


def test_zmax_is_minimal_semigroup_element_above_reduced():
    # exhaustive on graphs with a tiny search box
    for g in (single(-3), a_n(2), elliptic_corpus()[7]):
        f = form(g)
        zmax = maximal_ideal_cycle(f).cycle
        assert in_analytic_semigroup(f, zmax)
        ranges = [range(1, int(c) + 2) for c in zmax.coeffs]
        count = 1
        for r in ranges:
            count *= len(r)
        if count > 4000:
            continue
        for tup in itertools.product(*ranges):
            l = f.cycle(list(tup))
            if in_analytic_semigroup(f, l):
                assert zmax.leq(l)


def test_minimally_elliptic_cycle_g1():
    f = form(graph_g1())
    c = minimally_elliptic_cycle(f)
    assert f.chi(c) == 0
    assert f.pairing(c, c) == -1
    assert c.coeff(G1_MINUS_THREE) == 1
    assert c.coeff(G1_END) == 0
    # C is also the minimal cycle >= E_v realizing depth one at Z_K
    zk = f.canonical()
    from plumblat import minimizer_meet
    res = min_chi(f, zk, Constraint.at_least(f.unit(G1_MINUS_THREE)))
    assert minimizer_meet(res) == c


def test_minimally_elliptic_rejects_rational():
    with pytest.raises(NotElliptic):
        minimally_elliptic_cycle(form(single(-2)))


def test_elliptic_corpus_zmax_is_canonical():
    for g in elliptic_corpus():
        f = form(g)
        cls = classify(f)
        assert cls.tag is SingularityClass.ELLIPTIC
        assert cls.numerically_gorenstein and cls.is_minimal
        assert maximal_ideal_cycle(f).cycle == f.canonical()


def test_e_dimension():
    f1 = form(graph_g1())
    full = f1.zero()
    for v in f1.ids:
        full = full + f1.dual(v)
    assert e_dimension(f1, full) == geometric_genus(f1)

    f2 = form(graph_g2())
    # removing the hub leaves two rational arms
    assert e_dimension(f2, f2.dual(G2_HUB)) == 2
    for comp in f2.graph.components_of(tuple(v for v in f2.ids if v != G2_HUB)):
        assert classify(f2.restrict(comp)).tag is SingularityClass.RATIONAL
    # support whose removal leaves only rational pieces contributes everything
    assert e_dimension(f2, f2.dual(G2_HUB).scale(3)) == geometric_genus(f2)


def test_invariant_report_consistency():
    for g in full_corpus()[::4]:
        f = form(g)
        rep = invariant_report(f)
        assert rep.p_g >= 0
        if rep.p_g > 0:
            assert rep.z_min.leq(rep.z_max)
            assert f.chi(rep.z_max) == rep.min_chi


def test_zmin_leq_zmax_nonrational_corpus():
    for g in full_corpus():
        f = form(g)
        if classify(f).tag is SingularityClass.RATIONAL:
            continue
        assert laufer_zmin(f).leq(maximal_ideal_cycle(f).cycle)


def _shift_min_chi(monkeypatch):
    """Make every constrained minimum off by a fraction."""
    import plumblat.invariants as inv_mod
    orig = inv_mod.min_chi

    def shifted(f, shift, constraint, want="all"):
        res = orig(f, shift, constraint, want=want)
        return dataclasses.replace(
            res, min_value=res.min_value + (Q(1, 2) if shift is None else Q(1, 3)))

    monkeypatch.setattr(inv_mod, "min_chi", shifted)


@pytest.mark.parametrize("name, message", [
    ("h1_cycle", r"h\^1 of O_z"),
    ("h1_twisted", r"twisted h\^1"),
    ("h1_bundle", "natural line bundle"),
    ("hilbert_h", "Hilbert function value"),
])
def test_integrality_checks_raise_invariant_violation(monkeypatch, name, message):
    f = build_form(graph_g1())
    z = laufer_zmin(f)
    lp = f.dual(G1_MINUS_THREE)
    call = {
        "h1_cycle": lambda: h1_cycle(f, z),
        "h1_twisted": lambda: h1_twisted(f, z, lp),
        "h1_bundle": lambda: h1_bundle(f, lp),
        "hilbert_h": lambda: hilbert_h(f, z),
    }[name]
    _shift_min_chi(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        call()


def test_minimally_elliptic_chi_check_raises(monkeypatch):
    import plumblat.invariants as inv_mod
    f = build_form(graph_g1())
    monkeypatch.setattr(inv_mod, "minimizer_meet", lambda res: f.unit(G1_END).scale(3))
    with pytest.raises(InvariantViolation, match="minimally elliptic cycle"):
        minimally_elliptic_cycle(f)
