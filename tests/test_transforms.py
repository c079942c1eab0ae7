"""Blow-ups and class restriction."""

import random
from fractions import Fraction as Q

import pytest

from plumblat import (
    DisconnectedSubgraph,
    InvariantViolation,
    NoSuchEdge,
    NoSuchVertex,
    blow_up_edge,
    blow_up_generic,
    geometric_genus,
    maximal_ideal_cycle,
    multiplicity_generic,
    restrict_class,
    ResolutionGraph,
)
from plumblat.invariants import classify, min_chi_lattice, SingularityClass

from corpus import form, oracle_corpus, graph_g1, graph_g2, single


def _rand_class(f, rng):
    acc = f.zero()
    for v in f.ids:
        k = rng.randint(-2, 2)
        if k:
            acc = acc + f.dual(v).scale(k)
    return acc


def test_generic_blow_up_single_vertex():
    res = blow_up_generic(single(-2), 1)
    assert res.graph.euler_map() == {1: -3, 2: -1}
    assert res.graph.edges == ((1, 2),)
    assert res.new_vertex == 2


def test_blow_up_preserves_determinant():
    for g in (graph_g1(), graph_g2()):
        f = form(g)
        for v in list(f.ids)[:3]:
            assert blow_up_generic(g, v).form.det_neg == f.det_neg
        u, w = g.edges[0]
        assert blow_up_edge(g, u, w).form.det_neg == f.det_neg


def test_blow_up_errors():
    with pytest.raises(NoSuchVertex):
        blow_up_generic(single(-2), 7)
    with pytest.raises(NoSuchEdge):
        blow_up_edge(graph_g1(), 1, 9)


def test_chi_shift_identity_random():
    rng = random.Random(20)
    for g in (graph_g1(), graph_g2()):
        f = form(g)
        for maker in (lambda: blow_up_generic(g, rng.choice(f.ids)),
                      lambda: blow_up_edge(g, *rng.choice(g.edges))):
            res = maker()
            for _ in range(25):
                lp = _rand_class(f, rng)
                k = rng.randint(-2, 3)
                lifted = res.pull(lp) + res.form.unit(res.new_vertex).scale(k)
                assert res.form.chi(lifted) == f.chi(lp) + Q(k * (k + 1), 2)


def test_pullback_is_isometry():
    rng = random.Random(21)
    g = graph_g2()
    f = form(g)
    res = blow_up_edge(g, 2, 3)
    for _ in range(20):
        x, y = _rand_class(f, rng), _rand_class(f, rng)
        assert res.form.pairing(res.pull(x), res.pull(y)) == f.pairing(x, y)


def test_min_chi_and_genus_invariant_under_blow_ups():
    for g in oracle_corpus()[::5] + [graph_g1()]:
        f = form(g)
        base = (min_chi_lattice(f).min_value, geometric_genus(f))
        res_v = blow_up_generic(g, f.ids[0])
        u, w = (g.edges[0] if g.edges else (None, None))
        candidates = [res_v] if u is None else [res_v, blow_up_edge(g, u, w)]
        for res in candidates:
            assert min_chi_lattice(res.form).min_value == base[0]
            assert geometric_genus(res.form) == base[1]


def test_zmax_transforms_upward():
    for g in (graph_g1(), graph_g2()):
        f = form(g)
        if classify(f).tag is SingularityClass.RATIONAL:
            continue
        zmax = maximal_ideal_cycle(f).cycle
        res = blow_up_generic(g, f.ids[0])
        new_zmax = maximal_ideal_cycle(res.form).cycle
        assert res.pull(zmax).leq(new_zmax)
        assert res.form.chi(new_zmax) == min_chi_lattice(res.form).min_value


def test_multiplicity_invariant_under_generic_blow_up():
    for g in (graph_g1(), graph_g2(), single(-3)):
        base = multiplicity_generic(form(g)).multiplicity
        res = blow_up_generic(g, form(g).ids[0])
        assert multiplicity_generic(res.form).multiplicity == base
        res2 = blow_up_generic(res.graph, res.new_vertex)
        assert multiplicity_generic(res2.form).multiplicity == base


def test_restrict_class_identity_on_full_set():
    f = form(graph_g2())
    lp = f.dual(3) + f.dual(1).scale(2)
    assert restrict_class(f, f.ids, lp) == lp


def test_restrict_class_kills_outside_duals():
    f = form(graph_g2())
    sub = (1, 2, 3)
    gone = restrict_class(f, sub, f.dual(5))
    assert gone.is_zero()


def test_restrict_class_pairing_property():
    rng = random.Random(22)
    f = form(graph_g1())
    sub = (1, 2, 3, 4, 10)
    sub_form = f.restrict(sub)
    for _ in range(15):
        lp = _rand_class(f, rng)
        r = restrict_class(f, sub, lp)
        for w in sub:
            assert sub_form.pairing_vertex(r, w) == f.pairing_vertex(lp, w)


def test_restrict_class_disconnected_rejected():
    f = form(graph_g1())
    with pytest.raises(DisconnectedSubgraph):
        restrict_class(f, (1, 9), f.canonical())


def test_pullback_isometry_check_raises(monkeypatch):
    import plumblat.transforms as tr_mod
    orig = tr_mod.build_form

    def heavier_new_vertex(g):
        # the blown-up graph with its new (-1)-curve turned into a (-2)-curve
        return orig(ResolutionGraph(tuple((v, -2 if e == -1 else e) for v, e in g.vertices),
                                    g.edges, g.name))

    monkeypatch.setattr(tr_mod, "build_form", heavier_new_vertex)
    with pytest.raises(InvariantViolation, match="pullback broke the pairing"):
        blow_up_generic(single(-2), 1)
