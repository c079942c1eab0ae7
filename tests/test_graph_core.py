"""Lattice layer: forms, duals, canonical class, chi."""

import random
from fractions import Fraction as Q

import pytest

from plumblat import (
    Cycle,
    Disconnected,
    GraphStructureError,
    NotATree,
    NotNegativeDefinite,
    ResolutionGraph,
    build_form,
)
from plumblat.minimize import laufer_zmin, min_chi, Constraint, minimizer_join

from corpus import (
    G1_MINUS_THREE,
    a_n,
    e_n,
    form,
    full_corpus,
    graph_g1,
    graph_g2,
    single,
)


def cofactor_det(m):
    """Independent determinant oracle by Laplace expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_single_minus_two_form():
    f = form(single(-2))
    assert f.matrix == ((-2,),)
    assert f.det_neg == 2
    assert f.dual(1) == f.cycle([Q(1, 2)])
    assert f.canonical() == f.zero()


def test_e8_determinant_against_cofactor_oracle():
    f = form(e_n(8))
    neg = [[-x for x in row] for row in f.matrix]
    assert cofactor_det(neg) == 1
    assert f.det_neg == 1


def test_det_matches_cofactor_oracle_on_corpus():
    for g in full_corpus():
        f = form(g)
        neg = [[-x for x in row] for row in f.matrix]
        assert f.det_neg == cofactor_det(neg)


def test_positive_vertex_rejected():
    with pytest.raises(NotNegativeDefinite) as exc:
        build_form(single(1))
    assert exc.value.minor_index == 1


def test_semidefinite_rejected():
    # affine D4: center -2 with four -2 legs has determinant zero
    g = ResolutionGraph.build([(1, -2)] + [(i, -2) for i in range(2, 6)],
                              [(1, i) for i in range(2, 6)])
    with pytest.raises(NotNegativeDefinite):
        build_form(g)


def test_structure_errors():
    with pytest.raises(NotATree):
        build_form(ResolutionGraph.build([(1, -2), (2, -2)], []))
    with pytest.raises(Disconnected):
        build_form(ResolutionGraph.build(
            [(1, -2), (2, -2), (3, -2), (4, -2)], [(1, 2), (2, 3), (3, 1)]))
    with pytest.raises(GraphStructureError):
        build_form(ResolutionGraph.build([(1, -2), (1, -3)], []))
    with pytest.raises(GraphStructureError):
        build_form(ResolutionGraph.build([(1, -2), (2, -2)], [(1, 3)]))
    with pytest.raises(GraphStructureError):
        build_form(ResolutionGraph.build([(1, -2), (2, -2)], [(1, 1)]))
    with pytest.raises(GraphStructureError):
        build_form(ResolutionGraph.build(
            [(1, -2), (2, -2), (3, -2)], [(1, 2), (2, 1)]))


def test_a2_dual_cycle_exact():
    f = form(a_n(2))
    assert f.dual(1) == f.cycle([Q(2, 3), Q(1, 3)])
    assert f.dual(2) == f.cycle([Q(1, 3), Q(2, 3)])


def test_dual_pairings_and_positivity():
    for g in full_corpus():
        f = form(g)
        for u in f.ids:
            du = f.dual(u)
            assert all(c > 0 for c in du.coeffs)
            assert f.in_lipman_cone(du)
            for v in f.ids:
                assert f.pairing(du, f.unit(v)) == -(1 if u == v else 0)


def test_canonical_single_minus_three():
    f = form(single(-3))
    assert f.canonical() == f.cycle([Q(1, 3)])


def test_canonical_g1_is_dual_of_minus_three_vertex():
    f = form(graph_g1())
    assert f.canonical() == f.dual(G1_MINUS_THREE)


def test_chi_values():
    f = form(graph_g1())
    zk = f.canonical()
    assert f.chi(f.zero()) == 0
    assert f.chi(zk) == 0
    g2 = form(graph_g2())
    zmax = g2.dual(3).scale(2)
    assert g2.chi(zmax) == -1
    assert g2.chi(g2.canonical()) == g2.chi(zmax) + 1


def test_chi_identities_random():
    rng = random.Random(12)
    for g in full_corpus()[::3]:
        f = form(g)
        zk = f.canonical()
        for _ in range(50):
            x = f.cycle([Q(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in f.ids])
            y = f.cycle([Q(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in f.ids])
            assert f.chi(x) == f.chi(zk - x)
            assert f.chi(x + y) == f.chi(x) + f.chi(y) - f.pairing(x, y)


def test_order_and_integrality_predicates():
    f = form(graph_g1())
    zmin = laufer_zmin(f)
    zmax = minimizer_join(min_chi(f, None, Constraint.positive(f)))
    assert zmin.leq(zmax)
    assert zmin.is_integral()
    assert not f.cycle([Q(1, 2)] + [0] * (f.n - 1)).is_integral()
    assert not zmax.leq(zmin)


def test_cycle_arithmetic():
    ids = (1, 2, 3)
    a = Cycle.from_seq(ids, [1, 0, 2])
    b = Cycle.from_dict(ids, {2: 5})
    assert (a + b).as_dict() == {1: 1, 2: 5, 3: 2}
    assert (a - b).coeff(2) == -5
    assert a.scale(Q(1, 2)).coeffs == (Q(1, 2), 0, 1)
    assert a.join(b).coeffs == (1, 5, 2)
    assert a.meet(b).coeffs == (0, 0, 0)
    assert a.support() == (1, 3)
    assert (-a).coeff(1) == -1
    with pytest.raises(ValueError):
        a + Cycle.from_seq((1, 2), [1, 1])


def test_restrict_form_copies_euler_numbers():
    f = form(graph_g2())
    sub = f.restrict((1, 2, 3))
    assert sub.graph.euler_map() == {1: -3, 2: -1, 3: -13}
    assert sub.matrix[0][1] == 1
