"""Lattice layer: forms, duals, canonical class, chi."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from plumblat import (
    Cycle,
    Disconnected,
    GraphStructureError,
    NotATree,
    NotNegativeDefinite,
    ResolutionGraph,
    build_form,
)
import plumblat.graph as graph_mod
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
    with pytest.raises(NotNegativeDefinite) as exc:
        build_form(g)
    assert exc.value.minor_index == 5


def test_indefinite_chain_rejected_at_first_failing_minor():
    g = ResolutionGraph.build([(1, -2), (2, -1), (3, -2), (4, -2)],
                              [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotNegativeDefinite) as exc:
        build_form(g)
    assert exc.value.minor_index == 3


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


# ---------------------------------------------------------------------------
# integer core: adjugate, determinant and sparse pairing against oracles
# ---------------------------------------------------------------------------


@st.composite
def trees(draw, n_max=8, w_min=-6):
    n = draw(st.integers(min_value=1, max_value=n_max))
    parents = [draw(st.integers(min_value=1, max_value=i)) for i in range(1, n)]
    weights = [draw(st.integers(min_value=w_min, max_value=-1)) for _ in range(n)]
    return ResolutionGraph.build([(i + 1, weights[i]) for i in range(n)],
                                 [(parents[i - 1], i + 1) for i in range(1, n)])


def definite_form(g):
    try:
        return build_form(g)
    except NotNegativeDefinite:
        assume(False)


def intersection_matrix(g):
    """Dense I of a graph that may fail to be definite, in ascending id order."""
    ids = g.ids
    eul = g.euler_map()
    m = [[eul[v] if v == w else 0 for w in ids] for v in ids]
    for a, b in g.edges:
        m[ids.index(a)][ids.index(b)] = m[ids.index(b)][ids.index(a)] = 1
    return m


def neg_matrix(f, rows=None):
    rows = range(f.n) if rows is None else rows
    return [[-f.matrix[i][j] for j in rows] for i in rows]


def tree_path(f, u, v):
    """Vertex indices on the tree path from u to v, both ends included."""
    prev, todo = {u: None}, [u]
    while todo:
        x = todo.pop()
        for w in f.neighbours[x]:
            if w not in prev:
                prev[w] = x
                todo.append(w)
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path


def complement_det(f, removed):
    """det(-I) of the graph minus ``removed``, as a product over components."""
    keep = [f.ids[i] for i in range(f.n) if i not in set(removed)]
    total = 1
    for comp in f.graph.components_of(keep):
        total *= cofactor_det(neg_matrix(f, [f.index[v] for v in comp]))
    return total


def dense_pairing(f, x, y):
    return sum(x.coeffs[i] * f.matrix[i][j] * y.coeffs[j]
               for i in range(f.n) for j in range(f.n))


@given(trees())
@settings(max_examples=80, deadline=None)
def test_adjugate_and_det_against_cofactor_oracle(g):
    f = definite_form(g)
    neg = neg_matrix(f)
    assert f.det_neg == cofactor_det(neg)
    for u in range(f.n):
        for v in range(f.n):
            minor = [[neg[i][j] for j in range(f.n) if j != u]
                     for i in range(f.n) if i != v]
            cof = (-1) ** (u + v) * (cofactor_det(minor) if minor else 1)
            assert f.adj_neg[u][v] == cof


@given(trees())
@settings(max_examples=80, deadline=None)
def test_adjugate_matches_tree_formula(g):
    # (-I)^{-1}_uv = det(G minus the path [u, v]) / det(G) on a tree
    f = definite_form(g)
    for u in range(f.n):
        for v in range(f.n):
            assert f.adj_neg[u][v] == complement_det(f, tree_path(f, u, v))


@given(trees(), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_pairing_and_chi_against_dense_reference(g, data):
    f = definite_form(g)

    def rat():
        return f.cycle([Q(data.draw(st.integers(-8, 8)), data.draw(st.sampled_from([1, 2, 3, 5])))
                        for _ in f.ids])

    x, y = rat(), rat()
    k = f.canonical()
    assert f.pairing(x, y) == dense_pairing(f, x, y)
    assert f.chi(x) == -(dense_pairing(f, x, x) - dense_pairing(f, x, k)) / 2
    for i, v in enumerate(f.ids):
        assert f.pairing_vertex(x, v) == dense_pairing(f, x, f.unit(v))
        # adjunction: (K, E_v) = E_v^2 + 2
        assert dense_pairing(f, k, f.unit(v)) == f.matrix[i][i] + 2


@given(trees())
@settings(max_examples=80, deadline=None)
def test_rejection_index_is_first_failing_leading_minor(g):
    neg = [[-x for x in row] for row in intersection_matrix(g)]
    minors = [cofactor_det([row[:k] for row in neg[:k]]) for k in range(1, len(neg) + 1)]
    failing = next((k + 1 for k, m in enumerate(minors) if m <= 0), None)
    if failing is None:
        assert build_form(g).det_neg == minors[-1]
    else:
        with pytest.raises(NotNegativeDefinite) as exc:
            build_form(g)
        assert exc.value.minor_index == failing


@pytest.mark.parametrize("entry", [(0, 0), (0, 2), (3, 1)])
def test_corrupted_adjugate_is_rejected(monkeypatch, entry):
    orig = graph_mod._eliminate

    def corrupted(neg):
        det, adj = orig(neg)
        rows = [list(r) for r in adj]
        rows[entry[0]][entry[1]] += 1
        return det, tuple(tuple(r) for r in rows)

    monkeypatch.setattr(graph_mod, "_eliminate", corrupted)
    with pytest.raises(GraphStructureError, match="adjugate"):
        build_form(a_n(4))


@pytest.mark.parametrize("n", [80, 160])
def test_long_chain_det_and_first_dual(n):
    f = build_form(a_n(n))
    assert f.det_neg == n + 1
    assert f.dual(1).coeffs == tuple(Q(n + 1 - j, n + 1) for j in range(1, n + 1))
    assert laufer_zmin(f) == f.total()


def rescan_zmin(f):
    """Laufer's iteration as first written: rescan from vertex 0 each time."""
    m, n = f.matrix, f.n
    z = [1] * n
    while True:
        for v in range(n):
            if sum(m[v][j] * z[j] for j in range(n)) > 0:
                z[v] += 1
                break
        else:
            return f.cycle(z)


@given(trees(n_max=12, w_min=-4))
@settings(max_examples=120, deadline=None)
def test_worklist_laufer_matches_rescan(g):
    f = definite_form(g)
    assert laufer_zmin(f) == rescan_zmin(f)
