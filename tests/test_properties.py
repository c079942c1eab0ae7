"""Property-based checks over randomly drawn negative-definite trees."""

from fractions import Fraction as Q

from hypothesis import assume, given, settings, strategies as st

from plumblat import (
    Constraint,
    NotNegativeDefinite,
    ResolutionGraph,
    SingularityClass,
    blow_up_generic,
    build_form,
    classify,
    hilbert_h,
    laufer_zmin,
    maximal_ideal_cycle,
    min_chi,
)


@st.composite
def tree_forms(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    parents = [draw(st.integers(min_value=1, max_value=i)) for i in range(1, n)]
    weights = [draw(st.integers(min_value=-6, max_value=-2)) for _ in range(n)]
    g = ResolutionGraph.build(
        [(i + 1, weights[i]) for i in range(n)],
        [(parents[i - 1], i + 1) for i in range(1, n)])
    try:
        return build_form(g)
    except NotNegativeDefinite:
        assume(False)


@st.composite
def form_and_cycles(draw):
    f = draw(tree_forms())
    def rat():
        return [Q(draw(st.integers(-8, 8)), draw(st.sampled_from([1, 2, 3])))
                for _ in f.ids]
    return f, f.cycle(rat()), f.cycle(rat())


@given(form_and_cycles())
@settings(max_examples=60, deadline=None)
def test_chi_duality_and_bilinearity(data):
    f, x, y = data
    zk = f.canonical()
    assert f.chi(x) == f.chi(zk - x)
    assert f.chi(x + y) == f.chi(x) + f.chi(y) - f.pairing(x, y)


@given(tree_forms())
@settings(max_examples=60, deadline=None)
def test_dual_basis_properties(f):
    for u in f.ids:
        du = f.dual(u)
        assert all(c > 0 for c in du.coeffs)
        for v in f.ids:
            assert f.pairing_vertex(du, v) == -(1 if u == v else 0)


@given(tree_forms())
@settings(max_examples=40, deadline=None)
def test_min_nonneg_equals_lattice(f):
    assert (min_chi(f, None, Constraint.nonnegative(f)).min_value
            == min_chi(f, None, Constraint.over_lattice()).min_value)


@given(tree_forms())
@settings(max_examples=40, deadline=None)
def test_fundamental_cycle_properties(f):
    z = laufer_zmin(f)
    assert f.in_lipman_cone(z)
    assert all(c >= 1 for c in z.coeffs)
    assert f.chi(z) <= 1
    assert (f.chi(z) == 1) == (classify(f).tag is SingularityClass.RATIONAL)


@given(tree_forms(), st.integers(0, 2), st.data())
@settings(max_examples=30, deadline=None)
def test_hilbert_zero_and_monotone(f, bump, data):
    assert hilbert_h(f, f.zero()) == 0
    l0 = f.cycle([data.draw(st.integers(0, 2)) for _ in f.ids])
    v = data.draw(st.sampled_from(f.ids))
    assert hilbert_h(f, l0) <= hilbert_h(f, l0 + f.unit(v))


@given(tree_forms())
@settings(max_examples=30, deadline=None)
def test_zmin_below_zmax_when_nonrational(f):
    if classify(f).tag is SingularityClass.RATIONAL:
        return
    assert laufer_zmin(f).leq(maximal_ideal_cycle(f).cycle)


@given(tree_forms(), st.data())
@settings(max_examples=25, deadline=None)
def test_blow_up_chi_shift(f, data):
    v = data.draw(st.sampled_from(f.ids))
    res = blow_up_generic(f.graph, v)
    k = data.draw(st.integers(-2, 3))
    lp = f.cycle([Q(data.draw(st.integers(-4, 4)), 2) for _ in f.ids])
    lifted = res.pull(lp) + res.form.unit(res.new_vertex).scale(k)
    assert res.form.chi(lifted) == f.chi(lp) + Q(k * (k + 1), 2)
