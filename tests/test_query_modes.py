"""Query-shaped minimization: what each ``want`` keeps, and the Artin shortcut."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import plumblat.checks as checks_mod
import plumblat.invariants as inv_mod
from plumblat import (
    Constraint,
    Cycle,
    EmptyFeasibleRegion,
    ExtremalNotMinimizer,
    InvariantViolation,
    NotNegativeDefinite,
    ResolutionGraph,
    SingularityClass,
    build_form,
    classify,
    min_chi,
    minimizer_join,
    minimizer_meet,
)
from plumblat.checks import run_selfcheck

from corpus import chain, graph_g1, oracle_corpus, star


def test_value_result_keeps_a_witness_and_refuses_extremes():
    f = build_form(chain("a2", [-2, -2]))
    res = min_chi(f, None, Constraint.positive(f), want="value")
    assert res.want == "value" and res.min_value == 1
    (witness,) = res.minimizers
    assert f.chi(witness) == 1 and not witness.is_zero()
    with pytest.raises(ValueError, match="'value' result"):
        minimizer_join(res)
    with pytest.raises(ValueError, match="'value' result"):
        minimizer_meet(res)


def test_extremes_verify_join_and_meet_separately():
    # positive minimizers on A_2 are E_1, E_2 and E_1 + E_2: the join is one
    # of them, the meet is the excluded 0
    f = build_form(chain("a2", [-2, -2]))
    res = min_chi(f, None, Constraint.positive(f), want="extremes")
    assert minimizer_join(res) == f.total()
    with pytest.raises(ExtremalNotMinimizer, match="meet"):
        minimizer_meet(res)
    full = min_chi(build_form(chain("a2", [-2, -2])), None, Constraint.positive(f))
    assert minimizer_join(full) == f.total()
    with pytest.raises(ExtremalNotMinimizer, match="meet"):
        minimizer_meet(full)


def test_meet_at_the_excluded_zero_is_not_a_minimizer():
    # on A_3 shifted by E_2, chi(E_2 + 0) equals the minimum over l > 0, and
    # the meet of the minimizers is 0: only the exclusion rules it out
    f = build_form(chain("a3", [-2, -2, -2]))
    shift = f.unit(2)
    for want in ("extremes", "all"):
        res = min_chi(build_form(f.graph), shift, Constraint.positive(f), want=want)
        assert res.min_value == f.chi(shift)
        assert res.meet.cycle.is_zero()
        with pytest.raises(ExtremalNotMinimizer, match="meet"):
            minimizer_meet(res)


def test_cache_answers_same_or_weaker_modes_only():
    f = build_form(graph_g1())
    cons = Constraint.positive(f)
    value = min_chi(f, None, cons, want="value")
    assert min_chi(f, None, cons, want="value") is value
    extremes = min_chi(f, None, cons, want="extremes")
    assert extremes.want == "extremes"
    assert min_chi(f, None, cons, want="value") is extremes
    full = min_chi(f, None, cons)
    assert full.want == "all" and len(full.minimizers) > 1
    assert min_chi(f, None, cons, want="extremes") is full
    assert min_chi(f, None, cons, want="value") is full
    assert len(f._minchi_cache) == 1


def test_unknown_want_is_rejected():
    f = build_form(chain("a1", [-2]))
    with pytest.raises(ValueError, match="want"):
        min_chi(f, None, Constraint.positive(f), want="join")


def test_cache_keys_are_integer_tuples():
    f = build_form(graph_g1())
    min_chi(f, f.dual(8), Constraint.positive(f), want="value")
    min_chi(f, None, Constraint.box(f.zero(), f.total()), want="value")
    for key in f._minchi_cache:
        flat = [x for part in key for x in (part if isinstance(part, tuple) else (part,))]
        assert all(x is None or type(x) in (int, bool) for x in flat), key


# ---------------------------------------------------------------------------
# differential: every mode against the complete set on random trees
# ---------------------------------------------------------------------------


@st.composite
def small_trees(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    parents = [draw(st.integers(min_value=1, max_value=i)) for i in range(1, n)]
    weights = [draw(st.integers(min_value=-6, max_value=-1)) for _ in range(n)]
    g = ResolutionGraph.build([(i + 1, weights[i]) for i in range(n)],
                              [(parents[i - 1], i + 1) for i in range(1, n)])
    try:
        build_form(g)
    except NotNegativeDefinite:
        assume(False)
    return g


@st.composite
def queries(draw):
    g = draw(small_trees())
    f = build_form(g)
    kind = draw(st.sampled_from(["none", "integral", "dual"]))
    if kind == "none":
        shift = None
    elif kind == "integral":
        shift = f.cycle([draw(st.integers(-3, 3)) for _ in f.ids])
    else:
        shift = f.zero()
        for v in f.ids:
            shift = shift + f.dual(v).scale(draw(st.integers(-2, 2)))
    cons = draw(st.sampled_from(
        ["lattice", "nonnegative", "positive", "box", "box-positive", "at-least"]))
    return g, shift, cons, draw(st.data())


def _constraint(f, name, data):
    if name == "lattice":
        return Constraint.over_lattice()
    if name == "nonnegative":
        return Constraint.nonnegative(f)
    if name == "positive":
        return Constraint.positive(f)
    if name == "at-least":
        return Constraint.at_least(f.unit(data.draw(st.sampled_from(f.ids))))
    upper = f.cycle([data.draw(st.integers(0, 3)) for _ in f.ids])
    return Constraint.box(f.zero(), upper, exclude_zero=name == "box-positive")


def _extremal_or_error(fn, res):
    try:
        return fn(res)
    except ExtremalNotMinimizer:
        return ExtremalNotMinimizer


def _reference_extremal(pick, minimizers):
    """Componentwise pick over the complete set, if it is a member."""
    acc = Cycle(minimizers[0].ids, tuple(map(pick, zip(*(m.coeffs for m in minimizers)))))
    return acc if acc in minimizers else ExtremalNotMinimizer


def _search(f, shift, cons, want):
    try:
        return min_chi(f, shift, cons, want=want)
    except EmptyFeasibleRegion:
        return EmptyFeasibleRegion


@given(queries())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_modes_agree_with_the_complete_set(q):
    g, shift, name, data = q
    fresh = build_form(g)
    cons = _constraint(fresh, name, data)
    full = _search(fresh, shift, cons, "all")

    f = build_form(g)
    value = _search(f, shift, cons, "value")
    extremes = _search(f, shift, cons, "extremes")
    again = _search(f, shift, cons, "all")
    if full is EmptyFeasibleRegion:
        assert value is extremes is again is EmptyFeasibleRegion
        return

    assert value.min_value == extremes.min_value == full.min_value
    assert value.minimizers[0] in full.minimizers
    assert extremes.minimizers[0] in full.minimizers
    for fn, pick in ((minimizer_join, max), (minimizer_meet, min)):
        ref = _reference_extremal(pick, full.minimizers)
        assert _extremal_or_error(fn, extremes) == _extremal_or_error(fn, full) == ref
    assert again.want == "all"
    assert (again.min_value, again.minimizers, again.stats) == \
        (full.min_value, full.minimizers, full.stats)


@given(small_trees())
@settings(max_examples=80, deadline=None)
def test_artin_classification_matches_the_search(g):
    f = build_form(g)
    mp = min_chi(f, None, Constraint.positive(f), want="value").min_value
    if mp >= 1:
        tag = SingularityClass.RATIONAL
    elif mp == 0:
        tag = SingularityClass.ELLIPTIC
    else:
        tag = SingularityClass.GENERAL
    cls = classify(f)
    assert (cls.tag, cls.min_chi_positive) == (tag, mp)


def test_complete_sets_match_the_recorded_search():
    # totals over the oracle corpus (minimizers, nodes, candidates, box
    # volume), recorded before the query modes existed: "all" keeps the
    # same search, pruning and sets
    tot = [0, 0, 0, 0]
    for g in oracle_corpus():
        f = build_form(g)
        queries = [(None, Constraint.over_lattice()), (None, Constraint.positive(f))]
        queries += [(f.canonical(), Constraint.at_least(f.unit(v))) for v in f.ids]
        for shift, cons in queries:
            r = min_chi(f, shift, cons)
            for i, x in enumerate((len(r.minimizers), r.stats.nodes,
                                   r.stats.candidates, r.stats.box_volume)):
                tot[i] += x
    assert tot == [3524, 7382, 3567, 166598395]


# ---------------------------------------------------------------------------
# the Artin shortcut
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [18, 24])
def test_rational_stars_classify_without_a_search(monkeypatch, k):
    calls = []
    orig = inv_mod.min_chi

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(inv_mod, "min_chi", counted)
    f = build_form(star(f"star{k}", -(k + 1), [-3] * k))
    cls = classify(f)
    assert cls.tag is SingularityClass.RATIONAL and cls.min_chi_positive == 1
    assert calls == []


def test_selfcheck_artin_check_compares_with_the_search(monkeypatch):
    orig = checks_mod.min_chi_positive

    def claims_rational(f, want="all"):
        return dataclasses.replace(orig(f, want), min_value=Fraction(1))

    monkeypatch.setattr(checks_mod, "min_chi_positive", claims_rational)
    verdicts = {name: ok for name, ok, _ in run_selfcheck(build_form(graph_g1()))}
    assert verdicts["artin-criteria-agree"] is False


def test_search_contradicting_artin_is_an_invariant_violation(monkeypatch):
    orig = inv_mod.min_chi_positive

    def claims_rational(f, want="all"):
        return dataclasses.replace(orig(f, want), min_value=Fraction(1))

    monkeypatch.setattr(inv_mod, "min_chi_positive", claims_rational)
    with pytest.raises(InvariantViolation, match="rules out a rational graph"):
        classify(build_form(graph_g1()))
