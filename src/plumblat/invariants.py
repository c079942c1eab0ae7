"""Invariants of the generic analytic structure on a graph.

For the generic structure every quantity here reduces to constrained minima
of chi: the geometric genus, h^1 of natural line bundles on cycles, the
multivariable Hilbert function, membership in the analytic semigroup, the
maximal ideal cycle, and the rational/elliptic trichotomy.  All values are
exact integers or Fractions; every function is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DisconnectedSupport, NegativeInput, NotElliptic, check_identity
from .graph import Cycle, IntersectionForm, is_minimal_resolution
from .minimize import ChiMinResult, Constraint, laufer_zmin, min_chi, minimizer_join, minimizer_meet

__all__ = [
    "SingularityClass",
    "GraphClass",
    "InvariantReport",
    "MaxIdealCycle",
    "TwistedH1",
    "classify",
    "geometric_genus",
    "h1_cycle",
    "h1_twisted",
    "h1_bundle",
    "hilbert_h",
    "in_analytic_semigroup",
    "maximal_ideal_cycle",
    "minimally_elliptic_cycle",
    "e_dimension",
    "big_cycle",
    "invariant_report",
    "min_chi_lattice",
    "min_chi_positive",
]


class SingularityClass(Enum):
    RATIONAL = "rational"
    ELLIPTIC = "elliptic"
    GENERAL = "general"


@dataclass(frozen=True)
class GraphClass:
    tag: SingularityClass
    min_chi_positive: Fraction
    numerically_gorenstein: bool
    is_minimal: bool


class MaxIdealCycle(NamedTuple):
    cycle: Cycle
    artin_fallback: bool  # True on rational graphs, where Z_max = Z_min


@dataclass(frozen=True)
class TwistedH1:
    value: int
    hypothesis_ok: bool  # positivity of the Chern class over the support


@dataclass(frozen=True)
class InvariantReport:
    p_g: int
    z_min: Cycle
    z_max: Cycle
    graph_class: GraphClass
    min_chi: Fraction  # min of chi over the whole lattice


# ---------------------------------------------------------------------------
# minima used everywhere
# ---------------------------------------------------------------------------


def min_chi_lattice(f: IntersectionForm, want: str = "all") -> ChiMinResult:
    """min of chi over all of L (min_chi results are cached on the form)."""
    return min_chi(f, None, Constraint.over_lattice(), want=want)


def min_chi_positive(f: IntersectionForm, want: str = "all") -> ChiMinResult:
    """min of chi over l > 0."""
    return min_chi(f, None, Constraint.positive(f), want=want)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(f: IntersectionForm) -> GraphClass:
    """Rational, elliptic or general by the minimum of chi over l > 0.

    Artin's criterion decides rationality without a search: the graph is
    rational exactly when chi(Z_min) = 1, and then that minimum is 1.
    """
    chi_zmin = f.chi(laufer_zmin(f))
    if chi_zmin == 1:
        tag, mp = SingularityClass.RATIONAL, Fraction(1)
    else:
        mp = min_chi_positive(f, "value").min_value
        check_identity(mp <= 1, f"min chi over l > 0 is {mp}, but chi(Z_min) <= 1 bounds it")
        check_identity(mp < 1, f"chi(Z_min) = {chi_zmin} rules out a rational graph, "
                               f"but min chi over l > 0 is {mp}")
        tag = SingularityClass.ELLIPTIC if mp == 0 else SingularityClass.GENERAL
    return GraphClass(tag, mp, f.canonical().is_integral(), is_minimal_resolution(f.graph))


def geometric_genus(f: IntersectionForm) -> int:
    """1 - min over l>0 of chi on non-rational graphs, 0 on rational ones."""
    return _genus(f, classify(f))


def _genus(f: IntersectionForm, cls: GraphClass) -> int:
    mp = cls.min_chi_positive
    if cls.tag is SingularityClass.RATIONAL:
        check_identity(mp == 1, f"rational graph with min chi over l > 0 = {mp}, not 1")
        return 0
    pg = 1 - mp
    # the two branches of the genus formula must agree
    ml = min_chi_lattice(f, "value").min_value
    check_identity(pg == 1 - ml and pg.denominator == 1 and pg > 0,
                   f"genus formulas disagree: 1 - min over l>0 = {pg}, over L {1 - ml}")
    return int(pg)


# ---------------------------------------------------------------------------
# cohomology of natural line bundles
# ---------------------------------------------------------------------------


def _check_h1(val: Fraction, what: str) -> None:
    check_identity(val.denominator == 1 and val >= 0,
                   f"{what} is {val}, not a non-negative integer")


def h1_cycle(f: IntersectionForm, z: Cycle) -> int:
    """h^1 of the structure sheaf of an effective cycle z > 0."""
    if not z.is_integral() or not z.is_effective() or z.is_zero():
        raise ValueError("z must be a nonzero effective integral cycle")
    support = z.support()
    if support != f.ids:
        comps = f.graph.components_of(support)
        if len(comps) != 1:
            raise DisconnectedSupport(f"support {support} has {len(comps)} components")
        f = f.restrict(support)
        z = z.restrict(support)
    res = min_chi(f, None, Constraint.box(f.zero(), z, exclude_zero=True), want="value")
    val = 1 - res.min_value
    _check_h1(val, "h^1 of O_z")
    return int(val)


def h1_twisted(f: IntersectionForm, z: Cycle, lp: Cycle) -> TwistedH1:
    """h^1(z, O_z(-lp)) for the generic structure.

    The formula assumes lp has positive coefficients over the support of z;
    when that fails the value is still computed and flagged, since the
    unbounded variant (:func:`h1_bundle`) covers those Chern classes.
    """
    if not z.is_integral() or not z.is_effective() or z.is_zero():
        raise ValueError("z must be a nonzero effective integral cycle")
    if not f.in_dual_lattice(lp):
        raise ValueError("lp must lie in the dual lattice")
    ok = all(lp.coeff(v) > 0 for v in z.support())
    res = min_chi(f, lp, Constraint.box(f.zero(), z), want="value")
    val = f.chi(lp) - res.min_value
    _check_h1(val, "twisted h^1")
    return TwistedH1(int(val), ok)


def h1_bundle(f: IntersectionForm, lp: Cycle) -> int:
    """h^1 of the natural line bundle with Chern class -lp on the resolution.

    The correction branch applies exactly to integral lp <= 0 on non-rational
    graphs; non-integral classes can never satisfy lp <= 0 inside L.
    """
    if not f.in_dual_lattice(lp):
        raise ValueError("lp must lie in the dual lattice")
    res = min_chi(f, lp, Constraint.nonnegative(f), want="value")
    val = f.chi(lp) - res.min_value
    if lp.is_integral() and all(c <= 0 for c in lp.coeffs) \
            and classify(f).tag is not SingularityClass.RATIONAL:
        val += 1
    _check_h1(val, "h^1 of the natural line bundle")
    return int(val)


def hilbert_h(f: IntersectionForm, l0: Cycle) -> int:
    """Multivariable Hilbert function of the generic structure at l0 >= 0."""
    if not l0.is_integral() or not l0.is_effective():
        raise NegativeInput(f"l0 must be an effective integral cycle, got {l0}")
    if l0.is_zero():
        return 0
    shifted = min_chi(f, l0, Constraint.nonnegative(f), want="value").min_value
    base = min_chi(f, None, Constraint.nonnegative(f), want="value").min_value
    val = shifted - base
    if classify(f).tag is not SingularityClass.RATIONAL:
        val += 1
    _check_h1(val, "Hilbert function value")
    return int(val)


# ---------------------------------------------------------------------------
# semigroup and distinguished cycles
# ---------------------------------------------------------------------------


def in_analytic_semigroup(f: IntersectionForm, lp: Cycle) -> bool:
    """Chern classes of function divisors of the generic structure.

    Membership for lp != 0 is strict growth of chi: chi(lp + l) > chi(lp)
    for every l > 0.
    """
    if not f.in_dual_lattice(lp):
        raise ValueError("lp must lie in the dual lattice")
    if lp.is_zero():
        return True
    res = min_chi(f, lp, Constraint.positive(f), want="value")
    return res.min_value > f.chi(lp)


def maximal_ideal_cycle(f: IntersectionForm) -> MaxIdealCycle:
    """Unique maximal cycle among the positive minimizers of chi.

    On rational graphs the minimizer recipe is vacuous (the only lattice
    minimizer of chi is 0) and the fundamental cycle is returned instead,
    flagged as the Artin fallback.
    """
    return _maximal_ideal_cycle(f, classify(f))


def _maximal_ideal_cycle(f: IntersectionForm, cls: GraphClass,
                         zmin: Optional[Cycle] = None) -> MaxIdealCycle:
    """Z_max of a graph of class ``cls``; ``zmin`` saves the Laufer run."""
    if cls.tag is SingularityClass.RATIONAL:
        return MaxIdealCycle(laufer_zmin(f) if zmin is None else zmin, True)
    res = min_chi_positive(f, "extremes")
    ml = min_chi_lattice(f, "value").min_value
    check_identity(res.min_value == ml,
                   f"min chi over l > 0 ({res.min_value}) differs from min chi over L ({ml})")
    return MaxIdealCycle(minimizer_join(res), False)


def minimally_elliptic_cycle(f: IntersectionForm) -> Cycle:
    """Smallest positive cycle with chi = 0 on an elliptic graph."""
    cls = classify(f)
    if cls.tag is not SingularityClass.ELLIPTIC:
        raise NotElliptic(f"graph classifies as {cls.tag.value}")
    res = min_chi_positive(f, "extremes")
    c = minimizer_meet(res)
    chi_c = f.chi(c)
    check_identity(chi_c == 0, f"minimally elliptic cycle {c} has chi {chi_c}, not 0")
    return c


def e_dimension(f: IntersectionForm, lp: Cycle) -> int:
    """Genus drop when the anti-dual support of lp is removed from the graph.

    Computed as p_g of the whole graph minus the sum of p_g over the connected
    components of the complement of the support, each evaluated by the generic
    genus formula.
    """
    coords = f.dual_coordinates(lp)
    if not (all(a >= 0 for a in coords.values()) or all(a <= 0 for a in coords.values())):
        raise ValueError("lp must lie in the Lipman cone or its negative")
    support = tuple(v for v in f.ids if coords[v] != 0)
    rest = tuple(v for v in f.ids if v not in support)
    total = geometric_genus(f)
    for comp in f.graph.components_of(rest):
        total -= geometric_genus(f.restrict(comp))
    return total


def big_cycle(f: IntersectionForm) -> Cycle:
    """An effective cycle acting as 'all coefficients very large'.

    Starts at ceil of the canonical class and grows by the reduced full cycle
    until the bounded minimum of chi, including its minimizer set, stops
    changing; one more growth step is returned for headroom.
    """
    base = f.canonical().ceil().join(f.zero())
    step = f.total()
    c = 1
    prev = None
    while True:
        z = base + step.scale(c)
        res = min_chi(f, None, Constraint.box(f.zero(), z, exclude_zero=True))
        cur = (res.min_value, res.minimizers)
        if prev == cur:
            return z
        prev = cur
        c += 1


def invariant_report(f: IntersectionForm) -> InvariantReport:
    cls = classify(f)
    pg = _genus(f, cls)
    zmin = laufer_zmin(f)
    zmax = _maximal_ideal_cycle(f, cls, zmin).cycle
    ml = min_chi_lattice(f, "value").min_value
    if pg > 0:
        check_identity(zmin.leq(zmax), f"Z_min = {zmin} is not below Z_max = {zmax}")
        chi_max = f.chi(zmax)
        check_identity(chi_max == ml, f"chi(Z_max) = {chi_max} differs from min chi = {ml}")
    return InvariantReport(pg, zmin, zmax, cls, ml)
