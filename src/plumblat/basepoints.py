"""Base points of natural line bundles and the generic multiplicity formula.

A vertex v can carry base points of the bundle with Chern class -lp exactly
when (lp, E_v) < 0 and the depth-one condition holds:

    min over l >= E_v of chi(lp + l)  =  chi(lp) + 1.

In that case there are exactly -(lp, E_v) base points on E_v, all of local
type (x^t, y) with t read off the level set

    S_v = { l >= E_v : chi(lp + l) = chi(lp) + 1 }:

t = coefficient of v in the (unique, verified) maximal element of S_v, and
the minimal element of S_v is the smallest cycle realizing the depth.  The
extremal elements must pass the membership check; a failure is reported as a
hypothesis violation, never patched over.

Summing the contributions over all such vertices on the maximal ideal cycle
yields the multiplicity of the generic structure:

    mult = -Z_max^2 - sum_v t(v) * (Z_max, E_v).

Rational graphs short-circuit to the classical base-point-free answer
mult = -Z_min^2; in debug runs the depth-one scan is still executed there to
check that it never fires at a vertex with negative pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import NotInSemigroup, NotStar, check_identity
from .graph import Cycle, IntersectionForm
from .invariants import (
    GraphClass,
    SingularityClass,
    _maximal_ideal_cycle,
    classify,
    in_analytic_semigroup,
)
from .minimize import ChiMinResult, Constraint, min_chi, minimizer_join, minimizer_meet

__all__ = [
    "StarCondition",
    "VertexBaseData",
    "BasePointReport",
    "Distinctness",
    "DistinctnessReport",
    "star_condition",
    "base_point_data",
    "base_point_report",
    "multiplicity_generic",
    "distinct_base_points_check",
]


@dataclass(frozen=True)
class StarCondition:
    vertex: int
    depth: Fraction  # min over l >= E_v of chi(lp+l), minus chi(lp)
    star: bool       # depth == 1


@dataclass(frozen=True)
class VertexBaseData:
    vertex: int
    pairing: int           # (lp, E_v)
    depth: Fraction
    star: bool
    count: int             # base points on E_v
    m_v: Fraction          # E_v-coefficient of lp
    m_v_plus: Optional[Fraction]
    t: Optional[int]       # m_v_plus - m_v; base points are of type (x^t, y)
    m_min: Optional[Cycle]     # minimal element of the level set
    s_max: Optional[Cycle]     # lp + join of the level set; lies in the semigroup


@dataclass(frozen=True)
class BasePointReport:
    chern: Cycle                      # lp
    per_vertex: tuple[VertexBaseData, ...]
    total_base_points: int
    multiplicity: Optional[int]       # populated only when chern is Z_max
    wagreich_floor: Optional[int]     # -Z_max^2
    artin_case: bool                  # rational short-circuit taken


class Distinctness(Enum):
    EXPECTED_DISTINCT = "expected-distinct"
    POSSIBLY_COMMON = "possibly-common"


@dataclass(frozen=True)
class DistinctnessReport:
    status: Distinctness
    m_equal: bool       # the two minimal level-set cycles coincide
    m_first: Cycle
    m_second: Cycle
    s_prime: Cycle      # minimal semigroup element >= lp1 + E_v


def star_condition(f: IntersectionForm, lp: Cycle, v: int) -> StarCondition:
    """Depth of the constrained minimum at v; star means depth exactly one."""
    _require_semigroup(f, lp)
    depth, _ = _depth_search(f, lp, f.chi(lp), v, "value")
    return StarCondition(v, depth, depth == 1)


def _require_semigroup(f: IntersectionForm, lp: Cycle) -> None:
    if not in_analytic_semigroup(f, lp):
        raise NotInSemigroup(f"{lp} is not in the analytic semigroup")


def _depth_search(f: IntersectionForm, lp: Cycle, chi_lp: Fraction, v: int,
                  want: str) -> tuple[Fraction, ChiMinResult]:
    """Depth at v and the search behind it, whose minimizers form the level
    set; ``want="extremes"`` keeps the join and meet that base points need."""
    res = min_chi(f, lp, Constraint.at_least(f.unit(v)), want=want)
    return res.min_value - chi_lp, res


def _negative_pairings(f: IntersectionForm, lp: Cycle) -> list[tuple[int, Fraction]]:
    return [(v, pv) for v in f.ids if (pv := f.pairing_vertex(lp, v)) < 0]


def _starred_data(f: IntersectionForm, lp: Cycle, v: int, pv: Fraction,
                  res: ChiMinResult) -> VertexBaseData:
    """Base-point record at v from its depth-one search; lp is in the semigroup."""
    # join/meet of the level set, both verified to lie in it
    join = minimizer_join(res)
    meet = minimizer_meet(res)
    t = join.coeff(v)
    check_identity(pv.denominator == 1 and t.denominator == 1 and t >= 1,
                   f"vertex {v}: (lp, E_v) = {pv} and t = {t} must be integers, t >= 1")
    pv = int(pv)
    m_v = lp.coeff(v)
    s_max = lp + join
    if not in_analytic_semigroup(f, s_max):
        raise NotInSemigroup(
            f"maximal level-set element {s_max} fails the semigroup test")
    return VertexBaseData(
        vertex=v, pairing=pv, depth=Fraction(1), star=True, count=-pv,
        m_v=m_v, m_v_plus=m_v + t, t=int(t), m_min=meet, s_max=s_max)


def base_point_data(f: IntersectionForm, lp: Cycle, v: int) -> VertexBaseData:
    """Full base-point record at a starred vertex with negative pairing."""
    _require_semigroup(f, lp)
    depth, res = _depth_search(f, lp, f.chi(lp), v, "extremes")
    pv = f.pairing_vertex(lp, v)
    if depth != 1:
        raise NotStar(f"depth at vertex {v} is {depth}, not 1")
    if pv >= 0:
        raise NotStar(f"(lp, E_{v}) = {pv} is not negative")
    return _starred_data(f, lp, v, pv, res)


def base_point_report(f: IntersectionForm, lp: Cycle) -> BasePointReport:
    """Base-point structure of the bundle with Chern class -lp.

    The multiplicity field is populated only when lp is the maximal ideal
    cycle; for other semigroup elements the report carries the base points
    alone.
    """
    cls = classify(f)
    return _report(f, cls, lp, _maximal_ideal_cycle(f, cls).cycle)


def _report(f: IntersectionForm, cls: GraphClass, lp: Cycle, zmax: Cycle) -> BasePointReport:
    if cls.tag is SingularityClass.RATIONAL:
        return _rational_report(f, lp, zmax)

    negative = _negative_pairings(f, lp)
    if negative:
        _require_semigroup(f, lp)
    chi_lp = f.chi(lp)
    per = []
    total = 0
    correction = 0
    for v, pv in negative:
        depth, res = _depth_search(f, lp, chi_lp, v, "extremes")
        if depth == 1:
            data = _starred_data(f, lp, v, pv, res)
            total += data.count
            correction += data.t * data.count
        else:
            data = VertexBaseData(
                vertex=v, pairing=int(pv), depth=depth, star=False, count=0,
                m_v=lp.coeff(v), m_v_plus=None, t=None, m_min=None, s_max=None)
        per.append(data)

    mult = None
    floor = None
    if lp == zmax:
        floor = int(-f.pairing(zmax, zmax))
        mult = floor + correction
        check_identity(mult >= floor, f"mult = {mult} is below -Z_max^2 = {floor}")
    return BasePointReport(lp, tuple(per), total, mult, floor, False)


def _rational_report(f: IntersectionForm, lp: Cycle, zmax: Cycle) -> BasePointReport:
    # base-point free for every semigroup class; the depth-one condition
    # provably never holds at a vertex with negative pairing
    if __debug__ and in_analytic_semigroup(f, lp):
        chi_lp = f.chi(lp)
        for v, _ in _negative_pairings(f, lp):
            depth, _ = _depth_search(f, lp, chi_lp, v, "value")
            check_identity(depth >= 2, f"depth {depth} at vertex {v} of a rational graph")
    mult = None
    floor = None
    if lp == zmax:
        floor = int(-f.pairing(zmax, zmax))
        mult = floor
    return BasePointReport(lp, (), 0, mult, floor, True)


def multiplicity_generic(f: IntersectionForm) -> BasePointReport:
    """Multiplicity of the generic structure via the corrected Wagreich bound."""
    cls = classify(f)
    zmax = _maximal_ideal_cycle(f, cls).cycle
    report = _report(f, cls, zmax, zmax)
    check_identity(report.multiplicity is not None, "no multiplicity in the report on Z_max")
    return report


def distinct_base_points_check(f: IntersectionForm, lp1: Cycle, lp2: Cycle,
                               v: int) -> DistinctnessReport:
    """Combinatorial diagnostic: can bundles -lp1 and -lp2 share a base point on E_v?

    Distinctness is only asserted in the configuration the genericity theorem
    covers: lp2 equal to the minimal semigroup element above lp1 + E_v.  In
    every other configuration the answer is 'possibly common', decorated with
    whether the two minimal level-set cycles coincide (the known obstruction
    pattern for special structures).
    """
    d1 = base_point_data(f, lp1, v)
    d2 = base_point_data(f, lp2, v)
    s_prime = d1.s_max
    if lp1 != lp2 and lp2 == s_prime:
        status = Distinctness.EXPECTED_DISTINCT
    else:
        status = Distinctness.POSSIBLY_COMMON
    return DistinctnessReport(
        status=status,
        m_equal=d1.m_min == d2.m_min,
        m_first=d1.m_min,
        m_second=d2.m_min,
        s_prime=s_prime)
