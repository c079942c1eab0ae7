"""Resolution graphs, cycles, and the exact intersection lattice.

A resolution graph is a finite tree whose vertices carry integer Euler
numbers (self-intersections).  The associated intersection matrix I has the
Euler numbers on the diagonal and a 1 for every edge; it must be negative
definite.  Everything downstream lives in the lattice L spanned by the
vertex classes E_v and its dual L' inside L (x) Q, so all arithmetic here is
exact: ``int`` and ``fractions.Fraction`` only, no floating point.

Conventions used throughout the package:

* cycles are coefficient vectors indexed by vertex id, held in ascending id
  order;
* the anti-dual basis cycle ``E*_v`` pairs to -1 with E_v and to 0 with the
  other base classes;
* ``K`` denotes the canonical class solution of the adjunction equations
  (K, E_v) = E_v^2 + 2, and ``chi(x) = -(x, x - K)/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    Disconnected,
    DisconnectedSubgraph,
    GraphStructureError,
    NoSuchVertex,
    NotATree,
    NotNegativeDefinite,
)

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionGraph:
    """Decorated tree: ``vertices`` holds (id, euler) pairs, ``edges`` id pairs.

    Vertex order is preserved as given (for stable file round-trips); all
    lattice-level objects use ascending id order instead.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    name: Optional[str] = None

    @classmethod
    def build(cls, vertices: Iterable[Sequence[int]], edges: Iterable[Sequence[int]],
              name: Optional[str] = None) -> "ResolutionGraph":
        vs = tuple((int(v), int(e)) for v, e in vertices)
        es = tuple((int(a), int(b)) for a, b in edges)
        return cls(vs, es, name)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, _ in self.vertices))

    def euler(self, v: int) -> int:
        for w, e in self.vertices:
            if w == v:
                return e
        raise NoSuchVertex(f"vertex {v} not in graph")

    def euler_map(self) -> dict[int, int]:
        return {v: e for v, e in self.vertices}

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v, _ in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: sorted(ns) for v, ns in adj.items()}

    def check_structure(self) -> None:
        """Raise unless this is a simple connected tree with distinct ids."""
        ids = [v for v, _ in self.vertices]
        if not ids:
            raise GraphStructureError("graph has no vertices")
        if len(set(ids)) != len(ids):
            raise GraphStructureError("duplicate vertex ids")
        idset = set(ids)
        seen = set()
        for a, b in self.edges:
            if a not in idset or b not in idset:
                raise GraphStructureError(f"edge ({a},{b}) references unknown vertex")
            if a == b:
                raise GraphStructureError(f"self-loop at vertex {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphStructureError(f"multi-edge ({a},{b})")
            seen.add(key)
        if len(self.edges) != len(ids) - 1:
            raise NotATree(f"{len(ids)} vertices need {len(ids) - 1} edges, got {len(self.edges)}")
        if len(self._component_of(ids[0])) != len(ids):
            raise Disconnected("graph is not connected")
        # |E| = |V|-1 and connected already implies acyclic

    def _component_of(self, start: int) -> set[int]:
        adj = self.adjacency()
        todo, seen = [start], {start}
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def induced(self, sub_ids: Iterable[int], name: Optional[str] = None) -> "ResolutionGraph":
        """Full subgraph on ``sub_ids`` with Euler numbers copied over."""
        keep = set(sub_ids)
        unknown = keep - set(v for v, _ in self.vertices)
        if unknown:
            raise NoSuchVertex(f"vertices {sorted(unknown)} not in graph")
        vs = tuple((v, e) for v, e in self.vertices if v in keep)
        es = tuple((a, b) for a, b in self.edges if a in keep and b in keep)
        return ResolutionGraph(vs, es, name)

    def components_of(self, sub_ids: Iterable[int]) -> list[tuple[int, ...]]:
        """Connected components of the full subgraph on ``sub_ids``."""
        keep = set(sub_ids)
        adj = self.adjacency()
        out: list[tuple[int, ...]] = []
        left = set(keep)
        while left:
            start = min(left)
            comp, todo = {start}, [start]
            while todo:
                v = todo.pop()
                for w in adj[v]:
                    if w in keep and w not in comp:
                        comp.add(w)
                        todo.append(w)
            left -= comp
            out.append(tuple(sorted(comp)))
        return sorted(out)


def is_minimal_resolution(g: ResolutionGraph) -> bool:
    """No (-1)-vertex.  Minimality is a predicate here, never a requirement."""
    return all(e != -1 for _, e in g.vertices)


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """Coefficient vector over the vertex set, in ascending id order.

    Integral cycles are lattice elements; rational ones live in L (x) Q and
    are dual-lattice elements exactly when all pairings with the base classes
    are integers (see :meth:`IntersectionForm.in_dual_lattice`).
    """

    ids: tuple[int, ...]
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.coeffs):
            raise ValueError("ids and coeffs length mismatch")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ids: Sequence[int]) -> "Cycle":
        return cls(tuple(ids), tuple(Fraction(0) for _ in ids))

    @classmethod
    def unit(cls, ids: Sequence[int], v: int) -> "Cycle":
        """The base class E_v."""
        ids = tuple(ids)
        if v not in ids:
            raise NoSuchVertex(f"vertex {v} not in graph")
        return cls(ids, tuple(Fraction(1 if w == v else 0) for w in ids))

    @classmethod
    def from_dict(cls, ids: Sequence[int], coeffs: Mapping[int, Rat]) -> "Cycle":
        ids = tuple(ids)
        unknown = set(coeffs) - set(ids)
        if unknown:
            raise NoSuchVertex(f"coefficients given for unknown vertices {sorted(unknown)}")
        return cls(ids, tuple(Fraction(coeffs.get(v, 0)) for v in ids))

    @classmethod
    def from_seq(cls, ids: Sequence[int], coeffs: Sequence[Rat]) -> "Cycle":
        return cls(tuple(ids), tuple(Fraction(c) for c in coeffs))

    # -- access --------------------------------------------------------------

    def coeff(self, v: int) -> Fraction:
        try:
            return self.coeffs[self.ids.index(v)]
        except ValueError:
            raise NoSuchVertex(f"vertex {v} not in cycle") from None

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.ids, self.coeffs))

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, c in zip(self.ids, self.coeffs) if c != 0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Cycle") -> None:
        if self.ids != other.ids:
            raise ValueError("cycles live on different vertex sets")

    def __add__(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.ids, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.ids, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cycle":
        return Cycle(self.ids, tuple(-a for a in self.coeffs))

    def scale(self, k: Rat) -> "Cycle":
        k = Fraction(k)
        return Cycle(self.ids, tuple(k * a for a in self.coeffs))

    __mul__ = scale
    __rmul__ = scale

    # -- order and predicates -------------------------------------------------

    def leq(self, other: "Cycle") -> bool:
        """Componentwise partial order."""
        self._check(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    __le__ = leq

    def __ge__(self, other: "Cycle") -> bool:
        return other.leq(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def join(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.ids, tuple(max(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def meet(self, other: "Cycle") -> "Cycle":
        self._check(other)
        return Cycle(self.ids, tuple(min(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def floor(self) -> "Cycle":
        return Cycle(self.ids, tuple(Fraction(math.floor(c)) for c in self.coeffs))

    def ceil(self) -> "Cycle":
        return Cycle(self.ids, tuple(Fraction(math.ceil(c)) for c in self.coeffs))

    def restrict(self, sub_ids: Sequence[int]) -> "Cycle":
        """Forget coefficients outside ``sub_ids``."""
        sub = tuple(sorted(sub_ids))
        d = self.as_dict()
        return Cycle(sub, tuple(d[v] for v in sub))

    def __str__(self) -> str:
        parts = []
        for v, c in zip(self.ids, self.coeffs):
            parts.append(f"{v}:{c}")
        return "{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# Intersection form
# ---------------------------------------------------------------------------


def _leading_minors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    a = [[int(x) for x in row] for row in matrix]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        piv = a[k][k]
        minors.append(piv)
        if piv == 0:
            # a zero pivot cannot occur for a definite matrix; report as-is
            return minors
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = piv
    return minors


def _invert(matrix: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv_row is None:
            raise GraphStructureError("intersection matrix is singular")
        a[col], a[piv_row] = a[piv_row], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                ac = a[col]
                a[r] = [x - f * y for x, y in zip(a[r], ac)]
    return tuple(tuple(row[n:]) for row in a)


class IntersectionForm:
    """Exact intersection data of a negative-definite resolution graph.

    Holds the integer matrix I (ascending vertex-id order), its exact rational
    inverse, det(-I) = |L'/L|, and lazily cached derived objects: the anti-dual
    basis, the canonical class, and the fraction-free factorization used by the
    minimizer.  Semantically immutable: every method is a pure function, and
    the internal caches only memoize deterministic values, so concurrent use
    is safe (a race at worst recomputes an identical result).
    """

    def __init__(self, graph: ResolutionGraph):
        graph.check_structure()
        self.graph = graph
        self.ids: tuple[int, ...] = graph.ids
        self.n = len(self.ids)
        self.index: dict[int, int] = {v: i for i, v in enumerate(self.ids)}
        eul = graph.euler_map()
        m = [[0] * self.n for _ in range(self.n)]
        for v, i in self.index.items():
            m[i][i] = eul[v]
        for a, b in graph.edges:
            i, j = self.index[a], self.index[b]
            m[i][j] = 1
            m[j][i] = 1
        self.matrix: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in m)

        neg = [[-x for x in row] for row in m]
        minors = _leading_minors(neg)
        for k, mk in enumerate(minors):
            if mk <= 0:
                raise NotNegativeDefinite(k + 1)
        self.det_neg: int = minors[-1]

        self.inverse: tuple[tuple[Fraction, ...], ...] = _invert(m)
        # exactness check: I * I^{-1} == identity
        for i in range(self.n):
            for j in range(self.n):
                s = sum(Fraction(self.matrix[i][k]) * self.inverse[k][j] for k in range(self.n))
                if s != (1 if i == j else 0):
                    raise GraphStructureError("exact inverse verification failed")

        self._dual_basis: Optional[tuple[Cycle, ...]] = None
        self._canonical: Optional[Cycle] = None
        self._minchi_cache: dict = {}
        # set by the minimizer on first use: its factorization of -I and the
        # continuous minimum chi(K/2)
        self._quad_data_cache = None
        self._chi_cont_cache: Optional[Fraction] = None

    # -- basic lattice objects ------------------------------------------------

    def zero(self) -> Cycle:
        return Cycle.zero(self.ids)

    def unit(self, v: int) -> Cycle:
        return Cycle.unit(self.ids, v)

    def total(self) -> Cycle:
        """The reduced full cycle sum of all E_v."""
        return Cycle(self.ids, tuple(Fraction(1) for _ in self.ids))

    def cycle(self, coeffs) -> Cycle:
        if isinstance(coeffs, Mapping):
            return Cycle.from_dict(self.ids, coeffs)
        return Cycle.from_seq(self.ids, coeffs)

    def dual_basis(self) -> tuple[Cycle, ...]:
        """All E*_v in vertex-id order; coefficients are strictly positive."""
        if self._dual_basis is None:
            basis = []
            for j in range(self.n):
                coeffs = tuple(-self.inverse[i][j] for i in range(self.n))
                basis.append(Cycle(self.ids, coeffs))
            self._dual_basis = tuple(basis)
            for c in basis:
                if not all(x > 0 for x in c.coeffs):
                    raise GraphStructureError("dual basis cycle with non-positive coefficient")
        return self._dual_basis

    def dual(self, v: int) -> Cycle:
        if v not in self.index:
            raise NoSuchVertex(f"vertex {v} not in graph")
        return self.dual_basis()[self.index[v]]

    def canonical(self) -> Cycle:
        """Solution K of (K, E_v) = E_v^2 + 2 for every v."""
        if self._canonical is None:
            b = [self.matrix[i][i] + 2 for i in range(self.n)]
            coeffs = tuple(sum(self.inverse[i][j] * b[j] for j in range(self.n))
                           for i in range(self.n))
            self._canonical = Cycle(self.ids, coeffs)
        return self._canonical

    # -- pairings --------------------------------------------------------------

    def pairing(self, x: Cycle, y: Cycle) -> Fraction:
        if x.ids != self.ids or y.ids != self.ids:
            raise ValueError("cycle does not live on this form's vertex set")
        total = Fraction(0)
        for i, xi in enumerate(x.coeffs):
            if xi == 0:
                continue
            row = self.matrix[i]
            total += xi * sum(row[j] * yj for j, yj in enumerate(y.coeffs) if yj != 0)
        return total

    def pairing_vertex(self, x: Cycle, v: int) -> Fraction:
        """(x, E_v) via one matrix row."""
        if v not in self.index:
            raise NoSuchVertex(f"vertex {v} not in graph")
        row = self.matrix[self.index[v]]
        return sum(row[j] * xj for j, xj in enumerate(x.coeffs) if xj != 0)

    def chi(self, x: Cycle) -> Fraction:
        return -(self.pairing(x, x) - self.pairing(x, self.canonical())) / 2

    def self_intersection(self, x: Cycle) -> Fraction:
        return self.pairing(x, x)

    # -- predicates --------------------------------------------------------------

    def in_dual_lattice(self, x: Cycle) -> bool:
        return all(self.pairing_vertex(x, v).denominator == 1 for v in self.ids)

    def in_lipman_cone(self, x: Cycle) -> bool:
        return all(self.pairing_vertex(x, v) <= 0 for v in self.ids)

    def dual_coordinates(self, x: Cycle) -> dict[int, Fraction]:
        """Coefficients a_v in x = sum a_v E*_v, i.e. a_v = -(x, E_v)."""
        return {v: -self.pairing_vertex(x, v) for v in self.ids}

    def restrict(self, sub_ids: Iterable[int]) -> "IntersectionForm":
        """Form of the full subgraph on ``sub_ids`` (must be connected)."""
        sub = tuple(sorted(set(sub_ids)))
        subgraph = self.graph.induced(sub)
        comps = self.graph.components_of(sub)
        if len(comps) != 1:
            raise DisconnectedSubgraph(f"vertex set {sub} induces {len(comps)} components")
        return IntersectionForm(subgraph)


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def build_form(g: ResolutionGraph) -> IntersectionForm:
    """Validate ``g`` and return its exact intersection form."""
    return IntersectionForm(g)
