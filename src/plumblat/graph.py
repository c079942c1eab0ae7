"""Resolution graphs, cycles, and the exact intersection lattice.

A resolution graph is a finite tree whose vertices carry integer Euler
numbers (self-intersections).  The associated intersection matrix I has the
Euler numbers on the diagonal and a 1 for every edge; it must be negative
definite.  Everything downstream lives in the lattice L spanned by the
vertex classes E_v and its dual L' inside L (x) Q, so all arithmetic here is
exact: ``int`` and ``fractions.Fraction`` only, no floating point.

One fraction-free Gauss-Jordan pass on -I gives definiteness, det(-I) and
the integer adjugate, so (-I)^{-1} = adj(-I) / det(-I).  Pairings walk the
diagonal and the tree's n-1 edges on integer numerators.

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
        if len(self.components_of(ids)) != 1:
            raise Disconnected("graph is not connected")
        # |E| = |V|-1 and connected already implies acyclic

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


def _eliminate(neg: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det and integer adjugate of -I by one fraction-free Gauss-Jordan pass.

    Bareiss elimination of [-I | Id] without pivoting ends at [det | adj].
    The pivot of step k is the leading principal minor of order k+1, so the
    first non-positive one raises :class:`NotNegativeDefinite` at its index.
    After step k a row is live only in the augmented columns k+1 .. n+k, and
    the unit of row k on the right has been scaled to the previous pivot.
    """
    n = len(neg)
    a = [list(row) + [0] * n for row in neg]
    prev = 1
    for k in range(n):
        a[k][n + k] = prev
        piv = a[k][k]
        if piv <= 0:
            raise NotNegativeDefinite(k + 1)
        lo, hi = k + 1, n + k + 1
        pivot_row = a[k][lo:hi]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[lo:hi] = [(piv * x - f * y) // prev for x, y in zip(row[lo:hi], pivot_row)]
        prev = piv
    return prev, tuple(tuple(row[n:]) for row in a)


class IntersectionForm:
    """Exact intersection data of a negative-definite resolution graph.

    Holds the integer matrix I (ascending vertex-id order), det(-I) = |L'/L|,
    the integer adjugate ``adj_neg`` of -I, with (-I)^{-1} = adj_neg / det_neg,
    the tree's adjacency lists, and lazily cached derived objects: the
    anti-dual basis, the canonical class, the fundamental cycle and the
    fraction-free factorization used by the minimizer.  Semantically
    immutable: every method is a pure function, and the internal caches only
    memoize deterministic values, so concurrent use is safe (a race at worst
    recomputes an identical result).
    """

    def __init__(self, graph: ResolutionGraph):
        graph.check_structure()
        self.graph = graph
        self.ids: tuple[int, ...] = graph.ids
        self.n = n = len(self.ids)
        self.index: dict[int, int] = {v: i for i, v in enumerate(self.ids)}
        eul, adjacency = graph.euler_map(), graph.adjacency()
        self.diag: tuple[int, ...] = tuple(eul[v] for v in self.ids)
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (self.index[a], self.index[b]) for a, b in graph.edges)
        self.neighbours: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.index[w] for w in adjacency[v]) for v in self.ids)
        m = [[self.diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in self.edges:
            m[i][j] = m[j][i] = 1
        self.matrix: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in m)

        self.det_neg, self.adj_neg = _eliminate([[-x for x in row] for row in m])
        # exactness check over the tree rows: (-I) adj_neg == det_neg Id
        adj = self.adj_neg
        for i in range(n):
            row = [-self.diag[i] * x for x in adj[i]]
            for w in self.neighbours[i]:
                row = [x - y for x, y in zip(row, adj[w])]
            if any(x != (self.det_neg if j == i else 0) for j, x in enumerate(row)):
                raise GraphStructureError("exact adjugate verification failed")

        self._dual_basis: Optional[tuple[Cycle, ...]] = None
        self._canonical: Optional[Cycle] = None
        self._minchi_cache: dict = {}
        # set by the minimizer on first use: its search data (factorization
        # of -I, K over one denominator, chi(K/2)) and the fundamental cycle
        self._quad_data_cache = None
        self._zmin_cache: Optional[Cycle] = None

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
        """All E*_v in vertex-id order; coefficients are strictly positive.

        E*_v is column v of (-I)^{-1}, i.e. adj_neg[.][v] / det_neg.
        """
        if self._dual_basis is None:
            det = self.det_neg
            basis = tuple(Cycle(self.ids, tuple(Fraction(a, det) for a in col))
                          for col in zip(*self.adj_neg))
            for c in basis:
                if not all(x > 0 for x in c.coeffs):
                    raise GraphStructureError("dual basis cycle with non-positive coefficient")
            self._dual_basis = basis
        return self._dual_basis

    def dual(self, v: int) -> Cycle:
        if v not in self.index:
            raise NoSuchVertex(f"vertex {v} not in graph")
        return self.dual_basis()[self.index[v]]

    def canonical(self) -> Cycle:
        """Solution K of (K, E_v) = E_v^2 + 2 for every v."""
        if self._canonical is None:
            b = [e + 2 for e in self.diag]
            self._canonical = Cycle(self.ids, tuple(
                Fraction(-sum(a * bj for a, bj in zip(row, b)), self.det_neg)
                for row in self.adj_neg))
        return self._canonical

    # -- pairings --------------------------------------------------------------

    def _numerators(self, x: Cycle) -> tuple[list[int], int]:
        """Integer numerators of x over the lcm of its denominators."""
        if x.ids != self.ids:
            raise ValueError("cycle does not live on this form's vertex set")
        den = math.lcm(*(c.denominator for c in x.coeffs))
        return [c.numerator * (den // c.denominator) for c in x.coeffs], den

    def _pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        """(x, y) on integer vectors: the diagonal plus the tree's edges."""
        total = sum(e * a * b for e, a, b in zip(self.diag, x, y))
        for i, j in self.edges:
            total += x[i] * y[j] + x[j] * y[i]
        return total

    def pairing(self, x: Cycle, y: Cycle) -> Fraction:
        xn, dx = self._numerators(x)
        yn, dy = self._numerators(y)
        return Fraction(self._pair(xn, yn), dx * dy)

    def pairing_vertex(self, x: Cycle, v: int) -> Fraction:
        """(x, E_v) from the coefficients at v and its neighbours."""
        if v not in self.index:
            raise NoSuchVertex(f"vertex {v} not in graph")
        i = self.index[v]
        c = x.coeffs
        return sum((c[w] for w in self.neighbours[i]), c[i] * self.diag[i])

    def chi(self, x: Cycle) -> Fraction:
        """-(x, x - K)/2 on integer numerators: x over d and K over dk."""
        kn, dk = self._numerators(self.canonical())
        xn, d = self._numerators(x)
        return Fraction(self._pair(xn, kn) * d - self._pair(xn, xn) * dk, 2 * d * d * dk)

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
