"""Blow-ups of resolution graphs and restriction of Chern classes to subgraphs.

Both blow-ups insert one new (-1)-vertex and drop the touched Euler numbers
by one; the pullback map on cycles copies coefficients and gives the new
vertex the coefficient of the blown-up point (the sum of the two endpoint
coefficients in the edge case).  The pullback preserves the intersection
pairing, hence chi up to the explicit k(k+1)/2 shift when multiples of the
new class are added; the isometry is checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import NoSuchEdge, NoSuchVertex, check_identity
from .graph import Cycle, IntersectionForm, ResolutionGraph, build_form

__all__ = ["BlowUpResult", "blow_up_generic", "blow_up_edge", "restrict_class"]


@dataclass(frozen=True)
class BlowUpResult:
    graph: ResolutionGraph
    form: IntersectionForm
    new_vertex: int
    basis_images: Mapping[int, Cycle]  # old vertex id -> pullback of its class

    def pull(self, x: Cycle) -> Cycle:
        """Pullback of a (rational) cycle, extended linearly from the basis."""
        acc = self.form.zero()
        for v, coeff in zip(x.ids, x.coeffs):
            if coeff != 0:
                acc = acc + self.basis_images[v].scale(coeff)
        return acc


def _finish(old_form: IntersectionForm, graph: ResolutionGraph, new_id: int,
            image_coeff) -> BlowUpResult:
    form = build_form(graph)  # validates tree shape and definiteness
    images = {}
    for v in old_form.ids:
        coeffs = {w: (1 if w == v else 0) for w in old_form.ids}
        coeffs[new_id] = image_coeff(v)
        images[v] = Cycle.from_dict(form.ids, coeffs)
    # pullback must be an isometry on the old lattice
    for i, u in enumerate(old_form.ids):
        for w in old_form.ids[i:]:
            old = old_form.pairing(old_form.unit(u), old_form.unit(w))
            new = form.pairing(images[u], images[w])
            check_identity(old == new, f"pullback broke the pairing at ({u},{w})")
    return BlowUpResult(graph, form, new_id, MappingProxyType(images))


def blow_up_generic(g: ResolutionGraph, v: int) -> BlowUpResult:
    """Blow up a generic (smooth) point of the curve at vertex v."""
    old = build_form(g)
    if v not in old.index:
        raise NoSuchVertex(f"vertex {v} not in graph")
    new_id = max(old.ids) + 1
    vertices = tuple((w, e - 1 if w == v else e) for w, e in g.vertices) + ((new_id, -1),)
    edges = g.edges + ((v, new_id),)
    graph = ResolutionGraph(vertices, edges, g.name)
    return _finish(old, graph, new_id, lambda w: 1 if w == v else 0)


def blow_up_edge(g: ResolutionGraph, u: int, w: int) -> BlowUpResult:
    """Blow up the intersection point of the curves at the edge (u, w)."""
    old = build_form(g)
    if (u, w) not in g.edges and (w, u) not in g.edges:
        raise NoSuchEdge(f"({u},{w}) is not an edge")
    new_id = max(old.ids) + 1
    vertices = tuple((x, e - 1 if x in (u, w) else e) for x, e in g.vertices) + ((new_id, -1),)
    edges = tuple(e for e in g.edges if set(e) != {u, w}) + ((u, new_id), (new_id, w))
    graph = ResolutionGraph(vertices, edges, g.name)
    return _finish(old, graph, new_id, lambda x: 1 if x in (u, w) else 0)


def restrict_class(f: IntersectionForm, sub_ids, lp: Cycle) -> Cycle:
    """Cohomological restriction of a Chern class to a connected subgraph.

    Expand lp in the anti-dual basis, keep the terms indexed by the subgraph,
    and reassemble in the subgraph's own anti-dual basis.  The restriction
    pairs with every retained base class exactly as lp did.
    """
    sub_form = f.restrict(sub_ids)  # raises on a disconnected subset
    acc = sub_form.zero()
    for v in sub_form.ids:
        a_v = -f.pairing_vertex(lp, v)
        if a_v != 0:
            acc = acc + sub_form.dual(v).scale(a_v)
    return acc
