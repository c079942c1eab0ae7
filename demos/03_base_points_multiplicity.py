"""Walkthrough: classification, base points, and the multiplicity formula.

For the generic analytic structure on a graph, the bundle attached to the
maximal ideal cycle acquires base points exactly at vertices where the
constrained minimum of chi rises by exactly one; each such vertex carries
-(Z_max, E_v) base points of local type (x^t, y).  The multiplicity is then
the Wagreich floor -Z_max^2 plus the sum of all t's.
"""

from plumblat import (
    ResolutionGraph,
    build_form,
    classify,
    distinct_base_points_check,
    geometric_genus,
    hilbert_h,
    in_analytic_semigroup,
    laufer_zmin,
    minimally_elliptic_cycle,
    multiplicity_generic,
    star_condition,
)

# ten-vertex tree: all -2 except one -3 (vertex 8); elliptic, unimodular
g1 = ResolutionGraph.build(
    [(i, -3 if i == 8 else -2) for i in range(1, 11)],
    [(i, i + 1) for i in range(1, 9)] + [(3, 10)], name="g1")
f = build_form(g1)

cls = classify(f)
print("class:", cls.tag.value,
      "| numerically Gorenstein:", cls.numerically_gorenstein,
      "| minimal:", cls.is_minimal)
print("p_g of the generic structure:", geometric_genus(f))

zk = f.canonical()
zmin = laufer_zmin(f)
print("Z_min in the function semigroup?", in_analytic_semigroup(f, zmin))
print("K in the function semigroup?", in_analytic_semigroup(f, zk))

# the depth test at the -3 vertex: one base point lives there
sc = star_condition(f, zk, 8)
print("depth at vertex 8:", sc.depth, "-> base points possible:", sc.star)

report = multiplicity_generic(f)
print("multiplicity:", report.multiplicity,
      "= floor", report.wagreich_floor, "+ corrections")
for d in report.per_vertex:
    print(f"  vertex {d.vertex}: {d.count} base point(s) of type A_{d.t},"
          f" level-set span {d.m_v} -> {d.m_v_plus}")

# elliptic structure: the minimally elliptic cycle decides base points
c = minimally_elliptic_cycle(f)
print("minimally elliptic cycle:", c, " C^2 =", f.pairing(c, c))
print("base point present exactly because C^2 = -1")

# consecutive semigroup classes get distinct base points generically
check = distinct_base_points_check(f, zk, zk + zmin, 8)
print("bundles -K and -(K+Z_min):", check.status.value,
      "| equal minimal level cycles:", check.m_equal)

# Hilbert function along multiples of Z_max
print("h(k * Z_max):", [hilbert_h(f, zk.scale(k)) for k in range(6)])
