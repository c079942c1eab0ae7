"""Exact lattice arithmetic of the benchmark's own.

The benchmark chooses its inputs and checks plumblat's outputs with this
module alone, so plumblat never vets its own answers.  A graph is given as a
document in the graph-file format (``{"vertices": [{"id", "euler"}],
"edges": [[u, v]]}``); the intersection matrix ``I`` uses ascending vertex-id
order.  Only ``int`` and ``Fraction`` appear.
"""

from __future__ import annotations

from fractions import Fraction


class Lattice:
    """Integer intersection matrix of a plumbing tree, in ascending id order."""

    def __init__(self, doc: dict):
        eul = {v["id"]: v["euler"] for v in doc["vertices"]}
        self.ids = tuple(sorted(eul))
        self.n = len(self.ids)
        index = {v: i for i, v in enumerate(self.ids)}
        self.euler = tuple(eul[v] for v in self.ids)
        self.edges = tuple((index[a], index[b]) for a, b in doc["edges"])
        m = [[0] * self.n for _ in range(self.n)]
        for i, e in enumerate(self.euler):
            m[i][i] = e
        for i, j in self.edges:
            m[i][j] = m[j][i] = 1
        self.matrix = m

    def neg_minors(self) -> list[int]:
        """Leading principal minors of -I by fraction-free elimination.

        Stops after the first non-positive minor, which already decides that
        -I is not positive definite.
        """
        a = [[-x for x in row] for row in self.matrix]
        minors, prev = [], 1
        for k in range(self.n):
            piv = a[k][k]
            minors.append(piv)
            if piv <= 0:
                break
            for i in range(k + 1, self.n):
                for j in range(k + 1, self.n):
                    a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = piv
        return minors

    def is_negative_definite(self) -> bool:
        minors = self.neg_minors()
        return len(minors) == self.n and all(m > 0 for m in minors)

    def det_neg(self) -> int:
        return self.neg_minors()[-1]

    def pair(self, x, y):
        """(x, y) over the tree's diagonal and edges; exact for int or Fraction."""
        return (sum(e * a * b for e, a, b in zip(self.euler, x, y))
                + sum(x[i] * y[j] + x[j] * y[i] for i, j in self.edges))

    def pair_vertex(self, x, i: int):
        """(x, E_v) for the vertex at position i."""
        return sum(x[j] * self.matrix[i][j] for j in range(self.n))

    def chi(self, x) -> Fraction:
        """chi(x) = -((x, x) - (x, K))/2, with (x, K) from adjunction alone."""
        xk = sum(c * (e + 2) for c, e in zip(x, self.euler))
        return -Fraction(self.pair(x, x) - xk, 2)

    def fundamental_cycle(self) -> list[int]:
        """Z_min by Laufer's iteration: from the reduced cycle, add E_v while (z, E_v) > 0."""
        z = [1] * self.n
        while True:
            for i in range(self.n):
                if self.pair_vertex(z, i) > 0:
                    z[i] += 1
                    break
            else:
                return z

    def canonical(self) -> list[Fraction]:
        """Solve (K, E_v) = E_v^2 + 2 by exact Gauss-Jordan elimination."""
        n = self.n
        a = [[Fraction(x) for x in row] + [Fraction(self.euler[i] + 2)]
             for i, row in enumerate(self.matrix)]
        for col in range(n):
            piv = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            pv = a[col][col]
            a[col] = [x / pv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return [a[i][n] for i in range(n)]

    def satisfies_adjunction(self, k) -> bool:
        return all(self.pair_vertex(k, i) == self.euler[i] + 2 for i in range(self.n))
