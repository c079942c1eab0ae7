"""The benchmark's workloads: seeded input streams (NOTES.md says why each exists).

Every workload is an endless, deterministic stream of operations made from
the seed alone.  Graphs are drawn by the benchmark and kept only when the
benchmark's own exact test (``lattice.Lattice``) finds them negative
definite, so plumblat never chooses its own inputs.

A CLI operation is ``{"graph": doc, "format": "json"|"text", "file": path}``:
the worker writes ``doc`` to a fresh file (or uses the corpus ``file``) and
runs ``plumblat analyze`` on it.  A query operation is
``{"form": index, "kind": ..., "spec": ..., "range": k}`` against the warmed
form pool of ``warm-queries``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from lattice import Lattice

DEFAULT_SEED = 1
# the default-seed digest covers the answers of this many first operations
DIGEST_OPS = 100


def graph_doc(name: str, eulers, edges) -> dict:
    return {"name": name,
            "vertices": [{"id": i + 1, "euler": e} for i, e in enumerate(eulers)],
            "edges": [[a, b] for a, b in edges]}


def corpus(root: Path) -> list[tuple[str, dict]]:
    """The repository's example graphs, as (relative path, document)."""
    paths = sorted((root / "graphs").glob("*.json"))
    return [(str(p.relative_to(root)), json.loads(p.read_text(encoding="utf-8")))
            for p in paths]


def definite(doc: dict) -> bool:
    return Lattice(doc).is_negative_definite()


def _checked(doc: dict) -> dict:
    if not definite(doc):
        raise ValueError(f"generated graph {doc['name']} is not negative definite")
    return doc


def random_tree(rng: random.Random, n: int, p_minus3: float, name: str) -> dict:
    """Uniform random attachment tree with weights -2/-3, redrawn until definite."""
    while True:
        eulers = [-3 if rng.random() < p_minus3 else -2 for _ in range(n)]
        edges = [(rng.randint(1, i), i + 1) for i in range(1, n)]
        doc = graph_doc(name, eulers, edges)
        if definite(doc):
            return doc


def near_chain(rng: random.Random, n: int, threes: int, name: str) -> dict:
    """A_n with ``threes`` of its curves made -3."""
    eulers = [-2] * n
    for i in rng.sample(range(n), threes):
        eulers[i] = -3
    return _checked(graph_doc(name, eulers, [(i, i + 1) for i in range(1, n)]))


def wide_star(rng: random.Random, k: int, name: str) -> dict:
    """Star with k one-curve arms of weight -2..-4 around a -(k+1) centre.

    Every vertex has |weight| >= degree, strictly at the centre, so the
    graph is definite and (Laufer's criterion) rational.
    """
    eulers = [-(k + 1)] + [rng.choice((-2, -3, -4)) for _ in range(k)]
    return _checked(graph_doc(name, eulers, [(1, v) for v in range(2, k + 2)]))


def connected_subtree(rng: random.Random, doc: dict, size: int) -> list[int]:
    """Vertex ids of a random connected subtree with ``size`` vertices."""
    adj: dict[int, list[int]] = {v["id"]: [] for v in doc["vertices"]}
    for a, b in doc["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    chosen = [rng.choice(sorted(adj))]
    while len(chosen) < size:
        frontier = sorted({w for v in chosen for w in adj[v]} - set(chosen))
        if not frontier:
            break
        chosen.append(rng.choice(frontier))
    return sorted(chosen)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

# Sizes cycle in a fixed order, so every run has the same size mix and only
# the shapes and weights depend on the seed.
COLD_SIZES = (10, 11, 12)
CHAIN_SIZES = (14, 16, 18, 20, 22)
STAR_ARMS = (8, 9, 10)
POOL_SIZES = (7, 8, 9, 10, 11, 12)
POOL_RANDOM = 96


def cold_analyze(seed: int, root: Path) -> Iterator[dict]:
    rng = random.Random(f"cold-analyze:{seed}")
    for path, doc in corpus(root):
        yield {"graph": doc, "format": "json", "file": path}
    i = 0
    while True:
        n = COLD_SIZES[i % len(COLD_SIZES)]
        yield {"graph": random_tree(rng, n, 0.3, f"tree{i}"), "format": "json", "file": None}
        i += 1


def long_chains(seed: int, root: Path) -> Iterator[dict]:
    rng = random.Random(f"long-chains:{seed}")
    i = 0
    while True:
        n = CHAIN_SIZES[i % len(CHAIN_SIZES)]
        yield {"graph": near_chain(rng, n, i % 3, f"chain{i}"), "format": "text", "file": None}
        i += 1


def wide_stars(seed: int, root: Path) -> Iterator[dict]:
    rng = random.Random(f"wide-stars:{seed}")
    i = 0
    while True:
        k = STAR_ARMS[i % len(STAR_ARMS)]
        yield {"graph": wide_star(rng, k, f"star{i}"), "format": "text", "file": None}
        i += 1


def query_pool(seed: int, root: Path) -> list[dict]:
    """Graphs of the warm-queries form pool: the corpus plus random trees."""
    rng = random.Random(f"warm-pool:{seed}")
    docs = [doc for _, doc in corpus(root)]
    for i in range(POOL_RANDOM):
        docs.append(random_tree(rng, POOL_SIZES[i % len(POOL_SIZES)], 0.3, f"pool{i}"))
    return docs


QUERY_KINDS = ("hilbert", "semigroup", "h1_bundle", "h1_cycle")
REPEAT_SHARE = 0.5
HILBERT_RANGE = 3


def _new_query(rng: random.Random, pool: list[dict], i: int) -> dict:
    # new queries visit the forms in turn, one of each kind per visit, so
    # every run spreads its queries over the pool alike
    form = (i // len(QUERY_KINDS)) % len(pool)
    doc = pool[form]
    ids = sorted(v["id"] for v in doc["vertices"])
    kind = QUERY_KINDS[i % len(QUERY_KINDS)]
    if kind == "hilbert":
        coeffs = [rng.choice((0, 0, 1, 1, 2)) for _ in ids]
        coeffs[rng.randrange(len(ids))] = 1
        return {"form": form, "kind": kind, "spec": ",".join(map(str, coeffs)),
                "range": HILBERT_RANGE}
    if kind == "h1_cycle":
        support = set(connected_subtree(rng, doc, rng.randint(1, len(ids))))
        coeffs = [rng.choice((1, 1, 2)) if v in support else 0 for v in ids]
        return {"form": form, "kind": kind, "spec": ",".join(map(str, coeffs))}
    terms = [f"{rng.randint(1, 2)}*Estar({v})"
             for v in rng.sample(ids, rng.randint(1, min(2, len(ids))))]
    return {"form": form, "kind": kind, "spec": " + ".join(terms)}


def warm_queries(seed: int, root: Path) -> Iterator[dict]:
    """Cycle-spec queries; about half repeat an earlier query verbatim."""
    pool = query_pool(seed, root)
    rng = random.Random(f"warm-queries:{seed}")
    seen: list[dict] = []
    i = 0
    while True:
        if seen and rng.random() < REPEAT_SHARE:
            yield dict(rng.choice(seen), repeat=True)
            continue
        q = _new_query(rng, pool, i)
        seen.append(q)
        i += 1
        yield dict(q, repeat=False)


@dataclass(frozen=True)
class Workload:
    """A named stream; why each exists is in NOTES.md and BENCHMARK.json."""

    name: str
    stream: Callable[[int, Path], Iterator[dict]]
    kind: str  # "cli" or "query"
    # every run times at least this many operations, and peak memory is
    # read after exactly this many, a fixed amount of work on any machine
    min_ops: int = 100


WORKLOADS = {w.name: w for w in (
    Workload("cold-analyze", cold_analyze, "cli"),
    Workload("long-chains", long_chains, "cli"),
    Workload("wide-stars", wide_stars, "cli"),
    Workload("warm-queries", warm_queries, "query", min_ops=3000),
)}
