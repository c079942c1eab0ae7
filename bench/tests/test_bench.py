"""Tests of the benchmark itself: generators, definiteness filter, spans, checks.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import identities  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from lattice import Lattice  # noqa: E402


def _graph(name: str) -> dict:
    return json.loads((ROOT / "graphs" / f"{name}.json").read_text(encoding="utf-8"))


def _take(name: str, seed: int, k: int = 30) -> list[dict]:
    return list(itertools.islice(workloads.WORKLOADS[name].stream(seed, ROOT), k))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_are_deterministic_per_seed(name):
    assert _take(name, 3) == _take(name, 3)
    assert _take(name, 3) != _take(name, 4)


@pytest.mark.parametrize("name", ["cold-analyze", "long-chains", "wide-stars"])
def test_generated_graphs_are_negative_definite(name):
    for op in _take(name, 5):
        assert Lattice(op["graph"]).is_negative_definite()


def test_query_pool_is_deterministic_and_definite():
    pool = workloads.query_pool(2, ROOT)
    assert pool == workloads.query_pool(2, ROOT)
    assert all(Lattice(doc).is_negative_definite() for doc in pool)


def test_definiteness_filter():
    assert Lattice(_graph("a1")).is_negative_definite()
    assert Lattice(_graph("e8")).is_negative_definite()
    # -2, -1, -2 chain: det(-I) = 0, so -I is only semi-definite
    chain = workloads.graph_doc("bad", [-2, -1, -2], [(1, 2), (2, 3)])
    assert not Lattice(chain).is_negative_definite()
    assert not workloads.definite(chain)


def test_lattice_matches_known_invariants():
    e8 = Lattice(_graph("e8"))
    assert e8.det_neg() == 1
    k = e8.canonical()
    assert e8.satisfies_adjunction(k)
    assert all(c == 0 for c in k)  # all -2 curves: K = 0


def test_self_time_on_nested_spans():
    # root [0, 10] with children [1, 3] and [5, 7]; the second has a child
    # [5.5, 6]; a last child [9, 12] overruns the root and is clipped to 1.
    start = [0.0, 1.0, 5.0, 5.5, 9.0]
    end = [10.0, 3.0, 7.0, 6.0, 12.0]
    parent = [spans.ROOT, 0, 0, 2, 0]
    got = spans.self_times(start, end, parent)
    assert got == pytest.approx([10 - 2 - 2 - 1, 2.0, 1.5, 0.5, 3.0])


def test_self_time_counts_overlapping_children_once():
    got = spans.self_times([0.0, 1.0, 2.0], [10.0, 4.0, 5.0], [spans.ROOT, 0, 0])
    assert got[0] == pytest.approx(10 - 4)


def test_tracer_records_parent_links():
    tr = spans.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert tr.run_op(7, outer, 1) == 4
    names = [tr.names[i] for i in tr.name]
    assert names == ["op", "outer", "inner"]
    assert list(tr.parent) == [spans.ROOT, 0, 1]
    assert list(tr.op) == [7, 7, 7]
    assert all(e >= s for s, e in zip(tr.start, tr.end))


def test_speed_scaling_is_relative_to_nearby_samples():
    # the machine runs at half the nominal speed, then at twice it
    samples = [(0.004, float(t)) for t in range(12)] + [(0.001, 100.0 + t) for t in range(12)]
    got = speed.scaled([0.1, 0.1], [6.5, 105.5], samples)
    assert got == pytest.approx([0.05, 0.2])


def _g1_payload() -> str:
    return (ROOT / "tests" / "golden" / "analyze_g1.json").read_text(encoding="utf-8")


def test_checker_accepts_genuine_analysis():
    g1 = _graph("g1")
    rep = identities.parse_json_analysis(_g1_payload(), Lattice(g1))
    assert identities.check_analysis(g1, rep) == []
    text = (ROOT / "tests" / "golden" / "analyze_g1.txt").read_text(encoding="utf-8")
    assert identities.check_analysis(g1, identities.parse_text_analysis(text)) == []


@pytest.mark.parametrize("corrupt, expect", [
    (lambda d: d.update(det_neg=2), "det_neg"),
    (lambda d: d["z_min"].update({"9": 0}), "Z_min reduced-positive"),
    (lambda d: d.update(p_g=2), "p_g = 1 - min_chi_positive"),
    (lambda d: d["canonical"].update({"1": 5}), "adjunction for K"),
    (lambda d: d.update(multiplicity=1), "mult >= -Z_max^2"),
])
def test_checker_flags_corrupted_analysis(corrupt, expect):
    g1 = _graph("g1")
    doc = json.loads(_g1_payload())
    corrupt(doc)
    rep = identities.parse_json_analysis(json.dumps(doc), Lattice(g1))
    assert expect in identities.check_analysis(g1, rep)


def test_query_checks():
    assert identities.check_query("hilbert", [0, 1, 3, 6]) == []
    assert identities.check_query("hilbert", [1, 1]) != []
    assert identities.check_query("hilbert", [0, 2, 1]) != []
    assert identities.check_query("semigroup", True) == []
    assert identities.check_query("h1_bundle", -1) != []
    assert identities.check_query("h1_cycle", 0) == []
