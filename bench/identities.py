"""Output checks: theorem identities verified from the graph's own matrix.

Each check returns a list of failure messages, empty when the output holds.
The lattice arithmetic is the benchmark's own (``lattice.Lattice``), so an
answer is never checked against plumblat itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from lattice import Lattice

_TEXT_PATTERNS = {
    "head": re.compile(r"^graph .*: (\d+) vertices, det\(-I\) = (-?\d+)$"),
    "class": re.compile(r"^class: (\w+) \(min chi over positive cycles = (\S+), "
                        r"numerically Gorenstein: (yes|no), minimal resolution: (yes|no)\)$"),
    "min_chi": re.compile(r"^min chi over L = (\S+)$"),
    "p_g": re.compile(r"^p_g \(generic\) = (-?\d+)$"),
    "z_min": re.compile(r"^Z_min = \[(.*)\]$"),
    "z_max": re.compile(r"^Z_max = \[(.*)\]( \(= Z_K\))?$"),
    "mult": re.compile(r"^mult \(generic\) = (-?\d+)$"),
}


def _exact(value) -> int | Fraction:
    """An output coefficient ("p/q" or integer) as int when integral."""
    x = Fraction(str(value).strip())
    return x.numerator if x.denominator == 1 else x


def _vector(text: str) -> list:
    return [_exact(x) for x in text.split(",")]


def _cycle(ids, obj: dict) -> list:
    return [_exact(obj[str(v)]) for v in ids]


def parse_text_analysis(text: str) -> dict:
    """Fields of a text ``analyze`` report; raises ValueError when malformed."""
    lines = text.strip().splitlines()
    if len(lines) < len(_TEXT_PATTERNS) + 1:
        raise ValueError(f"expected {len(_TEXT_PATTERNS) + 1} lines, got {len(lines)}")
    found = {}
    for (key, pat), line in zip(_TEXT_PATTERNS.items(), lines):
        m = pat.match(line)
        if m is None:
            raise ValueError(f"unexpected {key} line: {line!r}")
        found[key] = m.groups()
    return {
        "vertices": int(found["head"][0]),
        "det_neg": int(found["head"][1]),
        "tag": found["class"][0],
        "min_chi_positive": Fraction(found["class"][1]),
        "gorenstein": found["class"][2] == "yes",
        "minimal": found["class"][3] == "yes",
        "min_chi": Fraction(found["min_chi"][0]),
        "p_g": int(found["p_g"][0]),
        "z_min": _vector(found["z_min"][0]),
        "z_max": _vector(found["z_max"][0]),
        "z_max_is_canonical": found["z_max"][1] is not None,
        "multiplicity": int(found["mult"][0]),
    }


def parse_json_analysis(text: str, lat: Lattice) -> dict:
    doc = json.loads(text)
    cls = doc["class"]
    return {
        "vertices": doc["vertices"],
        "det_neg": doc["det_neg"],
        "tag": cls["tag"],
        "min_chi_positive": Fraction(str(cls["min_chi_positive"])),
        "gorenstein": cls["numerically_gorenstein"],
        "minimal": cls["minimal_resolution"],
        "min_chi": Fraction(str(doc["min_chi"])),
        "p_g": doc["p_g"],
        "z_min": _cycle(lat.ids, doc["z_min"]),
        "z_max": _cycle(lat.ids, doc["z_max"]),
        "z_max_is_canonical": doc["z_max_is_canonical"],
        "multiplicity": doc["multiplicity"],
        "canonical": _cycle(lat.ids, doc["canonical"]),
        "wagreich_floor": doc["wagreich_floor"],
        "total_base_points": doc["total_base_points"],
        "base_points": doc["base_points"],
        "chi_minimizers": [_cycle(lat.ids, c) for c in doc["chi_minimizers"]],
    }


def check_analysis(graph: dict, rep: dict) -> list[str]:
    """Identities every ``analyze`` report must satisfy on ``graph``."""
    lat = Lattice(graph)
    bad = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    need(rep["vertices"] == lat.n, "vertex count")
    need(rep["det_neg"] == lat.det_neg(), "det_neg")
    need(rep["minimal"] == all(e != -1 for e in lat.euler), "minimal resolution flag")

    # adjunction for K
    k = rep.get("canonical")
    if k is None:
        k = lat.canonical()
    else:
        need(lat.satisfies_adjunction(k), "adjunction for K")
    need(rep["gorenstein"] == all(c.denominator == 1 for c in k), "numerically Gorenstein flag")
    need(rep["z_max_is_canonical"] == (rep["z_max"] == list(k)), "Z_max = Z_K flag")

    zmin, zmax = rep["z_min"], rep["z_max"]
    need(all(isinstance(c, int) and c >= 1 for c in zmin), "Z_min reduced-positive")
    need(all(lat.pair_vertex(zmin, i) <= 0 for i in range(lat.n)), "Z_min anti-nef")

    own_zmin = lat.fundamental_cycle()
    need(zmin == own_zmin, "Z_min = Laufer's fundamental cycle")

    mcp, tag = rep["min_chi_positive"], rep["tag"]
    expected_tag = "rational" if mcp == 1 else "elliptic" if mcp == 0 else "general"
    need(mcp <= 1 and tag == expected_tag, "class matches min chi over positive cycles")
    # Artin: rational iff chi(Z_min) = 1; Wagreich: elliptic iff chi(Z_min) = 0
    z_chi = lat.chi(own_zmin)
    own_tag = "rational" if z_chi == 1 else "elliptic" if z_chi == 0 else "general"
    need(tag == own_tag, "class agrees with chi(Z_min) (Artin, Wagreich)")
    need(z_chi >= mcp, "chi(Z_min) >= min chi over positive cycles")
    floor = -lat.pair(zmax, zmax)
    if tag == "rational":
        need(rep["p_g"] == 0 and mcp == 1, "p_g = 0 and min_chi_positive = 1 on rational")
        need(zmax == zmin, "Z_max = Z_min on rational")
        need(rep["multiplicity"] == floor, "mult = -Z_min^2 on rational")
    else:
        need(rep["p_g"] == 1 - mcp, "p_g = 1 - min_chi_positive")
        need(lat.chi(zmax) == rep["min_chi"] == mcp, "chi(Z_max) = min chi")
    need(rep["multiplicity"] >= floor, "mult >= -Z_max^2")

    if "chi_minimizers" in rep:
        need(rep["wagreich_floor"] == floor, "wagreich floor = -Z_max^2")
        mins = rep["chi_minimizers"]
        need(bool(mins) and all(
            all(isinstance(c, int) and c >= 0 for c in m) and any(m)
            and lat.chi(m) == mcp for m in mins), "chi_minimizers are positive with chi = min")
        if tag != "rational" and mins:
            need([max(col) for col in zip(*mins)] == zmax, "Z_max is the join of the minimizers")
        bps = rep["base_points"]
        need(rep["total_base_points"] == sum(b["count"] for b in bps), "base point total")
        if tag != "rational":
            corr = sum(b["t"] * b["count"] for b in bps if b["star"])
            need(rep["multiplicity"] == floor + corr, "mult = -Z_max^2 + sum t(v) count(v)")
    return bad


def check_query(kind: str, out) -> list[str]:
    """Shape and identity checks of one warm-queries answer."""
    if kind == "hilbert":
        ok = (isinstance(out, list) and all(isinstance(h, int) and h >= 0 for h in out)
              and out[0] == 0 and all(a <= b for a, b in zip(out, out[1:])))
        return [] if ok else ["h(0) = 0 and h non-decreasing in k"]
    if kind == "semigroup":
        return [] if isinstance(out, bool) else ["semigroup answer is a bool"]
    return [] if isinstance(out, int) and not isinstance(out, bool) and out >= 0 \
        else [f"{kind} is a nonnegative int"]
