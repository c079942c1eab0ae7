"""Command-line interface.

Subcommands: analyze, multiplicity, semigroup, hilbert, blowup, selfcheck.
Exit codes: 0 success, 1 parse error, 2 invariant violation (including a
failed theorem identity), 3 theorem hypothesis violation.  Set
PLUMBLAT_LOG=debug to log one record per analyzed graph.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .basepoints import BasePointReport, multiplicity_generic
from .checks import run_selfcheck
from .errors import GraphParseError, HypothesisViolation, PlumblatError
from .graph import build_form
from .graphio import (
    cycle_to_json,
    cycle_to_text,
    frac_repr,
    graph_to_text,
    parse_cycle_spec,
    parse_graph_file,
)
from .invariants import (
    InvariantReport,
    hilbert_h,
    in_analytic_semigroup,
    invariant_report,
    min_chi_positive,
)
from .transforms import blow_up_edge, blow_up_generic

log = logging.getLogger("plumblat")


def _base_point_json(report: BasePointReport) -> list[dict]:
    out = []
    for d in sorted(report.per_vertex, key=lambda x: x.vertex):
        out.append({
            "vertex": d.vertex,
            "pairing": d.pairing,
            "depth": frac_repr(d.depth),
            "star": d.star,
            "count": d.count,
            "m_v": frac_repr(d.m_v),
            "m_v_plus": None if d.m_v_plus is None else frac_repr(d.m_v_plus),
            "t": d.t,
            "m_min": None if d.m_min is None else cycle_to_json(d.m_min),
            "s_max": None if d.s_max is None else cycle_to_json(d.s_max),
        })
    return out


def _base_point_lines(report: BasePointReport) -> list[str]:
    starred = [d for d in report.per_vertex if d.star and d.count > 0]
    if not starred:
        return ["base points: none"]
    parts = [f"vertex {d.vertex}: {d.count} x A_{d.t} (t={d.t})" for d in starred]
    return ["base points: " + "; ".join(parts)]


def _analysis_payload(f, inv: InvariantReport, bp: BasePointReport) -> dict:
    zk = f.canonical()
    return {
        "name": f.graph.name,
        "vertices": f.n,
        "det_neg": f.det_neg,
        "class": {
            "tag": inv.graph_class.tag.value,
            "min_chi_positive": frac_repr(inv.graph_class.min_chi_positive),
            "numerically_gorenstein": inv.graph_class.numerically_gorenstein,
            "minimal_resolution": inv.graph_class.is_minimal,
        },
        "min_chi": frac_repr(inv.min_chi),
        "p_g": inv.p_g,
        "z_min": cycle_to_json(inv.z_min),
        "z_max": cycle_to_json(inv.z_max),
        "z_max_is_canonical": inv.z_max == zk,
        "canonical": cycle_to_json(zk),
        "multiplicity": bp.multiplicity,
        "wagreich_floor": bp.wagreich_floor,
        "total_base_points": bp.total_base_points,
        "base_points": _base_point_json(bp),
        "chi_minimizers": [cycle_to_json(c)
                           for c in min_chi_positive(f).minimizers],
    }


def _analysis_text(f, inv: InvariantReport, bp: BasePointReport) -> list[str]:
    cls = inv.graph_class
    name = f.graph.name or "<graph>"
    return [
        f"graph {name}: {f.n} vertices, det(-I) = {f.det_neg}",
        f"class: {cls.tag.value} (min chi over positive cycles = "
        f"{frac_repr(cls.min_chi_positive)}, numerically Gorenstein: "
        f"{'yes' if cls.numerically_gorenstein else 'no'}, minimal resolution: "
        f"{'yes' if cls.is_minimal else 'no'})",
        f"min chi over L = {frac_repr(inv.min_chi)}",
        f"p_g (generic) = {inv.p_g}",
        f"Z_min = {cycle_to_text(inv.z_min)}",
        f"Z_max = {cycle_to_text(inv.z_max)}"
        + (" (= Z_K)" if inv.z_max == f.canonical() else ""),
        f"mult (generic) = {bp.multiplicity}",
    ] + _base_point_lines(bp)


def _multiplicity_payload(f, bp: BasePointReport) -> dict:
    return {
        "name": f.graph.name,
        "multiplicity": bp.multiplicity,
        "wagreich_floor": bp.wagreich_floor,
        "z_max": cycle_to_json(bp.chern),
        "z_max_is_canonical": bp.chern == f.canonical(),
        "total_base_points": bp.total_base_points,
        "base_points": _base_point_json(bp),
    }


def _multiplicity_text(f, bp: BasePointReport) -> list[str]:
    return [
        f"mult = {bp.multiplicity}",
        f"-Zmax^2 = {bp.wagreich_floor}",
        f"Z_max = {cycle_to_text(bp.chern)}"
        + (" (= Z_K)" if bp.chern == f.canonical() else ""),
    ] + _base_point_lines(bp)


def _emit(args, payload, text_lines) -> None:
    """Print the rendering ``args.format`` asks for; both are zero-argument callables."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    else:
        print("\n".join(text_lines()))


def _iter_graph_files(args):
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.json"))
        if not paths:
            raise GraphParseError(f"no *.json files in {args.corpus}")
        return paths
    if not args.path:
        raise GraphParseError("a graph file or --corpus directory is required")
    return [Path(args.path)]


def _exit_code(exc: PlumblatError) -> int:
    if isinstance(exc, GraphParseError):
        return 1
    if isinstance(exc, HypothesisViolation):
        return 3
    return 2


def _batch(args, per_file) -> int:
    """Run per_file over one or many graph files, isolating failures."""
    status = 0
    for path in _iter_graph_files(args):
        try:
            g = parse_graph_file(path)
            f = build_form(g)
            per_file(path, f)
        except PlumblatError as exc:
            code = _exit_code(exc)
            label = {1: "parse error: ", 3: "hypothesis violation: "}.get(code, "")
            print(f"{path}: {label}{exc}", file=sys.stderr)
            if not args.corpus:
                return code
            status = max(status, code)
    return status


def cmd_analyze(args) -> int:
    def per_file(path, f):
        if args.format == "json":
            # the payload lists every positive minimizer; one full search up
            # front also answers the class and Z_max queries from the cache
            min_chi_positive(f)
        inv = invariant_report(f)
        bp = multiplicity_generic(f)
        log.debug("analyzed %s: %d vertices, class %s, %d cached min_chi results",
                  path, f.n, inv.graph_class.tag.value, len(f._minchi_cache))
        if args.corpus and args.format == "text":
            print(f"{path.name}\t{inv.graph_class.tag.value}\tp_g={inv.p_g}\t"
                  f"min_chi={frac_repr(inv.min_chi)}\tmult={bp.multiplicity}")
        else:
            _emit(args, lambda: _analysis_payload(f, inv, bp),
                  lambda: _analysis_text(f, inv, bp))
    return _batch(args, per_file)


def cmd_multiplicity(args) -> int:
    def per_file(path, f):
        bp = multiplicity_generic(f)
        if args.corpus and args.format == "text":
            print(f"{path.name}\tmult={bp.multiplicity}\tbase_points={bp.total_base_points}")
        else:
            _emit(args, lambda: _multiplicity_payload(f, bp),
                  lambda: _multiplicity_text(f, bp))
    return _batch(args, per_file)


def cmd_semigroup(args) -> int:
    g = parse_graph_file(args.path)
    f = build_form(g)
    lp = parse_cycle_spec(f, args.cycle_class)
    member = in_analytic_semigroup(f, lp)
    payload = {
        "name": g.name,
        "class_spec": args.cycle_class,
        "cycle": cycle_to_json(lp),
        "in_analytic_semigroup": member,
    }
    _emit(args, lambda: payload,
          lambda: [f"{cycle_to_text(lp)} in S'_an: {'true' if member else 'false'}"])
    return 0


def cmd_hilbert(args) -> int:
    g = parse_graph_file(args.path)
    f = build_form(g)
    l0 = parse_cycle_spec(f, args.cycle_class)
    rows = [(k, hilbert_h(f, l0.scale(k))) for k in range(args.range_end + 1)]
    payload = {
        "name": g.name,
        "cycle": cycle_to_json(l0),
        "values": [{"k": k, "h": h} for k, h in rows],
    }
    _emit(args, lambda: payload,
          lambda: ["k\th(k*l0)"] + [f"{k}\t{h}" for k, h in rows])
    return 0


def cmd_blowup(args) -> int:
    g = parse_graph_file(args.path)
    if args.vertex is not None and args.edge is None:
        result = blow_up_generic(g, args.vertex)
    elif args.edge is not None and args.vertex is None:
        u, w = args.edge
        result = blow_up_edge(g, u, w)
    else:
        raise GraphParseError("exactly one of --vertex or --edge is required")
    text = graph_to_text(result.graph)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_selfcheck(args) -> int:
    g = parse_graph_file(args.path)
    f = build_form(g)
    results = run_selfcheck(f, max_box=args.max_box)
    failed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumblat",
        description="Exact invariants of negative-definite plumbing trees")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, func, batch=False):
        p = sub.add_parser(name)
        p.add_argument("path", nargs="?" if batch else None)
        if batch:
            p.add_argument("--corpus", metavar="DIR",
                           help="process every *.json graph in a directory")
        p.set_defaults(func=func)
        return p

    add_graph_cmd("analyze", cmd_analyze, batch=True)
    add_graph_cmd("multiplicity", cmd_multiplicity, batch=True)

    p = sub.add_parser("semigroup")
    p.add_argument("path")
    p.add_argument("--class", dest="cycle_class", required=True,
                   help="cycle spec: coefficients or Estar combination")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("hilbert")
    p.add_argument("path")
    p.add_argument("--class", dest="cycle_class", required=True)
    p.add_argument("--range", dest="range_end", type=int, default=6)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("blowup")
    p.add_argument("path")
    p.add_argument("--vertex", type=int)
    p.add_argument("--edge", type=int, nargs=2, metavar=("U", "W"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("selfcheck")
    p.add_argument("path")
    p.add_argument("--max-box", type=int, default=10 ** 6,
                   help="candidate guard for oracle comparisons")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PLUMBLAT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlumblatError as exc:
        code = _exit_code(exc)
        print(f"{'hypothesis violation' if code == 3 else 'error'}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
