"""plumblat's benchmark: one workload per call, or all of them.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics: ``SETUP_PROBES`` set-up-only processes plus one timed
process, whose set-up times give the median ``setup_s``.  With
``--trace 1`` it runs the workload untraced and then traced on the same
seed, each for half of ``--seconds``, and reports per-layer metrics from
the traced run's spans.  Times are scaled to a reference machine speed
(``speed.py``); the first line of output has the unscaled figures.  Every
answer is checked (``identities.py``); at the default seed the answers of
the first ``DIGEST_OPS`` operations must also match the digest recorded in
``digests.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import identities
from lattice import Lattice
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
WORKER_TIMEOUT_S = 170
# set-up-only processes run before the timed one; setup_s is the median of all
SETUP_PROBES = 4


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed operation)."""


def run_worker(workload: str, seed: int, seconds: float, trace: int, out: Path,
               setup_only: bool = False) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def read_ops(out: Path) -> list[dict]:
    with open(out / "ops.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_ops(kind: str, records: list[dict]) -> tuple[dict[int, list[str]], Counter]:
    """Failure messages of each failed operation, and the class mix of analyses."""
    failures, classes = {}, Counter()
    answers: dict[str, object] = {}
    for r in records:
        if r["rc"] != 0:
            failures[r["i"]] = [f"rc={r['rc']} {r['err'].strip()[:200]}"]
            continue
        op = r["op"]
        try:
            if kind == "cli":
                lat = Lattice(op["graph"])
                rep = (identities.parse_json_analysis(r["out"], lat) if op["format"] == "json"
                       else identities.parse_text_analysis(r["out"]))
                classes[rep["tag"]] += 1
                bad = identities.check_analysis(op["graph"], rep)
            else:
                bad = identities.check_query(op["kind"], r["out"])
                key = json.dumps([op["form"], op["kind"], op["spec"], op.get("range")])
                if answers.setdefault(key, r["out"]) != r["out"]:
                    bad.append("repeated query changed its answer")
        except (ValueError, KeyError, TypeError) as exc:
            bad = [f"malformed output: {type(exc).__name__}: {exc}"]
        if bad:
            failures[r["i"]] = bad
    return failures, classes


def digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for r in records[:workloads.DIGEST_OPS]:
        h.update(json.dumps([r["op"], r["rc"], r["out"]], sort_keys=True).encode())
    return h.hexdigest()


def scaled_latencies(summary: dict) -> list[float]:
    return speed.scaled(summary["latencies_s"], summary["starts_s"], summary["speed"])


def scaled_setup(summary: dict) -> float:
    return summary["setup_s"] * speed.NOMINAL_S / statistics.median(
        d for d, _ in summary["speed"])


def unscaled(summary: dict) -> dict:
    """Wall-clock figures before speed scaling, and the run's median kernel time."""
    lat = summary["latencies_s"]
    return {"ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "setup_s": summary["setup_s"],
            "kernel_ms": statistics.median(d for d, _ in summary["speed"]) * 1e3}


def end_to_end(summary: dict, setups: list[float], attempted: int, failed: int) -> dict:
    lat = scaled_latencies(summary)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }


def per_layer(trace_doc: dict, traced: dict, untraced: dict) -> dict:
    names = trace_doc["names"]
    kinds = [names[i] for i in trace_doc["name"]]
    own = spans.self_times(trace_doc["start"], trace_doc["end"], trace_doc["parent"])
    traced_lat, untraced_lat = scaled_latencies(traced), scaled_latencies(untraced)
    n_ops = len(traced_lat)
    # spans are scaled by the traced run's median speed
    scale = speed.NOMINAL_S / statistics.median(d for d, _ in traced["speed"])
    self_s: Counter = Counter()
    count: Counter = Counter(kinds)
    for name, t in zip(kinds, own):
        self_s[name] += t

    def ms(*names_):
        return sum(self_s[n] for n in names_) * scale * 1e3 / n_ops

    def layer_ms(layer):
        return ms(*(k for k in self_s if k.startswith(layer + ".")))

    def calls(*names_):
        return sum(count[n] for n in names_) / n_ops

    form = "graph.IntersectionForm."
    pairing = (form + "pairing", form + "pairing_vertex", form + "chi")
    c = trace_doc["counters"]
    min_chi_calls = max(1, count["minimize.min_chi"])
    misses = max(1, min_chi_calls - c["min_chi_hits"])
    # untraced rate over the same operations the traced run completed
    base = untraced_lat[:n_ops]
    return {
        "graph.build_ms": (ms(form + "__init__", "graph.build_form"), "ms/op"),
        "graph.build_calls": (calls(form + "__init__"), "calls/op"),
        "graph.pairing_ms": (ms(*pairing, "graph.pairing", "graph.chi"), "ms/op"),
        "graph.pairing_calls": (calls(*pairing), "calls/op"),
        "graph.self_ms": (layer_ms("graph"), "ms/op"),
        "minimize.search_ms": (ms("minimize.min_chi"), "ms/op"),
        "minimize.min_chi_calls": (calls("minimize.min_chi"), "calls/op"),
        "minimize.cache_hits": (c["min_chi_hits"] / n_ops, "hits/op"),
        "minimize.cache_hit_ratio": (c["min_chi_hits"] / min_chi_calls, "ratio"),
        "minimize.nodes": (c["nodes"] / n_ops, "nodes/op"),
        "minimize.candidates": (c["candidates"] / n_ops, "count/op"),
        "minimize.minimizers": (c["minimizers"] / n_ops, "count/op"),
        "minimize.minimizers_per_candidate": (
            c["minimizers"] / max(1, c["candidates"]), "ratio"),
        "minimize.minimizers_per_miss": (c["minimizers"] / misses, "count"),
        "minimize.laufer_ms": (ms("minimize.laufer_zmin"), "ms/op"),
        "minimize.extremal_ms": (ms("minimize.minimizer_join", "minimize.minimizer_meet"),
                                 "ms/op"),
        "minimize.self_ms": (layer_ms("minimize"), "ms/op"),
        "invariants.self_ms": (layer_ms("invariants"), "ms/op"),
        "invariants.classify_calls": (calls("invariants.classify"), "calls/op"),
        "basepoints.self_ms": (layer_ms("basepoints"), "ms/op"),
        "basepoints.star_condition_calls": (calls("basepoints.star_condition"), "calls/op"),
        "graphio.parse_ms": (ms("graphio.parse_graph_file", "graphio.parse_graph_text",
                                "graphio.parse_cycle_spec"), "ms/op"),
        "graphio.self_ms": (layer_ms("graphio"), "ms/op"),
        "cli.self_ms": (layer_ms("cli"), "ms/op"),
        "trace.op_ms": (sum(traced_lat) * 1e3 / n_ops, "ms/op"),
        "trace.overhead_ratio": (sum(traced_lat) / sum(base), "ratio"),
    }


def properties(kind: str, records: list[dict], classes: Counter, trace_doc=None) -> dict:
    """Measured input properties that claims about a workload must cite."""
    props = {"ops": len(records)}
    if classes:
        total = sum(classes.values())
        props["class_mix"] = {k: round(v / total, 3) for k, v in sorted(classes.items())}
    if kind == "query":
        props["repeat_share"] = round(sum(r["op"]["repeat"] for r in records) / len(records), 3)
    if trace_doc is not None and trace_doc["largest_set"]:
        sizes = list(trace_doc["largest_set"].values())
        props["mean_largest_minimizer_set"] = round(statistics.mean(sizes), 1)
    return props


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runs = {}
    if args.trace:
        half = args.seconds / 2
        runs["untraced"] = run_worker(wl.name, args.seed, half, 0, work / "untraced")
        runs["traced"] = run_worker(wl.name, args.seed, half, 1, work / "traced")
        main_run = "traced"
    else:
        probes = [run_worker(wl.name, args.seed, 0, 0, work / f"probe{p}", setup_only=True)
                  for p in range(SETUP_PROBES)]
        runs["timed"] = run_worker(wl.name, args.seed, args.seconds, 0, work / "timed")
        setups = [scaled_setup(s) for s in probes + [runs["timed"]]]
        main_run = "timed"

    attempted = failed = 0
    failures: list[str] = []
    for name, summary in runs.items():
        if summary["optimize"]:
            raise BenchError("worker ran under -O")
        records = read_ops(work / name)
        fails, classes = check_ops(wl.kind, records)
        attempted += len(records)
        failed += len(fails)
        failures += [f"{name} op {i}: {'; '.join(msgs)}" for i, msgs in fails.items()]
        if name == main_run:
            main_records, main_classes = records, classes

    got = digest(main_records)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[wl.name]
    digest_ok = (args.seed != workloads.DEFAULT_SEED or len(main_records) < workloads.DIGEST_OPS
                 or got == recorded)
    if not digest_ok:
        failures.append(f"default-seed digest {got} != recorded {recorded}")

    trace_doc = None
    if args.trace:
        trace_doc = json.loads((work / "traced" / "spans.json").read_text(encoding="utf-8"))
        metrics = per_layer(trace_doc, runs["traced"], runs["untraced"])
    else:
        metrics = end_to_end(runs["timed"], setups, attempted, failed)

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "python": runs[main_run]["python"], "optimize": runs[main_run]["optimize"],
            "digest": got, "digest_ok": digest_ok,
            "properties": properties(wl.kind, main_records, main_classes, trace_doc),
            "error_rate": failed / attempted, "failures": failures[:5],
            "unscaled": unscaled(runs[main_run])}
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:13s} {name:34s} {value:14.4f} {unit}")
    result = {"correct": failed == 0 and digest_ok, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: failed: {proc.stderr.strip()}", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[0]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={info['error_rate']} "
              f"digest_ok={info['digest_ok']} properties={json.dumps(info['properties'])}")
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:13s} {metric:34s} {value:14.4f} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under -O: it removes checks the program runs",
              file=sys.stderr)
        return 2
    missing = [p for p in ("src/plumblat/__init__.py", "graphs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a plumblat checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
