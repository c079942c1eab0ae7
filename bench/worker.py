"""One workload process: set plumblat up, time operations, write the records.

``run.py`` starts this script once per measurement, so every measurement
has a fresh interpreter::

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py --workload NAME --seed N --setup-only --out DIR

Set-up is ``import plumblat`` plus the program's warm-up before the first
timed operation; the benchmark's own input generation happens before it.
Operations run one at a time, each waiting for the previous answer (a
closed loop with one client).  The loop stops once the operations have
taken ``--seconds`` in total and at least the workload's ``min_ops`` have
run; peak memory is read right after operation ``min_ops``.  Each
operation's input, answer and wall time go to ``DIR/ops.jsonl``; the run's
summary goes to ``DIR/summary.json`` and, when traced, the spans to
``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# a run that has not reached min_ops stops after this much operation time
HARD_CAP_S = 100.0
# least time between two speed samples, and samples taken right after set-up
SPEED_INTERVAL_S = 0.1
SETUP_SPEED_SAMPLES = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_program():
    """Import plumblat from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import plumblat
    import plumblat.cli  # noqa: F401  (the package root does not import it)
    if Path(plumblat.__file__).resolve().parent != (src / "plumblat").resolve():
        raise SystemExit(f"plumblat imported from {plumblat.__file__}, not {src}")
    return plumblat


class CliOps:
    """``plumblat analyze`` through ``plumblat.cli.main``, stdout captured."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def setup(self):
        self.pl = import_program()
        # warm-up: the first call pays for logging set-up and lazy imports
        rc, _, err = self._main(["analyze", str(ROOT / "graphs" / "a1.json")])
        if rc != 0:
            raise SystemExit(f"warm-up analyze failed ({rc}): {err}")

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pl.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def prepare(self, i: int, op: dict):
        if op["file"] is not None:
            path = ROOT / op["file"]
        else:
            path = self.out_dir / f"graph{i}.json"
            path.write_text(json.dumps(op["graph"]), encoding="utf-8")
        return ["--format", op["format"], "analyze", str(path)]

    def run(self, argv):
        return self._main(argv)


class QueryOps:
    """Cycle-spec queries through the public functions of ``invariants``."""

    def __init__(self, pool: list[dict]):
        self.pool_text = [json.dumps(doc) for doc in pool]

    def setup(self):
        self.pl = import_program()
        gio, inv = self.pl.graphio, self.pl.invariants
        self.forms = []
        for text in self.pool_text:
            f = self.pl.build_form(gio.parse_graph_text(text))
            f.dual_basis()
            inv.classify(f)
            inv.h1_bundle(f, f.zero())  # the unshifted search under hilbert_h
            self.forms.append(f)

    def prepare(self, i: int, op: dict):
        return op

    def run(self, q):
        inv = self.pl.invariants
        f = self.forms[q["form"]]
        x = self.pl.graphio.parse_cycle_spec(f, q["spec"])
        kind = q["kind"]
        if kind == "hilbert":
            out = [inv.hilbert_h(f, x.scale(k)) for k in range(q["range"] + 1)]
        elif kind == "semigroup":
            out = inv.in_analytic_semigroup(f, x)
        elif kind == "h1_bundle":
            out = inv.h1_bundle(f, x)
        else:
            out = inv.h1_cycle(f, x)
        return 0, out, ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("refusing to run under -O: it removes checks the program runs")

    wl = workloads.WORKLOADS[args.workload]
    stream = wl.stream(args.seed, ROOT)
    if wl.kind == "query":
        ops = QueryOps(workloads.query_pool(args.seed, ROOT))
    else:
        ops = CliOps(args.out)

    t0 = perf_counter()
    ops.setup()
    setup_s = perf_counter() - t0
    samples = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    summary = {"setup_s": setup_s, "python": platform.python_version(),
               "optimize": sys.flags.optimize}
    if args.setup_only:
        summary["speed"] = samples
        (args.out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    latencies, starts = [], []
    total = 0.0
    with open(args.out / "ops.jsonl", "w", encoding="utf-8") as fh:
        for i in itertools.count():
            if (total >= args.seconds and i >= wl.min_ops) or total >= HARD_CAP_S:
                break
            if i == wl.min_ops:
                summary["peak_rss_mb"] = peak_rss_mb()
            op = next(stream)
            arg = ops.prepare(i, op)
            t = perf_counter()
            try:
                if tracer is None:
                    rc, out, err = ops.run(arg)
                else:
                    rc, out, err = tracer.run_op(i, ops.run, arg)
            except (Exception, SystemExit) as exc:
                rc, out, err = None, None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t
            total += dt
            latencies.append(dt)
            starts.append(t)
            if perf_counter() - samples[-1][1] >= SPEED_INTERVAL_S:
                samples.append(speed.sample())
            fh.write(json.dumps({"i": i, "op": op, "s": dt, "rc": rc, "out": out,
                                 "err": err}) + "\n")
    summary.setdefault("peak_rss_mb", peak_rss_mb())
    summary["latencies_s"] = latencies
    summary["starts_s"] = starts
    summary["speed"] = samples
    if tracer is not None:
        tracer.dump(args.out / "spans.json")
    (args.out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
