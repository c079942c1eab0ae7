"""Command-line surface: formats, golden files, exit codes, round trips."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plumblat import ExtremalNotMinimizer
from plumblat.cli import main
from plumblat.graphio import parse_cycle_spec, parse_graph_file, parse_graph_text
from plumblat.errors import GraphParseError

from corpus import form, graph_g1

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", ["g1", "g2", "a1", "e8"])
@pytest.mark.parametrize("command", ["analyze", "multiplicity"])
def test_golden_text(capsys, command, name):
    code, out, _ = run_cli(capsys, command, str(GRAPHS / f"{name}.json"))
    assert code == 0
    assert out == (GOLDEN / f"{command}_{name}.txt").read_text()


def test_golden_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "analyze", str(GRAPHS / "g1.json"))
    assert code == 0
    assert out == (GOLDEN / "analyze_g1.json").read_text()
    code, out, _ = run_cli(capsys, "--format", "json", "multiplicity", str(GRAPHS / "g2.json"))
    assert code == 0
    assert out == (GOLDEN / "multiplicity_g2.json").read_text()


def test_json_outputs_are_stable(capsys):
    runs = [run_cli(capsys, "--format", "json", "analyze", str(GRAPHS / "g2.json"))[1]
            for _ in range(2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert [d["vertex"] for d in doc["base_points"]] == sorted(
        d["vertex"] for d in doc["base_points"])


def test_semigroup_command(capsys):
    code, out, _ = run_cli(capsys, "semigroup", str(GRAPHS / "g1.json"),
                           "--class", "Estar(8)")
    assert code == 0 and out.strip().endswith("true")
    code, out, _ = run_cli(capsys, "semigroup", str(GRAPHS / "g1.json"),
                           "--class", "Estar(9)")
    assert code == 0 and out.strip().endswith("false")


def test_hilbert_command(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "hilbert",
                           str(GRAPHS / "g1.json"), "--class", "2*Estar(8)",
                           "--range", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0] == {"k": 0, "h": 0}
    assert all(row["h"] >= 0 for row in doc["values"])


def test_blowup_round_trip(tmp_path, capsys):
    out_path = tmp_path / "blown.json"
    code, _, _ = run_cli(capsys, "blowup", str(GRAPHS / "g1.json"),
                         "--vertex", "5", "-o", str(out_path))
    assert code == 0
    g_new = parse_graph_file(out_path)
    f_new = form(g_new)
    f_old = form(graph_g1())
    from plumblat.invariants import min_chi_lattice, geometric_genus
    from plumblat import multiplicity_generic
    assert min_chi_lattice(f_new).min_value == min_chi_lattice(f_old).min_value
    assert geometric_genus(f_new) == geometric_genus(f_old)
    assert multiplicity_generic(f_new).multiplicity == multiplicity_generic(f_old).multiplicity


def test_blowup_stdout_reparses(capsys):
    code, out, _ = run_cli(capsys, "blowup", str(GRAPHS / "a1.json"), "--vertex", "1")
    assert code == 0
    g = parse_graph_text(out)
    assert g.euler_map() == {1: -3, 2: -1}


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", str(GRAPHS / "g1.json"),
                           "--max-box", "200000")
    assert code == 0
    assert "FAIL" not in out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1 and "line 1" in err
    code, _, _ = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1


def test_exit_code_invariant_violation(tmp_path, capsys):
    bad = tmp_path / "posdef.json"
    bad.write_text(json.dumps(
        {"vertices": [{"id": 1, "euler": 1}], "edges": []}))
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and "minor" in err


def test_exit_code_hypothesis_violation(monkeypatch, capsys):
    import plumblat.cli as cli_mod

    def boom(f):
        raise ExtremalNotMinimizer("synthetic")

    monkeypatch.setattr(cli_mod, "multiplicity_generic", boom)
    code, _, err = run_cli(capsys, "multiplicity", str(GRAPHS / "g1.json"))
    assert code == 3 and "synthetic" in err


def _shift_min_chi_lattice(monkeypatch):
    """Make the lattice minimum disagree with the positive-cone minimum."""
    import plumblat.invariants as inv_mod
    orig = inv_mod.min_chi_lattice

    def shifted(f, want="all"):
        res = orig(f, want)
        return dataclasses.replace(res, min_value=res.min_value - 1)

    monkeypatch.setattr(inv_mod, "min_chi_lattice", shifted)


def test_exit_code_failed_identity(monkeypatch, capsys):
    _shift_min_chi_lattice(monkeypatch)
    code, _, err = run_cli(capsys, "analyze", str(GRAPHS / "g1.json"))
    assert code == 2 and "genus formulas disagree" in err


def test_failed_identity_survives_optimize():
    script = (
        "import dataclasses, sys\n"
        "import plumblat.invariants as inv\n"
        "from plumblat.cli import main\n"
        "orig = inv.min_chi_lattice\n"
        "inv.min_chi_lattice = lambda f, want='all': dataclasses.replace(\n"
        "    orig(f, want), min_value=orig(f, want).min_value - 1)\n"
        f"sys.exit(main(['analyze', {str(GRAPHS / 'g1.json')!r}]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr


def test_failed_integrality_check_survives_optimize():
    script = (
        "import dataclasses, sys\n"
        "from fractions import Fraction\n"
        "import plumblat.invariants as inv\n"
        "from plumblat.cli import main\n"
        "orig = inv.min_chi\n"
        "def shifted(f, shift, cons, want='all'):\n"
        "    res = orig(f, shift, cons, want=want)\n"
        "    if shift is None:\n"
        "        return res\n"
        "    return dataclasses.replace(res, min_value=res.min_value + Fraction(1, 3))\n"
        "inv.min_chi = shifted\n"
        f"sys.exit(main(['hilbert', {str(GRAPHS / 'a2.json')!r}, '--class', '1,1']))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Hilbert function value" in proc.stderr


def test_analyze_runs_laufer_once(monkeypatch, capsys):
    import plumblat.minimize as min_mod
    counts = {}
    _count_calls(monkeypatch, min_mod, "_laufer_iteration", counts)
    code, _, _ = run_cli(capsys, "analyze", str(GRAPHS / "e8.json"))
    assert code == 0 and counts["_laufer_iteration"] == 1


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv", [
    ["analyze", str(GRAPHS / "g1.json")],
    ["--format", "json", "analyze", str(GRAPHS / "g2.json")],
    ["analyze", "--corpus", str(GRAPHS)],
])
def test_analyze_builds_each_report_once(monkeypatch, capsys, argv):
    import plumblat.cli as cli_mod
    counts = {}
    for name in ("invariant_report", "multiplicity_generic", "cycle_to_json"):
        _count_calls(monkeypatch, cli_mod, name, counts)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    graphs = len(list(GRAPHS.glob("*.json"))) if "--corpus" in argv else 1
    assert counts["invariant_report"] == graphs
    assert counts["multiplicity_generic"] == graphs
    if "json" not in argv:
        assert "cycle_to_json" not in counts


def test_multiplicity_builds_report_once(monkeypatch, capsys):
    import plumblat.cli as cli_mod
    counts = {}
    _count_calls(monkeypatch, cli_mod, "multiplicity_generic", counts)
    code, _, _ = run_cli(capsys, "multiplicity", str(GRAPHS / "g1.json"))
    assert code == 0 and counts["multiplicity_generic"] == 1


def test_debug_log_record_per_graph(caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="plumblat")
    code, _, _ = run_cli(capsys, "analyze", str(GRAPHS / "a1.json"))
    assert code == 0
    records = [r.getMessage() for r in caplog.records if r.name == "plumblat"]
    assert len(records) == 1
    msg = records[0]
    assert "a1.json" in msg and "1 vertices" in msg and "class rational" in msg
    assert "cached min_chi results" in msg


def test_corpus_batch_mode(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--corpus", str(GRAPHS))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == len(list(GRAPHS.glob("*.json")))
    assert lines == sorted(lines)


def test_corpus_batch_isolates_failures(tmp_path, capsys):
    (tmp_path / "ok.json").write_text(
        json.dumps({"vertices": [{"id": 1, "euler": -2}], "edges": []}))
    (tmp_path / "bad.json").write_text(
        json.dumps({"vertices": [{"id": 1, "euler": 5}], "edges": []}))
    code, out, err = run_cli(capsys, "analyze", "--corpus", str(tmp_path))
    assert code == 2
    assert "ok.json" in out and "bad.json" in err


def test_corpus_batch_reports_hypothesis_violation(monkeypatch, capsys):
    import plumblat.cli as cli_mod
    orig = cli_mod.multiplicity_generic

    def boom_on_g1(f):
        if f.graph.name == "g1":
            raise ExtremalNotMinimizer("synthetic")
        return orig(f)

    monkeypatch.setattr(cli_mod, "multiplicity_generic", boom_on_g1)
    code, out, err = run_cli(capsys, "analyze", "--corpus", str(GRAPHS))
    assert code == 3
    printed = [line.split("\t")[0] for line in out.splitlines() if line]
    assert printed == sorted(p.name for p in GRAPHS.glob("*.json") if p.name != "g1.json")
    assert "g1.json: hypothesis violation: synthetic" in err


def test_cycle_spec_parsing():
    f = form(graph_g1())
    assert parse_cycle_spec(f, "2*Estar(8)") == f.dual(8).scale(2)
    assert parse_cycle_spec(f, "Estar(v8) + Estar(9)") == f.dual(8) + f.dual(9)
    coeffs = parse_cycle_spec(f, "0,1,2,3,4,5,6,7,8,9")
    assert coeffs.coeff(10) == 9
    with pytest.raises(GraphParseError):
        parse_cycle_spec(f, "1,2,3")
    with pytest.raises(GraphParseError):
        parse_cycle_spec(f, "Estar(99)")
    with pytest.raises(GraphParseError):
        parse_cycle_spec(f, "2*Estar(8) - Estar(9)")
