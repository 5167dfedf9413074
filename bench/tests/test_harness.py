"""Tests of the benchmark harness itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import coeffopt.cli  # noqa: E402
import coeffopt.fem  # noqa: E402
import coeffopt.gclosure  # noqa: E402
import coeffopt.optimize  # noqa: E402
import run as runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def traced_run(name, tmp_path, seed=1):
    wl = workloads.make_workload(name, small=True)
    wl.prepare(seed)
    return workloads.run_traced(wl, seed, 0.0, tmp_path)


@pytest.mark.parametrize("name", ["laminate-disk", "compliance-square-256",
                                  "gclosure-pointwise"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    run = traced_run(name, tmp_path)
    keys = ("fem.solves", "fem.cg_iters", "optimize.iterations",
            "gclosure.is_admissible_calls")
    counts = [{k: t["metrics"][k] for k in keys} for t in run["traced"]]
    assert len(counts) >= 2
    assert all(c == counts[0] for c in counts)


def test_each_layer_nonzero_where_exercised(tmp_path):
    lam = traced_run("laminate-disk", tmp_path / "lam")["traced"][0]["metrics"]
    for key in ("fem.solves", "fem.cg_iters", "fem.cg_s", "fem.solve_s",
                "fem.assemble_calls", "fem.assemble_s", "fem.load_s",
                "fem.gradient_s", "optimize.iterations",
                "optimize.trial_solves", "optimize.accept_ratio",
                "optimize.self_s", "gclosure.lamination_means_s",
                "gclosure.optimal_t_s", "gclosure.optimal_laminate_s",
                "gclosure.clamp_spectrum_s", "gclosure.eig_sym_2x2_s",
                "mesh.build_s", "mesh.write_vtk_s", "mesh.vtk_bytes",
                "cli.write_outputs_s"):
        assert lam[key] > 0, key
    # one state solve and one adjoint per pass, the rest are line-search
    # trials; every accepted update follows a trial
    assert 0 < lam["optimize.iterations"] <= lam["optimize.trial_solves"]
    assert lam["optimize.trial_solves"] < lam["fem.solves"]

    sq = traced_run("compliance-square-256",
                    tmp_path / "sq")["traced"][0]["metrics"]
    assert sq["penalty.s"] > 0
    assert sq["fem.solves"] == sq["optimize.trial_solves"] + 1
    assert sq["gclosure.optimal_laminate_s"] == 0

    gc = traced_run("gclosure-pointwise", tmp_path / "gc")["traced"][0]
    assert gc["metrics"]["fem.solves"] == 0
    assert gc["metrics"]["gclosure.is_admissible_calls"] == 50
    assert gc["metrics"]["gclosure.is_admissible_s"] > 0
    assert gc["layer_self_s"]["gclosure"] > 0


def test_wraps_every_lookup_and_restores():
    original = coeffopt.fem.solve_dirichlet
    with tracing.Tracer() as tr:
        assert tr.missing == []
        assert coeffopt.optimize.solve_dirichlet is not original
        assert coeffopt.fem.solve_dirichlet is coeffopt.optimize.solve_dirichlet
        assert coeffopt.solve_dirichlet is coeffopt.fem.solve_dirichlet
        assert coeffopt.cli.eig_sym_2x2 is coeffopt.gclosure.eig_sym_2x2
    assert coeffopt.optimize.solve_dirichlet is original
    assert coeffopt.fem.cg is scipy.sparse.linalg.cg


def test_missing_name_is_reported_not_zero(monkeypatch):
    monkeypatch.delattr(coeffopt.optimize, "solve_dirichlet")
    with tracing.Tracer() as tr:
        pass
    assert tr.missing == ["coeffopt.optimize.solve_dirichlet"]
    metrics = tracing.layer_metrics([], tr.missing_metrics)
    for key in ("fem.solves", "fem.solve_s", "fem.reduce_s",
                "optimize.trial_solves", "optimize.accept_ratio"):
        assert key not in metrics
    assert metrics["fem.cg_iters"] == 0


def test_renamed_module_is_reported_and_nothing_leaks(monkeypatch):
    original = coeffopt.fem.solve_dirichlet
    targets = [t if t[2] != "solve_dirichlet"
               else (t[0], t[1], t[2], t[3] + ("coeffopt.renamed",))
               for t in tracing.TARGETS]
    targets.append(("penalty", "coeffopt.gone", "psi_eval", ()))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    with tracing.Tracer() as tr:
        assert coeffopt.optimize.solve_dirichlet is not original
    assert tr.missing == ["coeffopt.renamed.solve_dirichlet",
                          "coeffopt.gone.psi_eval"]
    assert {"fem.solves", "penalty.s"} <= tr.missing_metrics
    assert coeffopt.optimize.solve_dirichlet is original


def test_failed_install_restores_what_it_patched(monkeypatch):
    original = coeffopt.fem.solve_dirichlet

    def broken(name):
        if name == "coeffopt.cli":
            raise RuntimeError("import-time fault")
        return __import__("importlib").import_module(name)

    monkeypatch.setattr(tracing, "_import", broken)
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            pass
    assert coeffopt.optimize.solve_dirichlet is original
    assert coeffopt.fem.solve_dirichlet is original


def test_unrecognised_trial_solves_go_missing(monkeypatch, tmp_path):
    # a driver that hands each solve a copy of its load still makes
    # line-search trials; the tracer must not report them as none
    system = coeffopt.optimize.LinearSystem
    monkeypatch.setattr(coeffopt.optimize, "LinearSystem",
                        lambda K, rhs, boundary: system(K, rhs.copy(),
                                                        boundary))
    metrics = traced_run("laminate-disk", tmp_path)["traced"][0]["metrics"]
    assert metrics["optimize.iterations"] > 0
    assert "optimize.trial_solves" not in metrics
    assert "optimize.accept_ratio" not in metrics


@pytest.mark.parametrize("n,expected", [(10, "n=10, too few samples"),
                                        (11, "n=11, p9 = 1"),
                                        (100, "n=100, p90 = 90")])
def test_tail_leaves_ten_samples_above(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]
    assert runner._tail(samples).startswith(expected)


def test_failed_operation_is_counted_with_its_message(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise coeffopt.fem.SolverFailure("CG stopped with info=0")

    wl = workloads.make_workload("compliance-square-256", small=True)
    wl.prepare(1)
    monkeypatch.setattr(coeffopt.cli, "compliance_descent", fail)
    (op,) = wl.run_round(tmp_path)
    assert not op.ok and not op.incorrect
    assert op.detail == "SolverFailure: CG stopped with info=0"


def test_missed_bound_is_incorrect(monkeypatch, tmp_path):
    wl = workloads.make_workload("gclosure-pointwise", small=True)
    wl.prepare(1)
    monkeypatch.setattr(coeffopt.gclosure, "is_admissible",
                        lambda *a, **k: (True, 0.5))
    admissibility, laminate = wl.run_round(tmp_path)
    assert admissibility.incorrect and "criterion 8 FAIL" in admissibility.detail
    assert laminate.ok


def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_has_every_registered_metric(trace, section):
    proc = run_bench(BENCH.parent, "--workload", "gclosure-pointwise",
                     "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "laminate-disk", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
