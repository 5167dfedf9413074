import argparse

import numpy as np
import pytest

from coeffopt import optimize
from coeffopt.cli import (
    build_parser,
    main,
    parse_config_text,
    resolve_settings,
    run_experiment,
)


def resolve(argv):
    return resolve_settings(build_parser().parse_args(argv))


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_parse_config_text():
    text = """
    # comment
    experiment = energy-relaxed

    n = 32
    gamma = 0.02
    """
    cfg = parse_config_text(text)
    assert cfg == {"experiment": "energy-relaxed", "n": 32, "gamma": 0.02}


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("just words")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("volume = 11")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("n = many")


def test_defaults_per_experiment():
    s = resolve([])
    assert s["experiment"] == "compliance-quadratic"
    assert s["domain"] == "square"
    assert s["n"] == 64
    assert s["gamma"] is None
    s = resolve(["--experiment", "compliance-twophase"])
    assert s["gamma"] == 0.01141
    s = resolve(["--experiment", "energy-relaxed"])
    assert s["gamma"] == 0.0142
    s = resolve(["--experiment", "general-relaxed"])
    assert s["domain"] == "disk"
    assert s["tau"] == 0.23539


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\ntol = 1e-3\n")
    s = resolve(["--config", str(cfg), "--n", "16"])
    assert s["n"] == 16  # flag wins
    assert s["tol"] == 1e-3  # config survives where no flag given


def test_validation_errors():
    for argv in (
        ["--n", "0"],
        ["--h", "1.0"],
        ["--h", "0"],
        ["--alpha", "3.0"],  # alpha >= beta
        ["--tol", "0"],
        ["--tol", "nan"],
        ["--max-iters", "0"],
        ["--experiment", "compliance-twophase", "--gamma", "-1"],
        ["--experiment", "compliance-twophase", "--gamma", "nan"],
        # an infinite weight or phase passed, then failed in the run
        ["--experiment", "compliance-twophase", "--gamma", "inf"],
        ["--experiment", "compliance-twophase", "--beta", "inf"],
        ["--experiment", "general-relaxed", "--tau", "0.6"],
        ["--experiment", "custom", "--penalty", "linear-box"],  # no gamma
    ):
        with pytest.raises(ValueError):
            resolve(argv)


def test_epsilon_must_be_finite():
    with pytest.raises(ValueError):
        resolve(["--epsilon", "inf"])


def test_main_writes_outputs(tmp_path):
    rc = main(["--experiment", "compliance-quadratic", "--domain", "disk",
               "--h", "0.2", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "mesh_fields.vtk").exists()
    csv_lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert csv_lines[0] == "iter,cost,step,ratio"
    assert csv_lines[1].startswith("0,")
    assert len(csv_lines) >= 3
    costs = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    summary = read_summary(tmp_path / "summary.txt")
    assert summary["experiment"] == "compliance-quadratic"
    assert summary["domain"] == "disk"
    assert summary["converged"] == "true"
    assert int(summary["iterations"]) >= 1
    float(summary["final_cost"])  # parses


def test_main_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    argv = ["--experiment", "energy-relaxed", "--n", "8", "--out-dir"]
    assert main(argv + [str(d1)]) == 0
    assert main(argv + [str(d2)]) == 0
    for name in ("mesh_fields.vtk", "convergence.csv", "summary.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_main_twophase_summary(tmp_path):
    rc = main(["--experiment", "compliance-twophase", "--n", "16",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = read_summary(tmp_path / "summary.txt")
    bf = float(summary["beta_fraction"])
    af = float(summary["alpha_fraction"])
    assert 0.0 <= bf <= 1.0
    assert abs(af + bf - 1.0) < 1e-12


def test_main_general_summary(tmp_path):
    rc = main(["--experiment", "general-relaxed", "--h", "0.2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = read_summary(tmp_path / "summary.txt")
    assert 0.0 <= float(summary["mean_t"]) <= 1.0
    assert float(summary["max_eigenvalue_ratio"]) >= 1.0 - 1e-12
    text = (tmp_path / "mesh_fields.vtk").read_text()
    for name in ("t", "lambda1", "lambda2", "ratio"):
        assert f"SCALARS {name} float 1" in text


@pytest.mark.parametrize("domain, size", [("disk", "0.2"), ("square", "6")])
def test_general_at_zero_epsilon_solves_no_adjoint(monkeypatch, domain,
                                                    size):
    # the weight 1 + 0 * x1 assembles to the state load bit for bit, so
    # the adjoint is the state itself: every solve has the state's load
    real = optimize.solve_dirichlet
    loads = []

    def solve(system, rtol=1e-10, x0=None):
        loads.append(system.rhs)
        return real(system, rtol=rtol, x0=x0)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    s = resolve(["--experiment", "general-relaxed", "--domain", domain,
                 "--h" if domain == "disk" else "--n", size])
    result = run_experiment(s)
    assert result["report"].iterations > 0
    assert len(loads) > 1 and all(rhs is loads[0] for rhs in loads)


def test_main_bad_settings_exit_2(tmp_path, capsys):
    for argv in (["--n", "0"], ["--tol", "nan"],
                 ["--experiment", "compliance-twophase", "--gamma", "nan"],
                 ["--experiment", "compliance-twophase", "--gamma", "inf"],
                 ["--experiment", "compliance-twophase", "--beta", "inf"]):
        rc = main(argv + ["--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "summary.txt").exists()


def test_main_unknown_flag_exit_2():
    assert main(["--frobnicate"]) == 2


def test_main_missing_config_exit_2(tmp_path):
    rc = main(["--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_main_write_failure_exit_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = main(["--experiment", "compliance-quadratic", "--n", "4",
               "--out-dir", str(blocker / "sub")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_experiment_custom_penalty():
    s = resolve(["--experiment", "custom", "--penalty", "affine-box",
                 "--gamma", "0.02", "--n", "8"])
    result = run_experiment(s)
    a = result["cell_data"]["a"]
    assert np.all(a >= 1.0) and np.all(a <= 2.0)
    assert result["summary"]["converged"] in (True, False)
    assert "beta_fraction" in result["summary"]


def test_run_experiment_square_has_no_interface_radius():
    s = resolve(["--experiment", "compliance-twophase", "--n", "8"])
    result = run_experiment(s)
    assert "interface_radius" not in result["summary"]
    s = resolve(["--experiment", "compliance-twophase", "--domain", "disk",
                 "--h", "0.25"])
    result = run_experiment(s)
    assert "interface_radius" in result["summary"]
