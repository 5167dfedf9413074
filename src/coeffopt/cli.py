"""Command line front end for the coefficient design experiments.

Five canned experiments over f = 1 on the unit square or unit disk:

* ``compliance-quadratic``  - scalar descent, quadratic penalty
* ``compliance-twophase``   - scalar descent, two-phase linear penalty
* ``energy-relaxed``        - alternating relaxed two-phase energy
* ``general-relaxed``       - laminate descent for the relaxed control
  problem with cost weight 1 + epsilon * x1
* ``custom``                - scalar descent with a chosen penalty

Settings come from built-in defaults, then an optional ``key = value``
config file, then command line flags (highest precedence).  Each run
writes mesh_fields.vtk, convergence.csv and summary.txt into --out-dir;
reruns with identical settings produce byte-identical files.

Exit codes: 0 success, 1 runtime failure (solver, mesh, IO), 2 bad
usage or invalid settings.  Nothing is written unless validation and
the run itself succeed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .gclosure import _check_phases, eig_sym_2x2
from .mesh import (_check_h, _check_n, build_unit_disk_mesh,
                   build_unit_square_mesh, write_vtk)
from .optimize import (
    _MAX_ITERS,
    _TOL,
    _check_stop,
    compliance_descent,
    energy_relaxed_solve,
    general_relaxed_optimize,
)
from .penalty import VARIANTS, PenaltySpec, _check_tau

# name -> (penalty variant, default gamma, default domain); custom takes
# --penalty, and energy-relaxed's affine box is the one its driver builds
_EXPERIMENTS = {
    "compliance-quadratic": ("quadratic", None, "square"),
    "compliance-twophase": ("linear-box", 0.01141, "square"),
    "energy-relaxed": ("affine-box", 0.0142, "square"),
    "general-relaxed": (None, None, "disk"),
    "custom": (None, None, "square"),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
DOMAINS = ("square", "disk")

# key -> (type, default, choices, help); None defaults are filled per
# experiment.  The table drives the flags, the config file keys, the
# defaults and the choice checks.
_SETTINGS = {
    "experiment": (str, "compliance-quadratic", EXPERIMENTS,
                   "which canned experiment to run"),
    "domain": (str, None, DOMAINS,
               "square (default) or disk; general-relaxed defaults to disk"),
    "out_dir": (str, ".", None,
                "where to write mesh_fields.vtk, convergence.csv, "
                "summary.txt (default: current directory)"),
    "n": (int, 64, None, "square mesh subdivisions per side"),
    "h": (float, 0.02, None, "disk mesh target spacing"),
    "alpha": (float, 1.0, None, "lower coefficient bound"),
    "beta": (float, 2.0, None, "upper coefficient bound"),
    "gamma": (float, None, None,
              "penalty weight for the two-phase experiments"),
    "tau": (float, 0.23539, None,
            "flux scale for general-relaxed (g = tau^2)"),
    "epsilon": (float, 0.0, None,
                "cost-weight tilt, weight = 1 + epsilon * x1"),
    "tol": (float, _TOL, None, "relative decrease stop"),
    "max_iters": (int, _MAX_ITERS, None, "iteration cap"),
    "penalty": (str, "quadratic", VARIANTS,
                "penalty for the custom experiment"),
}

_FLOAT_FMT = "%.17g"


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; blank lines and # comments allowed."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SETTINGS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = _SETTINGS[key][0](value)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: bad value {value!r} for {key}"
            ) from None
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coeffopt",
        description="coefficient design experiments for -div(a grad u) = f",
    )
    p.add_argument("--config", metavar="FILE",
                   help="key = value settings file (flags override it)")
    for key, (kind, _, choices, text) in _SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       choices=choices, help=text,
                       metavar="DIR" if key == "out_dir" else None)
    return p


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and flags; validate by the library's rules.

    Raises ValueError (bad settings) or OSError (unreadable config);
    performs no writes, so failures leave no partial outputs.
    """
    settings = {key: spec[1] for key, spec in _SETTINGS.items()}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            settings.update(parse_config_text(fh.read()))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val

    # unset values (domain, gamma) take the experiment's defaults below
    for key, (kind, _, choices, _) in _SETTINGS.items():
        value = settings[key]
        if value is None:
            continue
        if choices is not None and value not in choices:
            raise ValueError(f"unknown {key} {value!r}")
        if kind is float and not np.isfinite(value):
            raise ValueError(f"{key} must be finite")
    _, gamma, domain = _EXPERIMENTS[settings["experiment"]]
    settings["domain"] = settings["domain"] or domain
    if settings["gamma"] is None:
        settings["gamma"] = gamma

    _check_n(settings["n"])
    _check_h(settings["h"])
    _check_phases(settings["alpha"], settings["beta"])
    _check_stop(settings["tol"], settings["max_iters"])
    if settings["experiment"] == "general-relaxed":
        _check_tau(settings["tau"])
    else:
        _penalty(settings)
    return settings


def _penalty(settings) -> PenaltySpec:
    """The PenaltySpec of a scalar-descent or energy-relaxed run."""
    variant = _EXPERIMENTS[settings["experiment"]][0] or settings["penalty"]
    return PenaltySpec(variant, alpha=settings["alpha"],
                       beta=settings["beta"], gamma=settings["gamma"])


def _build_mesh(settings):
    if settings["domain"] == "square":
        return build_unit_square_mesh(settings["n"])
    return build_unit_disk_mesh(settings["h"])


def _phase_summary(mesh, field, alpha, beta, domain, summary):
    mid = 0.5 * (alpha + beta)
    total = float(mesh.cell_areas.sum())
    beta_area = float(mesh.cell_areas[field > mid].sum())
    summary["beta_fraction"] = beta_area / total
    summary["alpha_fraction"] = 1.0 - beta_area / total
    if domain == "disk":
        summary["interface_radius"] = float(np.sqrt(beta_area / np.pi))


def _run_scalar_descent(mesh, settings, spec):
    a, u, report = compliance_descent(mesh, 1.0, spec, tol=settings["tol"],
                                      max_iters=settings["max_iters"])
    summary = {}
    if spec.is_box:
        _phase_summary(mesh, a, spec.alpha, spec.beta, settings["domain"],
                       summary)
    return {"point_data": {"u": u}, "cell_data": {"a": a},
            "report": report, "summary": summary}


def _run_energy(mesh, settings):
    t, a_eff, u, report = energy_relaxed_solve(
        mesh, 1.0, settings["alpha"], settings["beta"], settings["gamma"],
        tol=settings["tol"], max_iters=settings["max_iters"])
    summary = {"mean_t": float(mesh.cell_areas @ t / mesh.cell_areas.sum())}
    _phase_summary(mesh, a_eff, settings["alpha"], settings["beta"],
                   settings["domain"], summary)
    return {"point_data": {"u": u}, "cell_data": {"t": t, "a": a_eff},
            "report": report, "summary": summary}


def _run_general(mesh, settings):
    # at epsilon = 0 the weight assembles to the state load bit for
    # bit, so the descent takes p = u
    weight = 1.0 + settings["epsilon"] * mesh.vertices[:, 0]
    g = settings["tau"] ** 2
    t, tensor, u, p, report = general_relaxed_optimize(
        mesh, 1.0, weight, g, settings["alpha"], settings["beta"],
        tol=settings["tol"], max_iters=settings["max_iters"])
    lam1, lam2, _, _ = eig_sym_2x2(tensor)
    ratio = lam2 / lam1
    summary = {
        "mean_t": float(mesh.cell_areas @ t / mesh.cell_areas.sum()),
        "max_eigenvalue_ratio": float(ratio.max()),
    }
    cell_data = {"t": t, "lambda1": lam1, "lambda2": lam2, "ratio": ratio}
    return {"point_data": {"u": u}, "cell_data": cell_data,
            "report": report, "summary": summary}


def run_experiment(settings, mesh=None) -> dict:
    """Run the configured experiment: its fields, report and summary.

    The summary opens with the report's final cost, iteration count
    and stop flags, followed by the experiment's own entries.
    """
    if mesh is None:
        mesh = _build_mesh(settings)
    exp = settings["experiment"]
    if exp == "energy-relaxed":
        result = _run_energy(mesh, settings)
    elif exp == "general-relaxed":
        result = _run_general(mesh, settings)
    else:
        result = _run_scalar_descent(mesh, settings, _penalty(settings))
    report = result["report"]
    result["summary"] = {
        "final_cost": report.costs[-1],
        "iterations": report.iterations,
        "converged": report.converged,
        "stagnated": report.stagnated,
        **result["summary"],
    }
    return result


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def write_outputs(out_dir: str, settings: dict, result: dict, mesh) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_vtk(os.path.join(out_dir, "mesh_fields.vtk"), mesh,
              point_data=result["point_data"], cell_data=result["cell_data"])

    report = result["report"]
    with open(os.path.join(out_dir, "convergence.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "cost", "step", "ratio"])
        writer.writerow([0, _FLOAT_FMT % report.costs[0], _FLOAT_FMT % 0.0,
                         _FLOAT_FMT % 0.0])
        rows = zip(report.costs[1:], report.steps, report.ratios)
        for k, (c, s, r) in enumerate(rows, start=1):
            writer.writerow([k, _FLOAT_FMT % c, _FLOAT_FMT % s,
                             _FLOAT_FMT % r])

    lines = {
        "experiment": settings["experiment"],
        "domain": settings["domain"],
        "vertices": mesh.n_vertices,
        "cells": mesh.n_cells,
    }
    lines.update(result["summary"])
    with open(os.path.join(out_dir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {_format_value(value)}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = resolve_settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        mesh = _build_mesh(settings)
        result = run_experiment(settings, mesh)
        write_outputs(settings["out_dir"], settings, result, mesh)
    except Exception as exc:  # solver, mesh or IO failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = result["summary"]
    print(f"{settings['experiment']}: cost={summary['final_cost']:.6e} "
          f"iterations={summary['iterations']} "
          f"converged={str(summary['converged']).lower()} "
          f"-> {settings['out_dir']}")
    return 0
