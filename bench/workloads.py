"""Workloads of the coeffopt benchmark and the process that runs them.

``bench/run.py`` starts this file as a child process, once per fresh
set-up measurement (``setup``) and once for the measured run (``run``),
so that the BLAS thread pin, the set-up time and the peak memory all
belong to one workload process.  The child prints one JSON object.
"""

import time

# Set-up time counts from here, before numpy and coeffopt load, which is
# why the imports below follow a statement.
_T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import coeffopt
from coeffopt import cli, gclosure, oracles
from coeffopt import mesh as meshes

from tracer import Tracer, layer_metrics, layer_self_seconds

ALPHA, BETA = 1.0, 2.0
TAU = 0.23539
FEAS_TOL = 1e-10  # criterion 10's lamination-box tolerance
ADMISSIBLE_TOL = 1e-9
MIN_TRACED_ROUNDS = 2  # so the traced counts can be checked to repeat


@dataclass
class Op:
    """One gated operation: a design case or one pointwise batch."""

    name: str
    ok: bool
    detail: str
    incorrect: bool = False  # it ran, but its output missed a bound
    design_s: float = 0.0
    write_s: float = 0.0
    extras: dict = field(default_factory=dict)


def _failed(name: str, exc: Exception, elapsed: float) -> Op:
    """A raised exception; elapsed is the time spent until it was raised."""
    return Op(name, False, f"{type(exc).__name__}: {exc}", design_s=elapsed)


def _gated(name, checks, design_s, write_s=0.0, extras=None) -> Op:
    """checks: (criterion label, passed, detail) triples."""
    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{label} {'PASS' if passed else 'FAIL'} {text}"
                       for label, passed, text in checks)
    return Op(name, ok, detail, not ok, design_s, write_s, extras or {})


# ------------------------------------------------------- design gates

def _l2_cells(mesh, x, ref):
    return float(np.sqrt(mesh.cell_areas @ (x - ref) ** 2
                         / (mesh.cell_areas @ ref ** 2)))


def _l2_vertices(mesh, x, ref):
    num = mesh.cell_areas @ ((x - ref) ** 2)[mesh.triangles].mean(axis=1)
    den = mesh.cell_areas @ (ref ** 2)[mesh.triangles].mean(axis=1)
    return float(np.sqrt(num / den))


def _radii(mesh):
    cen = mesh.cell_centroids()
    return np.hypot(cen[:, 0], cen[:, 1])


def _monotone(result):
    costs = result["report"].costs
    ok = bool(np.all(np.diff(costs) <= 0.0))
    return ok, f"{len(costs) - 1} accepted steps"


def _laminate_feasible(result):
    # lamination means written out here, so the check does not rest on
    # the functions it checks
    t = result["cell_data"]["t"]
    mu = t * ALPHA + (1.0 - t) * BETA
    nu = ALPHA * BETA / (t * BETA + (1.0 - t) * ALPHA)
    lam1 = result["cell_data"]["lambda1"]
    lam2 = result["cell_data"]["lambda2"]
    return bool(np.all(t >= 0.0) and np.all(t <= 1.0)
                and np.all(lam1 >= nu - FEAS_TOL)
                and np.all(lam2 <= mu + FEAS_TOL))


def gate_laminate_isotropic(mesh, result):
    lam1 = result["cell_data"]["lambda1"]
    lam2 = result["cell_data"]["lambda2"]
    ratio = float((lam2 / lam1).max())
    a_ref = oracles.counterexample_fields(_radii(mesh), TAU)[0]
    err = _l2_cells(mesh, 0.5 * (lam1 + lam2), a_ref)
    mono, steps = _monotone(result)
    feas = _laminate_feasible(result)
    return [("criterion 6", ratio <= 1.05 and err <= 0.05,
             f"max eigenvalue ratio {ratio:.4f} (<= 1.05), L2 vs classical "
             f"optimum {err:.4f} (<= 0.05)"),
            ("criterion 10", mono and feas,
             f"monotone={mono} feasible={feas}, {steps}")], {"oracle_l2_a": err}


def gate_laminate_tilted(mesh, result):
    lam1 = result["cell_data"]["lambda1"]
    lam2 = result["cell_data"]["lambda2"]
    ratio = float((lam2 / lam1).max())
    mono, steps = _monotone(result)
    feas = _laminate_feasible(result)
    return [("criterion 7", ratio >= 1.1,
             f"max eigenvalue ratio {ratio:.4f} (>= 1.1)"),
            ("criterion 10", mono and feas,
             f"monotone={mono} feasible={feas}, {steps}")], {}


def gate_twophase(mesh, result):
    a = result["cell_data"]["a"]
    frac = float(mesh.cell_areas[a > 0.5 * (ALPHA + BETA)].sum()
                 / mesh.cell_areas.sum())
    converged = result["report"].converged
    mono, steps = _monotone(result)
    feas = bool(np.all(a >= ALPHA) and np.all(a <= BETA))
    return [("criterion 4", converged and abs(frac - 0.5) <= 0.05,
             f"beta-phase fraction {frac:.4f} (0.50 +/- 0.05), "
             f"converged={converged}"),
            ("criterion 10", mono and feas,
             f"monotone={mono} feasible={feas}, {steps}")], {}


def gate_quadratic_disk(mesh, result):
    a = result["cell_data"]["a"]
    u = result["point_data"]["u"]
    err_a = _l2_cells(mesh, a, oracles.ex11_ball(_radii(mesh))[1])
    rv = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    err_u = _l2_vertices(mesh, u, oracles.ex11_ball(rv)[0])
    converged = result["report"].converged
    mono, steps = _monotone(result)
    feas = bool(np.all(a >= 0.0))
    return [("criterion 3", converged and err_a <= 0.05 and err_u <= 0.02,
             f"L2(a) {err_a:.4f} (<= 0.05), L2(u) {err_u:.4f} (<= 0.02), "
             f"converged={converged}"),
            ("criterion 10", mono and feas,
             f"monotone={mono} feasible={feas}, {steps}")], {"oracle_l2_a": err_a}


def _output_digest(path: Path) -> str:
    h = hashlib.sha256()
    for name in ("convergence.csv", "summary.txt"):
        h.update((path / name).read_bytes())
    return h.hexdigest()[:16]


def _repeat_check(digests: dict, label: str, digest: str):
    """Every round of a run must reproduce round 1's output exactly."""
    first = digests.setdefault(label, digest)
    same = digest == first
    return ("determinism", same,
            f"output {digest}" + ("" if same else f" != round 1 {first}"))


# ---------------------------------------------------------- workloads

class DesignWorkload:
    """CLI experiments on one mesh: run_experiment, then write_outputs.

    The mesh is built once per process (it is part of set-up); a round
    runs every case in order and repeats the same work each time.
    """

    def __init__(self, domain, size, cases):
        self.domain = domain
        self.size = size
        self.cases = cases  # (label, coeffopt flags, gate)
        self.mesh = None
        self.settings = []
        self.digests = {}

    def prepare(self, seed: int) -> None:
        # the design runs are deterministic; the seed is not used
        if self.domain == "disk":
            self.mesh = meshes.build_unit_disk_mesh(self.size)
            size_flag = ["--h", repr(self.size)]
        else:
            self.mesh = meshes.build_unit_square_mesh(self.size)
            size_flag = ["--n", str(self.size)]
        self.settings = [
            cli.resolve_settings(cli.build_parser().parse_args(
                flags + ["--domain", self.domain] + size_flag))
            for _, flags, _ in self.cases]

    def run_round(self, out_dir: Path) -> list[Op]:
        ops = []
        for (label, _, gate), settings in zip(self.cases, self.settings):
            case_dir = out_dir / label
            t0 = time.perf_counter()
            try:
                result = cli.run_experiment(settings, self.mesh)
                t1 = time.perf_counter()
                cli.write_outputs(str(case_dir), settings, result, self.mesh)
                t2 = time.perf_counter()
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append(_failed(label, exc, time.perf_counter() - t0))
                continue
            checks, extras = gate(self.mesh, result)
            checks.append(_repeat_check(self.digests, label,
                                        _output_digest(case_dir)))
            ops.append(_gated(label, checks, t1 - t0, t2 - t1, extras))
        return ops


class GclosureWorkload:
    """Pointwise G-closure kernels on seeded inputs, with no solves.

    A round checks a batch of eigenvalue pairs with ``is_admissible``
    and runs the laminate update chain on a stack of gradient pairs.
    The inputs come from the seed alone, so every round repeats the
    same work.
    """

    def __init__(self, n_pairs=2000, n_cells=1_000_000):
        self.n_pairs = n_pairs
        self.n_cells = n_cells
        self.inputs = None
        self.digests = {}

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.8, 2.2, size=(self.n_pairs, 2)), axis=1)
        # gradient scale 0.3 puts N+ and N- near g = tau^2, so every
        # branch of optimal_t is taken
        gu, gp = rng.normal(scale=0.3, size=(2, self.n_cells, 2))
        prod = np.hypot(gu[:, 0], gu[:, 1]) * np.hypot(gp[:, 0], gp[:, 1])
        dot = (gu * gp).sum(axis=1)
        n_plus = np.maximum(0.5 * (prod + dot), 0.0)
        n_minus = np.maximum(0.5 * (prod - dot), 0.0)
        self.inputs = (lam, gu, gp, n_plus, n_minus)

    def run_round(self, out_dir: Path) -> list[Op]:
        lam, gu, gp, n_plus, n_minus = self.inputs
        return [self._admissibility(lam),
                self._laminate(gu, gp, n_plus, n_minus)]

    def _admissibility(self, lam) -> Op:
        t0 = time.perf_counter()
        try:
            got = np.array([gclosure.is_admissible(pair, ALPHA, BETA,
                                                   tol=ADMISSIBLE_TOL)[0]
                            for pair in lam])
            dt = time.perf_counter() - t0
        except Exception as exc:
            return _failed("is_admissible", exc, time.perf_counter() - t0)
        inside = (lam[:, 0] >= ALPHA) & (lam[:, 0] <= BETA)
        lo = np.full(len(lam), np.nan)
        hi = np.full(len(lam), np.nan)
        lo[inside], hi[inside] = gclosure.d2_lambda2_bounds(lam[inside, 0],
                                                            ALPHA, BETA)
        closed = inside & (lam[:, 1] >= lo) & (lam[:, 1] <= hi)
        edges = np.column_stack([lam - ALPHA, lam - BETA,
                                 lam[:, 1] - lo, lam[:, 1] - hi])
        # inside the tol band either answer is acceptable
        band = np.nanmin(np.abs(edges), axis=1) < ADMISSIBLE_TOL
        wrong = int(np.sum((got != closed) & ~band))
        checks = [("criterion 8", wrong == 0,
                   f"{wrong} disagreements with d2_lambda2_bounds over "
                   f"{int(np.sum(~band))} pairs, {int(got.sum())} admissible"),
                  _repeat_check(self.digests, "is_admissible",
                                hashlib.sha256(got.tobytes()).hexdigest()[:16])]
        return _gated("is_admissible", checks, dt,
                      extras={"admissible_checks_per_s": len(lam) / dt})

    def _laminate(self, gu, gp, n_plus, n_minus) -> Op:
        t0 = time.perf_counter()
        try:
            t = gclosure.optimal_t(n_plus, n_minus, TAU ** 2, ALPHA, BETA)
            mu, nu = gclosure.lamination_means(t, ALPHA, BETA)
            tensor = gclosure.optimal_laminate(gu, gp, mu, nu)
            tensor = gclosure.clamp_spectrum(tensor, nu, mu)
            dt = time.perf_counter() - t0
        except Exception as exc:
            return _failed("laminate_chain", exc, time.perf_counter() - t0)
        # eigenvalues and lamination means written out here, so the check
        # does not rest on the functions it checks
        a11, a12, a22 = tensor.T
        r = np.hypot(0.5 * (a11 - a22), a12)
        lam1, lam2 = 0.5 * (a11 + a22) - r, 0.5 * (a11 + a22) + r
        mu_ref = t * ALPHA + (1.0 - t) * BETA
        nu_ref = ALPHA * BETA / (t * BETA + (1.0 - t) * ALPHA)
        inside = bool(np.all(np.isfinite(tensor)) and np.all(t >= 0.0)
                      and np.all(t <= 1.0)
                      and np.all(lam1 >= nu_ref - FEAS_TOL)
                      and np.all(lam2 <= mu_ref + FEAS_TOL))
        branches = [int(np.sum(t == 0.0)), int(np.sum((t > 0.0) & (t < 1.0))),
                    int(np.sum(t == 1.0))]
        checks = [("laminate box", inside,
                   f"spectra of {len(t)} cells inside [nu_t, mu_t]; "
                   f"t=0/mid/1 cells {branches[0]}/{branches[1]}/{branches[2]}"),
                  _repeat_check(self.digests, "laminate_chain",
                                hashlib.sha256(tensor.tobytes()).hexdigest()[:16])]
        return _gated("laminate_chain", checks, dt,
                      extras={"laminate_cells_per_s": len(t) / dt})


def make_workload(name: str, small: bool = False):
    """The named workload; ``small`` shrinks it for the harness tests."""
    if name == "laminate-disk":
        return DesignWorkload("disk", 0.1 if small else 0.02, [
            ("isotropic", ["--experiment", "general-relaxed",
                           "--tau", repr(TAU), "--epsilon", "0"],
             gate_laminate_isotropic),
            ("tilted", ["--experiment", "general-relaxed",
                        "--tau", repr(TAU), "--epsilon", "0.5"],
             gate_laminate_tilted)])
    if name == "compliance-square-256":
        return DesignWorkload("square", 16 if small else 256, [
            ("twophase", ["--experiment", "compliance-twophase"],
             gate_twophase)])
    if name == "compliance-disk-200":
        return DesignWorkload("disk", 0.1 if small else 1.0 / 200.0, [
            ("quadratic", ["--experiment", "compliance-quadratic"],
             gate_quadratic_disk)])
    if name == "gclosure-pointwise":
        return GclosureWorkload(50, 2000) if small else GclosureWorkload()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- runs

def _round_record(ops: list[Op]) -> dict:
    return {"ops": [vars(op) for op in ops]}


def run_timed(wl, seconds: float, out_dir: Path) -> dict:
    """Untraced rounds until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    rounds = [_round_record(wl.run_round(out_dir))]
    # A round is one coeffopt invocation's work.  Later rounds repeat it,
    # and the peak they add moves by up to 24 MB between identical
    # processes with allocator and kernel state, not with the program.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        rounds.append(_round_record(wl.run_round(out_dir)))
    return {"rounds": rounds, "peak_rss_mb": peak_rss_mb}


def _wall(ops: list[Op]) -> float:
    return sum(op.design_s + op.write_s for op in ops)


def run_traced(wl, seed: int, seconds: float, out_dir: Path) -> dict:
    """Traced rounds alternating with untraced ones, each with its spans.

    The first round is an untraced warm-up.  A traced round's wall time
    minus the median untraced one after the warm-up is the tracer's own
    overhead.
    """
    start = time.perf_counter()
    rounds = [_round_record(wl.run_round(out_dir))]
    untraced, traced, missing = [], [], []
    with Tracer() as tracer:
        wl.prepare(seed)  # again, so the mesh build is traced
        build = layer_metrics(tracer.spans, tracer.missing_metrics)
    while (len(traced) < MIN_TRACED_ROUNDS or not untraced
           or time.perf_counter() - start < seconds):
        if len(traced) > len(untraced):
            ops = wl.run_round(out_dir)
            untraced.append(_wall(ops))
        else:
            with Tracer() as tracer:
                ops = wl.run_round(out_dir)
            missing = tracer.missing
            metrics = layer_metrics(tracer.spans, tracer.missing_metrics)
            if "mesh.build_s" in build:
                metrics["mesh.build_s"] = build["mesh.build_s"]
            traced.append({"metrics": metrics,
                           "layer_self_s": layer_self_seconds(tracer.spans),
                           "wall_s": _wall(ops)})
        rounds.append(_round_record(ops))
    reference = statistics.median(untraced)
    for t in traced:
        t["metrics"]["trace.overhead_s"] = t["wall_s"] - reference
    return {"rounds": rounds, "traced": traced, "missing": missing}


def _check_import(root: Path) -> None:
    src = (root / "src").resolve()
    got = Path(coeffopt.__file__).resolve()
    if src not in got.parents:
        raise SystemExit(f"coeffopt was imported from {got}, not from {src}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", type=Path)
    args = p.parse_args(argv)
    _check_import(Path(__file__).resolve().parent.parent)

    wl = make_workload(args.workload)
    wl.prepare(args.seed)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    try:
        if args.trace:
            out = run_traced(wl, args.seed, args.seconds, args.out_dir)
        else:
            out = run_timed(wl, args.seconds, args.out_dir)
    except Exception:  # harness fault: report it, print no result
        traceback.print_exc()
        return 1
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
