"""Descent drivers for the coefficient design problems.

Three drivers share one history record, ``OptReport``:

* ``compliance_descent`` - projected gradient on a per-cell scalar
  coefficient for J(a) = int(f u + psi(a)), descent direction
  |grad u|^2 - psi'(a), backtracking line search.
* ``energy_relaxed_solve`` - exact alternating minimization of the
  relaxed two-phase energy int(nu_t/2 |grad u|^2 - f u
  + gamma (beta - mu_t)/2) over (t, u).
* ``general_relaxed_optimize`` - the laminate update for the relaxed
  control problem int(w u + g mu_t) with a constant or nodal cost
  weight w: per-cell optimal fraction and laminate from the state and
  adjoint gradients, folded in by a convex combination with a
  backtracked weight.

Both descents step by one backtracking line search with simple
decrease (``_backtrack``), in which a trial whose solve raises
``SolverFailure`` or whose cost is not finite is a rejected step;
failures of the initial, adjoint and final solves raise.  Every
accepted step strictly decreases the cost and is recorded by
``OptReport.accept``; runs stop on the relative change it returns,
|J_k - J_{k-1}| / |J_0| < tol, on a projection fixed point
(stationarity), or - reported, not raised - on a stalled line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import penalty as pen
from .fem import (
    LinearSystem,
    SolverFailure,
    StiffnessAssembler,
    assemble_load,
    cell_gradient,
    cost_functional,
    grad_norm_sq,
    solve_dirichlet,
)
from .gclosure import (
    clamp_spectrum,
    eig_sym_2x2,
    fraction_from_harmonic,
    lamination_means,
    optimal_laminate,
    optimal_t,
)
from .mesh import Mesh

__all__ = [
    "DescentConfig",
    "OptReport",
    "InternalConsistencyError",
    "compliance_descent",
    "energy_relaxed_solve",
    "general_relaxed_optimize",
    "gradient_check",
]


class InternalConsistencyError(RuntimeError):
    """An invariant the algorithm guarantees by construction failed."""


@dataclass
class DescentConfig:
    """Stopping rule and initial design of a driver run.

    tol is the relative-change stop, max_iters the iteration cap, and
    a0 the initial design of the scalar descent; the relaxed drivers
    start from the fraction t = 0.5 of alpha in every cell (``_T0``).
    The line search has no settings (see ``_backtrack``); solves use
    the ``solve_dirichlet`` tolerance.
    """

    tol: float = 1e-6
    max_iters: int = 2000
    a0: float | np.ndarray | None = None

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if (not isinstance(self.max_iters, (int, np.integer))
                or isinstance(self.max_iters, bool) or self.max_iters < 1):
            raise ValueError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class OptReport:
    """Iteration history of a driver run.

    costs[0] is the initial cost; costs[k] the cost after accepted
    update k, so the sequence is strictly decreasing.  steps and ratios
    align with costs[1:]; ratios[k - 1] is the relative change
    |costs[k] - costs[k - 1]| / |costs[0]| that the stop test compares
    with tol.  stagnated marks a line search that found no decrease
    within the halving budget (terminal state, not an error).
    """

    costs: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    converged: bool = False
    stagnated: bool = False

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def ratios(self) -> list:
        return [self.change(c, k) for k, c in enumerate(self.costs[1:])]

    def change(self, J: float, k: int = -1) -> float:
        """The relative change from recorded cost k (the last) to J."""
        return abs(J - self.costs[k]) / max(abs(self.costs[0]), 1e-300)

    def accept(self, J: float, step: float) -> float:
        """Record an update to cost J by step; returns its relative change."""
        ratio = self.change(J)
        self.costs.append(J)
        self.steps.append(step)
        return ratio


# the relaxed drivers' initial fraction of alpha, in every cell
_T0 = 0.5
# the line search's largest step multiplier and its trial budget
_STEP_CAP = 1.0
_MAX_TRIALS = 31
# gradient_check's solve tolerance: tight enough that the central
# difference measures the cost, not the solver error
_CHECK_RTOL = 1e-13


def _solve(K, rhs, x0=None, rtol=1e-10):
    """u with K u = rhs and u = 0 on the boundary of K's mesh.

    ``rhs`` goes into the system as it is, never copied: the
    benchmark's tracer tells a trial solve by its load object.
    """
    system = LinearSystem(K, rhs, K.assembler.mesh.boundary)
    return solve_dirichlet(system, rtol=rtol, x0=x0)


def _backtrack(trial_at, J: float, step: float):
    """Backtracking with simple decrease: the steps step, step/2, ...
    until a trial strictly lowers the cost J, at most _MAX_TRIALS trials.

    ``trial_at(step)`` returns None when the step does not move the
    iterate, which ends the search, else (J_t, trial) with the trial's
    state solved.  A ``SolverFailure`` or a non-finite J_t rejects the
    step.  Returns (hit, moved): hit is (step, J_t, trial) for the
    accepted trial or None, and moved is False only when the search
    ended on a step that does not move the iterate.
    """
    for _ in range(_MAX_TRIALS):
        try:
            out = trial_at(step)
        except SolverFailure:
            out = (np.nan, None)
        if out is None:
            return None, False
        if np.isfinite(out[0]) and out[0] < J:
            return (step, *out), True
        out = None  # a rejected trial goes before the next is built
        step *= 0.5
    return None, True


def _smoothed_cell_gradient(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Cell gradient of u after one cell-vertex-cell averaging pass.

    The per-cell P0 gradient carries a mesh-scale alternating component
    (adjacent triangles of a structured mesh see systematically split
    values).  A bang-bang decision rule amplifies that split into a
    checkerboard, so the laminate driver makes its per-cell decisions
    from this filtered field; the pass annihilates the alternating mode
    and perturbs smooth fields only at O(h^2).
    """
    grads = cell_gradient(mesh, u)
    tri = mesh.triangles
    w = np.repeat(mesh.cell_areas, 3)
    idx = tri.ravel()
    denom = np.bincount(idx, weights=w, minlength=mesh.n_vertices)
    vx = np.bincount(idx, weights=np.repeat(grads[:, 0] * mesh.cell_areas, 3),
                     minlength=mesh.n_vertices) / denom
    vy = np.bincount(idx, weights=np.repeat(grads[:, 1] * mesh.cell_areas, 3),
                     minlength=mesh.n_vertices) / denom
    out = np.empty_like(grads)
    out[:, 0] = vx[tri].mean(axis=1)
    out[:, 1] = vy[tri].mean(axis=1)
    return out


def _per_cell(mesh: Mesh, value, name: str) -> np.ndarray:
    """A scalar spread over the cells, or a per-cell array as it is."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(mesh.n_cells, float(v))
    if v.shape != (mesh.n_cells,):
        raise ValueError(f"{name} must be scalar or shape ({mesh.n_cells},)")
    return v


def _initial_coefficient(mesh: Mesh, spec: pen.PenaltySpec, a0):
    if a0 is None:
        base = 0.5 * (spec.alpha + spec.beta) if spec.is_box else 1.0
        return np.full(mesh.n_cells, base)
    return pen.project_to_domain(spec, _per_cell(mesh, a0, "a0"))


def compliance_descent(mesh: Mesh, f, spec: pen.PenaltySpec,
                       config: DescentConfig | None = None):
    """Minimize int(f u(a) + psi(a)) over per-cell scalar coefficients.

    Returns (a, u, report).  The direction is |grad u|^2 - psi'(a)
    (times the half factor on psi when set); each trial is projected
    onto the penalty domain before the solve.  The first step is 0.1
    against a direction normalized to the coefficient scale; a trial
    the projection maps back onto the iterate is a projection fixed
    point (stationary on the active set): the run has converged.
    """
    config = config or DescentConfig()
    factor = 0.5 if spec.half else 1.0
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    ref = spec.beta if spec.is_box else None

    a = _initial_coefficient(mesh, spec, config.a0)
    # no matrix is kept past its solve
    u = _solve(asm.assemble(a), load)
    J = cost_functional(mesh, load, u, a, spec)
    report = OptReport(costs=[J])
    eps = 0.1 * _STEP_CAP

    for _ in range(config.max_iters):
        gsq = grad_norm_sq(mesh, u)
        dirn = gsq - factor * pen.psi_prime(spec, a)
        dmax = float(np.max(np.abs(dirn)))
        if dmax == 0.0:
            report.converged = True
            break
        scale = (ref if ref is not None else max(1.0, float(a.max()))) / dmax

        def trial_at(step):
            trial = pen.project_to_domain(spec, a + step * scale * dirn)
            if np.array_equal(trial, a):
                return None
            u_t = _solve(asm.assemble(trial), load, x0=u)
            return cost_functional(mesh, load, u_t, trial, spec), (trial, u_t)

        hit, moved = _backtrack(trial_at, J, eps)
        if hit is None:
            # unmoved: a projection fixed point; else the budget ran out
            report.converged, report.stagnated = not moved, moved
            break

        eps, J, (a, u) = hit
        if report.accept(J, eps) < config.tol:
            report.converged = True
            break
        eps = min(2.0 * eps, _STEP_CAP)

    return a, u, report


def energy_relaxed_solve(mesh: Mesh, f, alpha: float, beta: float,
                         gamma: float, config: DescentConfig | None = None):
    """Alternating minimization of the relaxed two-phase energy.

    Functional: int(nu_t/2 |grad u|^2 - f u + gamma (beta - mu_t)/2).
    Both half-steps are exact: the state solve for fixed t, and the
    per-cell fraction update nu_t = sqrt(gamma alpha beta)/|grad u|
    (clipped; cells with a vanishing gradient take t = 0, i.e. the
    stiff phase beta).  Returns (t, a_eff, u, report) with a_eff the
    affine-box recovery from the final gradients.
    """
    config = config or DescentConfig()
    if not (gamma > 0.0):
        raise ValueError("gamma must be positive")
    spec_eff = pen.PenaltySpec("affine-box", alpha=alpha, beta=beta,
                               gamma=gamma, half=True)
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    nu_star_num = np.sqrt(gamma * alpha * beta)

    def state(t, u0):
        # the state of fraction t, its |grad u|^2 and the energy; the
        # matrix is not kept past its solve
        mu, nu = lamination_means(t, alpha, beta)
        u = _solve(asm.assemble(nu), load, x0=u0)
        gsq = grad_norm_sq(mesh, u)
        J = 0.5 * float((mesh.cell_areas * nu) @ gsq) - float(load @ u) \
            + 0.5 * gamma * float(mesh.cell_areas @ (beta - mu))
        return u, gsq, J

    t = np.full(mesh.n_cells, _T0)
    u, gsq, J = state(t, None)
    report = OptReport(costs=[J])
    for _ in range(config.max_iters):
        s = np.sqrt(gsq)
        with np.errstate(divide="ignore"):
            nu_new = np.where(s > 0.0, nu_star_num / np.where(s > 0.0, s, 1.0),
                              np.inf)
        t_new = np.where(s > 0.0,
                         fraction_from_harmonic(np.clip(nu_new, alpha, beta),
                                                alpha, beta),
                         0.0)
        if np.array_equal(t_new, t):
            report.converged = True
            break
        t = t_new
        u, gsq, J = state(t, u)
        if report.accept(J, 1.0) < config.tol:
            report.converged = True
            break

    a_eff = pen.recover_coefficient(spec_eff, gsq)
    return t, a_eff, u, report


def general_relaxed_optimize(mesh: Mesh, f, weight, g_field,
                             alpha: float, beta: float,
                             config: DescentConfig | None = None):
    """Laminate descent for min int(j(x, u) + g(x) mu_t) over (t, A).

    The control is a per-cell pair (t, A) with spec(A) in
    [nu_t, mu_t]; each iteration computes the state u and adjoint p
    (right-hand side dj/ds), the per-cell optimal fraction t_hat
    (``optimal_t``) and laminate A_hat (``optimal_laminate``), and moves
    by the convex combination (t, A) + eps ((t_hat, A_hat) - (t, A)).

    Three choices keep the iteration on the physically meaningful
    branch of a very flat landscape.  The fraction decision t_hat uses
    gradients filtered by one averaging pass: near optimality the
    pointwise maximizer sits on a knife edge, and raw P0 gradients
    carry an alternating mesh mode that the bang-bang rule would
    amplify into a checkerboard (on these meshes the chattered field
    has strictly lower discrete cost, so a line search alone cannot
    reject it).  The laminate target is the Hamiltonian maximizer of
    ``optimal_laminate``, one call for both boxes below: where the raw
    gradients are parallel or antiparallel the optimality conditions
    pin only the eigenvalue along them, and the free one is completed
    isotropically (mu I, respectively nu I), since the cost cannot
    distinguish the completions and the isotropic one is the relaxed
    solution of the self-adjoint case; where a raw gradient vanishes
    the target is nu I (in practice a cell whose vertices all carry
    Dirichlet values, whose tensor enters neither u nor the cost).
    Finally, when the combined update is blocked by the flatness, the
    driver falls back to moving A alone toward the Hamiltonian
    maximizer inside the current box [nu_t I, mu_t I], a first-order
    descent direction at fixed fraction; that step is what realizes
    the laminate on cells whose state and adjoint gradients genuinely
    disagree.  Laminate axes always come from the raw gradients.
    Returns
    (t, A, u, p, report); A in (a11, a12, a22) column storage.

    The cost integrand is j(x, s) = weight(x) s, with weight a constant
    or a nodal array (ValueError for a wrong-length one).  It is
    assembled once, like a source term: that vector w is both the cost
    (w . u) and the adjoint right-hand side.  When w equals the state
    load bit for bit (a weight equal to f, the compliance case), p is u
    itself and no adjoint is solved.  In the loop that is exactly what
    the solve would return: it would repeat the state's solve from the
    same warm start.  (The final adjoint of a run whose last iteration
    accepts no step is u as well, where a re-solve from x0 = u could
    move it by a CG step inside the tolerance.)  Otherwise the adjoint
    is solved with the assembled matrix of the accepted trial, or of
    the initial state; the matrix is dropped after that solve, so the
    final adjoint of a run whose last iteration accepts no step
    assembles it again.
    """
    config = config or DescentConfig()
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    w = assemble_load(mesh, weight)
    self_adjoint = np.array_equal(w, load)
    g = _per_cell(mesh, g_field, "g_field")

    def adjoint(K, A, u, p):
        # K: the assembled matrix of A, or None when none was kept
        if self_adjoint:
            return u
        return _solve(K if K is not None else asm.assemble(A), w, x0=p)

    def total_cost(u, mu):
        return float(w @ u) + float(mesh.cell_areas @ (g * mu))

    t = np.full(mesh.n_cells, _T0)
    mu, nu = lamination_means(t, alpha, beta)
    A = np.column_stack([nu, np.zeros(mesh.n_cells), nu])
    K = asm.assemble(A)
    u = _solve(K, load)
    J = total_cost(u, mu)
    report = OptReport(costs=[J])
    p = None

    eps = _STEP_CAP
    for _ in range(config.max_iters):
        p = adjoint(K, A, u, p)
        K = None  # not kept through the trials, which assemble their own
        gu = cell_gradient(mesh, u)
        gu_s = _smoothed_cell_gradient(mesh, u)
        if p is u:
            gp, gp_s = gu, gu_s
        else:
            gp = cell_gradient(mesh, p)
            gp_s = _smoothed_cell_gradient(mesh, p)
        norm_u = np.hypot(gu_s[:, 0], gu_s[:, 1])
        norm_p = np.hypot(gp_s[:, 0], gp_s[:, 1])
        dot = gu_s[:, 0] * gp_s[:, 0] + gu_s[:, 1] * gp_s[:, 1]
        n_plus = np.maximum(0.5 * (norm_u * norm_p + dot), 0.0)
        n_minus = np.maximum(0.5 * (norm_u * norm_p - dot), 0.0)
        t_hat = optimal_t(n_plus, n_minus, g, alpha, beta)
        mu_h, nu_h = lamination_means(t_hat, alpha, beta)

        def trial_at(t_tgt, a_tgt, step):
            t_new = t + step * (t_tgt - t)
            a_new = A + step * (a_tgt - A)
            mu_n, nu_n = lamination_means(t_new, alpha, beta)
            a_new = clamp_spectrum(a_new, nu_n, mu_n)
            if np.array_equal(t_new, t) and np.array_equal(a_new, A):
                return None
            K_t = asm.assemble(a_new)
            u_t = _solve(K_t, load, x0=u)
            return total_cost(u_t, mu_n), (t_new, a_new, mu_n, nu_n, u_t, K_t)

        # the Hamiltonian maximizers over the fraction target's box and
        # over the current box, from one pass over the gradients
        mu_c, nu_c = lamination_means(t, alpha, beta)
        mu_b, nu_b = np.stack([mu_h, mu_c]), np.stack([nu_h, nu_c])
        a_hat, a_box = clamp_spectrum(optimal_laminate(gu, gp, mu_b, nu_b),
                                      nu_b, mu_b)
        if np.array_equal(t_hat, t) and np.array_equal(a_hat, A) \
                and np.array_equal(a_box, A):
            # pointwise optimality conditions hold exactly
            report.converged = True
            break

        hit, _ = _backtrack(partial(trial_at, t_hat, a_hat), J, eps)
        used_fallback = False
        if hit is None or report.change(hit[1]) < config.tol:
            # fraction update blocked or exhausted; a move toward the
            # Hamiltonian maximizer inside the current box still
            # descends and realizes the laminate at fixed fraction
            alt, _ = _backtrack(partial(trial_at, t, a_box), J, _STEP_CAP)
            if alt is not None and (hit is None or alt[1] < hit[1]):
                hit = alt
                used_fallback = True
        if hit is None:
            report.stagnated = True
            break
        eps_used, J, (t, A, mu_n, nu_n, u, K) = hit

        lam1, lam2, _, _ = eig_sym_2x2(A)
        if np.any(lam1 < nu_n - 1e-10) or np.any(lam2 > mu_n + 1e-10):
            raise InternalConsistencyError(
                "updated tensor left the lamination box"
            )
        if report.accept(J, eps_used) < config.tol:
            report.converged = True
            break
        if not used_fallback:
            eps = min(2.0 * eps_used, _STEP_CAP)

    # the loop's adjoint lags one accepted update; pair it with the
    # final tensor
    p = adjoint(K, A, u, p)
    return t, A, u, p, report


def gradient_check(mesh: Mesh, f, spec: pen.PenaltySpec, a: np.ndarray,
                   direction: np.ndarray, h: float = 1e-6):
    """Analytic directional derivative of J versus central differences.

    dJ(a)[d] = int d (psi'(a) - |grad u|^2) against
    (J(a + h d) - J(a - h d)) / (2 h); both sides share one tightly
    solved state per evaluation.  Returns (analytic, fd, rel_mismatch).
    """
    factor = 0.5 if spec.half else 1.0
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)

    def cost(coeff):
        u = _solve(asm.assemble(coeff), load, rtol=_CHECK_RTOL)
        return cost_functional(mesh, load, u, coeff, spec)

    a = np.asarray(a, dtype=float)
    direction = np.asarray(direction, dtype=float)
    u = _solve(asm.assemble(a), load, rtol=_CHECK_RTOL)
    gsq = grad_norm_sq(mesh, u)
    analytic = float(
        mesh.cell_areas @ (direction * (factor * pen.psi_prime(spec, a) - gsq))
    )
    fd = (cost(a + h * direction) - cost(a - h * direction)) / (2.0 * h)
    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-300)
    return analytic, fd, rel
