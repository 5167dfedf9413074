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
failures of the initial and adjoint solves raise.  A trial's solve
carries the accepted cost less the trial's solve-free part as a
``RejectionBound``, so one that cannot lower the cost stops after a
few CG iterations and is rejected as well; ``RejectionBound`` states
why such a stop is certified, and the steps taken are those of full
solves.  The two scalar drivers evaluate their costs as energies, whose
error is quadratic in the solve error (the compliance b.u as 2 b.u -
u.K u), so they solve only to about the square root of the accuracy
their stop needs (``_solve_rtol``); the laminate descent and
``gradient_check`` keep their fixed rtol and report b.u.

Every accepted step strictly decreases the cost and is recorded by
``OptReport.accept``; runs stop on the relative change it returns,
|J_k - J_{k-1}| / |J_0| < tol, after max_iters updates, on a
projection fixed point (stationarity), or - reported, not raised - on
a stalled line search.
Every driver takes its stop rule as the keywords ``tol`` and
``max_iters``, checked before the first solve; the relaxed drivers
start from the fraction t = ``_T0`` of alpha in every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import penalty as pen
from .fem import (
    _RTOL,
    LinearSystem,
    RejectionBound,
    SolverFailure,
    StiffnessAssembler,
    assemble_load,
    cell_gradient,
    cost_functional,
    grad_norm_sq,
    penalty_cost,
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


# the stop rule's defaults: relative-change tolerance, iteration cap
_TOL = 1e-6
_MAX_ITERS = 2000
# the relaxed drivers' initial fraction of alpha, in every cell
_T0 = 0.5
# the line search's largest step multiplier and its trial budget
_STEP_CAP = 1.0
_MAX_TRIALS = 31
# the scalar descents solve the next iteration's states to the square
# root of this fraction of the relative change of the last accepted
# step, capped at 1, within [_RTOL, sqrt(max(tol, _RTOL))]
_FORCING = 0.01
# gradient_check's solve tolerance, tight enough that the central
# difference measures the cost, not the solver error, and its
# difference step
_CHECK_RTOL = 1e-13
_CHECK_H = 1e-6


def _check_stop(tol, max_iters) -> None:
    """The stop rule: tol > 0 and an integer max_iters >= 1."""
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if (not isinstance(max_iters, (int, np.integer))
            or isinstance(max_iters, bool) or max_iters < 1):
        raise ValueError(
            f"max_iters must be an integer >= 1, got {max_iters!r}")


def _solve(K, rhs, **kwargs):
    """u with u = 0 on the boundary of K's mesh and K u = rhs on its
    free vertices, or None when the solve stops on its
    ``RejectionBound``; the keywords go to ``solve_dirichlet``.

    ``rhs`` goes into the system as it is, never copied: the
    benchmark's tracer tells a trial solve by its load object.
    """
    system = LinearSystem(K, rhs, K.assembler.mesh.boundary)
    return solve_dirichlet(system, **kwargs)


def _solve_rtol(tol: float, ratio: float = np.inf) -> float:
    """The rtol of a scalar descent's next solves, given the relative
    change ``ratio`` of its last accepted step (none before the first):
    sqrt(_FORCING r), r the ratio capped at 1, within [_RTOL,
    sqrt(max(tol, _RTOL))], the square roots of the forcing terms of
    inexact Newton methods (Eisenstat and Walker, SISC 17, 1996).

    Both scalar costs are energies, whose error at a CG iterate u_h is
    quadratic in the solve's: E(u_h) = 2 b.u_h - u_h.K u_h misses b.u by
    |u_h - u|_K^2, and 1/2 u_h.K u_h - b.u_h misses its minimum by half
    that.  So a solve to rtol resolves a relative cost change of about
    rtol^2, and the square root of the rule for b.u_h (first order in
    the solve error) suffices.  A solve is never tighter than _RTOL nor
    looser than sqrt(max(tol, _RTOL)) or sqrt(_FORCING)."""
    return min(math.sqrt(max(tol, _RTOL)),
               max(_RTOL, math.sqrt(_FORCING * min(ratio, 1.0))))


def _energy(K, load: np.ndarray, u: np.ndarray) -> float:
    """E(u) = 2 b.x - x.K x on K's free dofs, x and b the free entries
    of u and the load: b.u* less |u - u*|_K^2 for the exact state u*,
    the energy CG raises towards b.u* (see ``fem.cg``)."""
    free = K.assembler.free
    x = u[free]
    return 2.0 * float(load[free] @ x) - float(x @ (K @ x))


def _backtrack(trial_at, J: float, step: float):
    """Backtracking with simple decrease: the steps step, step/2, ...
    until a trial strictly lowers the cost J, at most _MAX_TRIALS trials.

    ``trial_at(step)`` returns None when the step does not move the
    iterate, which ends the search, else (J_t, trial) with the trial's
    state solved, or (inf, None) when its solve stopped on the bound
    of J.  A ``SolverFailure`` or a non-finite J_t rejects the step.
    Returns (hit, moved): hit is (step, J_t, trial) for the accepted
    trial or None, and moved is False only when the search ended on a
    step that does not move the iterate.
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


def _smoothed_cell_gradient(mesh: Mesh, grads: np.ndarray) -> np.ndarray:
    """A cell gradient field after one cell-vertex-cell averaging pass.

    The per-cell P0 gradient carries a mesh-scale alternating component
    (adjacent triangles of a structured mesh see systematically split
    values).  A bang-bang decision rule amplifies that split into a
    checkerboard, so the laminate driver makes its per-cell decisions
    from this filtered field; the pass annihilates the alternating mode
    and perturbs smooth fields only at O(h^2).
    """
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


def _cost_gradient(spec: pen.PenaltySpec, a: np.ndarray,
                   gsq: np.ndarray) -> np.ndarray:
    """Per-cell gradient psi'(a) - |grad u|^2 of J(a) = int(f u(a) +
    psi(a)); gsq is |grad u(a)|^2."""
    return pen.psi_prime(spec, a) - gsq


def compliance_descent(mesh: Mesh, f, spec: pen.PenaltySpec, *,
                       tol: float = _TOL, max_iters: int = _MAX_ITERS,
                       a0: float | np.ndarray | None = None):
    """Minimize int(f u(a) + psi(a)) over per-cell scalar coefficients.

    Returns (a, u, report).  The run starts from a0, a scalar or one
    value per cell projected onto the penalty domain (default: the box
    midpoint, or 1).  The direction is |grad u|^2 - psi'(a); each trial
    is projected onto the penalty domain before the solve.  The first
    step is 0.1 against a direction normalized to the coefficient scale;
    a trial the projection maps back onto the iterate is a projection
    fixed point (stationary on the active set): the run has converged.

    Every state's cost is the energy form E(u) + int psi(a), E(u) = 2
    b.u - u.K u on the free dofs (``_energy``): at a CG iterate it
    misses the exact b.u by |e|_K^2, e the solve error, where b.u
    misses it by a first-order term.  So each iteration's solves, its
    trials and so its accepted state, run to the rtol of
    ``_solve_rtol``: min(sqrt(max(tol, 1e-10)), 0.1) in the first, then
    sqrt(0.01 r), r the last accepted step's relative change, never
    looser than the first nor tighter than 1e-10.  A trial's bound is
    the accepted cost less the trial's penalty (see ``RejectionBound``):
    CG's energy rises monotonically to E of its last iterate, so a
    stopped trial would have been rejected.  A run that stops on a
    projection fixed point, a vanishing direction or a stalled line
    search re-solves its final state once at 1e-10 and reports that
    cost; one that stops on the ratio test or after max_iters adds no
    solve.
    """
    _check_stop(tol, max_iters)
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    ref = spec.beta if spec.is_box else None

    def state(coeff, rtol, x0=None, J=None):
        # (E(u) + int psi, u) for the state u of coeff, or (inf, None)
        # when the solve stops on the bound of an accepted cost J; the
        # matrix is not kept past its energy
        psi = penalty_cost(mesh, coeff, spec)
        K = asm.assemble(coeff)
        bound = None if J is None else RejectionBound(J - psi)
        u_c = _solve(K, load, x0=x0, rtol=rtol, bound=bound)
        if u_c is None:
            return np.inf, None
        return _energy(K, load, u_c) + psi, u_c

    a = _initial_coefficient(mesh, spec, a0)
    rtol = _solve_rtol(tol)
    J, u = state(a, rtol)
    report = OptReport(costs=[J])
    eps = 0.1 * _STEP_CAP

    for _ in range(max_iters):
        dirn = -_cost_gradient(spec, a, grad_norm_sq(mesh, u))
        dmax = float(np.max(np.abs(dirn)))
        if dmax == 0.0:
            report.converged = True
            break
        scale = (ref if ref is not None else max(1.0, float(a.max()))) / dmax

        def trial_at(step):
            trial = pen.project_to_domain(spec, a + step * scale * dirn)
            if np.array_equal(trial, a):
                return None
            J_t, u_t = state(trial, rtol, x0=u, J=J)
            return J_t, None if u_t is None else (trial, u_t)

        hit, moved = _backtrack(trial_at, J, eps)
        if hit is None:
            # unmoved: a projection fixed point; else the budget ran out
            report.converged, report.stagnated = not moved, moved
            break

        eps, J, (a, u) = hit
        ratio = report.accept(J, eps)
        if ratio < tol:
            report.converged = True
            return a, u, report
        eps = min(2.0 * eps, _STEP_CAP)
        rtol = _solve_rtol(tol, ratio)
    else:
        return a, u, report

    # a stop off the ratio test reports its state solved at the floor
    if rtol > _RTOL:
        report.costs[-1], u = state(a, _RTOL, x0=u)
    return a, u, report


def energy_relaxed_solve(mesh: Mesh, f, alpha: float, beta: float,
                         gamma: float, *, tol: float = _TOL,
                         max_iters: int = _MAX_ITERS):
    """Alternating minimization of the relaxed two-phase energy.

    Functional: int(nu_t/2 |grad u|^2 - f u + gamma (beta - mu_t)/2).
    Both half-steps are exact: the state solve for fixed t, and the
    per-cell fraction update nu_t = sqrt(gamma alpha beta)/|grad u|
    (clipped; cells with a vanishing gradient take t = 0, i.e. the
    stiff phase beta).  Returns (t, a_eff, u, report) with a_eff the
    affine-box recovery from the final gradients.

    The cost is an energy already: at a CG iterate, 1/2 u.K u - b.u
    exceeds its minimum by 1/2 |e|_K^2, quadratic in the solve error e.
    So the state solves run to the rtol of ``_solve_rtol``, as in
    ``compliance_descent``: the first two at min(sqrt(max(tol, 1e-10)),
    0.1), each later one at sqrt(0.01 r), r the relative change of the
    update before it, within [1e-10, min(sqrt(max(tol, 1e-10)), 0.1)].
    CG lowers the energy from its warm start, the previous state, so a
    loose solve does not make the energy rise.  A run that stops on its
    fixed point (the update leaves t unchanged) re-solves its final
    state once at 1e-10 and reports that cost, state and a_eff; one
    that stops on the ratio test or after max_iters adds no solve.
    """
    _check_stop(tol, max_iters)
    spec_eff = pen.PenaltySpec("affine-box", alpha=alpha, beta=beta,
                               gamma=gamma)
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    nu_star_num = np.sqrt(gamma * alpha * beta)

    def state(t, u0, rtol):
        # the state of fraction t, its |grad u|^2 and the energy; the
        # matrix is not kept past its solve
        mu, nu = lamination_means(t, alpha, beta)
        u = _solve(asm.assemble(nu), load, x0=u0, rtol=rtol)
        gsq = grad_norm_sq(mesh, u)
        J = 0.5 * float((mesh.cell_areas * nu) @ gsq) - float(load @ u) \
            + 0.5 * gamma * float(mesh.cell_areas @ (beta - mu))
        return u, gsq, J

    t = np.full(mesh.n_cells, _T0)
    rtol = _solve_rtol(tol)
    u, gsq, J = state(t, None, rtol)
    report = OptReport(costs=[J])
    for _ in range(max_iters):
        # a vanishing gradient: nu = inf, clipped to beta, so t = 0
        with np.errstate(divide="ignore"):
            t_new = fraction_from_harmonic(nu_star_num / np.sqrt(gsq),
                                           alpha, beta)
        if np.array_equal(t_new, t):
            report.converged = True
            # a fixed point reports its state solved at the floor
            if rtol > _RTOL:
                u, gsq, report.costs[-1] = state(t, u, _RTOL)
            break
        t = t_new
        u, gsq, J = state(t, u, rtol)
        ratio = report.accept(J, 1.0)
        if ratio < tol:
            report.converged = True
            break
        rtol = _solve_rtol(tol, ratio)

    a_eff = pen.recover_coefficient(spec_eff, gsq)
    return t, a_eff, u, report


def general_relaxed_optimize(mesh: Mesh, f, weight, g_field,
                             alpha: float, beta: float, *,
                             tol: float = _TOL, max_iters: int = _MAX_ITERS):
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
    Returns (t, A, u, p, report); A in (a11, a12, a22) column storage.

    The cost integrand is j(x, s) = weight(x) s, with weight a constant
    or a nodal array (ValueError for a wrong-length one).  It is
    assembled once, like a source term: that vector w is both the cost
    (w . u) and the adjoint right-hand side.  p is solved after the
    initial state and after each accepted update, with the matrix of
    that state's solve.  When w equals the state load bit for bit (a
    weight equal to f, the compliance case), p is u itself and no
    adjoint is solved.
    """
    _check_stop(tol, max_iters)
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)
    w = assemble_load(mesh, weight)
    self_adjoint = np.array_equal(w, load)
    g = _per_cell(mesh, g_field, "g_field")

    def adjoint(K, u, p):
        return u if self_adjoint else _solve(K, w, x0=p)

    def mass(mu):
        return float(mesh.cell_areas @ (g * mu))

    t = np.full(mesh.n_cells, _T0)
    mu, nu = lamination_means(t, alpha, beta)
    A = np.column_stack([nu, np.zeros(mesh.n_cells), nu])
    K = asm.assemble(A)
    u = _solve(K, load)
    p = adjoint(K, u, None)
    J = float(w @ u) + mass(mu)
    report = OptReport(costs=[J])

    eps = _STEP_CAP
    for _ in range(max_iters):
        gu = cell_gradient(mesh, u)
        gu_s = _smoothed_cell_gradient(mesh, gu)
        if p is u:
            gp, gp_s = gu, gu_s
        else:
            gp = cell_gradient(mesh, p)
            gp_s = _smoothed_cell_gradient(mesh, gp)
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
            rest = mass(mu_n)
            goal = () if self_adjoint else (w, p)
            u_t = _solve(K_t, load, x0=u,
                         bound=RejectionBound(J - rest, *goal))
            if u_t is None:
                return np.inf, None
            return float(w @ u_t) + rest, (t_new, a_new, mu_n, nu_n, u_t, K_t)

        # the Hamiltonian maximizers over the fraction target's box and
        # over the current box, from one pass over the gradients
        mu_b, nu_b = np.stack([mu_h, mu]), np.stack([nu_h, nu])
        a_hat, a_box = clamp_spectrum(optimal_laminate(gu, gp, mu_b, nu_b),
                                      nu_b, mu_b)
        if np.array_equal(t_hat, t) and np.array_equal(a_hat, A) \
                and np.array_equal(a_box, A):
            # pointwise optimality conditions hold exactly
            report.converged = True
            break

        hit, _ = _backtrack(partial(trial_at, t_hat, a_hat), J, eps)
        used_fallback = False
        if hit is None or report.change(hit[1]) < tol:
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
        eps_used, J, (t, A, mu, nu, u, K) = hit
        p = adjoint(K, u, p)

        lam1, lam2, _, _ = eig_sym_2x2(A)
        if np.any(lam1 < nu - 1e-10) or np.any(lam2 > mu + 1e-10):
            raise InternalConsistencyError(
                "updated tensor left the lamination box"
            )
        if report.accept(J, eps_used) < tol:
            report.converged = True
            break
        if not used_fallback:
            eps = min(2.0 * eps_used, _STEP_CAP)

    return t, A, u, p, report


def gradient_check(mesh: Mesh, f, spec: pen.PenaltySpec, a: np.ndarray,
                   direction: np.ndarray):
    """Analytic directional derivative of J versus central differences.

    dJ(a)[d] = int d (psi'(a) - |grad u|^2), the gradient the descent
    steps against (``_cost_gradient``), versus (J(a + h d) - J(a - h d))
    / (2 h), h = ``_CHECK_H``; every state is solved to ``_CHECK_RTOL``.
    Returns (analytic, fd, rel_mismatch).
    """
    asm = StiffnessAssembler(mesh)
    load = assemble_load(mesh, f)

    def cost(coeff):
        u = _solve(asm.assemble(coeff), load, rtol=_CHECK_RTOL)
        return cost_functional(mesh, load, u, coeff, spec)

    a = np.asarray(a, dtype=float)
    direction = np.asarray(direction, dtype=float)
    u = _solve(asm.assemble(a), load, rtol=_CHECK_RTOL)
    grad = _cost_gradient(spec, a, grad_norm_sq(mesh, u))
    analytic = float(mesh.cell_areas @ (direction * grad))
    h = _CHECK_H
    fd = (cost(a + h * direction) - cost(a - h * direction)) / (2.0 * h)
    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-300)
    return analytic, fd, rel
