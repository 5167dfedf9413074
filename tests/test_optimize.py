import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from coeffopt import fem, optimize
from coeffopt.fem import (LinearSystem, SolverFailure, StiffnessAssembler,
                          assemble_load, grad_norm_sq, solve_dirichlet)
from coeffopt.gclosure import eig_sym_2x2, lamination_means
from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh
from coeffopt.oracles import counterexample_fields, ex11_ball
from coeffopt.optimize import (
    compliance_descent,
    energy_relaxed_solve,
    general_relaxed_optimize,
    gradient_check,
)
from coeffopt.penalty import PenaltySpec


# each driver on the n = 4 square, with its stop rule as keywords
DRIVERS = {
    "compliance": lambda m, **stop: compliance_descent(
        m, 1.0, PenaltySpec("quadratic"), **stop),
    "energy": lambda m, **stop: energy_relaxed_solve(
        m, 1.0, 1.0, 2.0, 0.0142, **stop),
    "laminate": lambda m, **stop: general_relaxed_optimize(
        m, 1.0, 1.0, 0.05, 1.0, 2.0, **stop),
}


@pytest.mark.parametrize("n", [1, 2])
def test_drivers_run_with_no_and_one_free_vertex(n):
    # the n = 1 square has no free vertex, the n = 2 square one
    m = build_unit_square_mesh(n)
    w = 1.0 + 0.5 * m.vertices[:, 0]
    a, u, rep_c = compliance_descent(m, 1.0, PenaltySpec("quadratic"))
    t_e, _, u_e, rep_e = energy_relaxed_solve(m, 1.0, 1.0, 2.0, 0.1)
    t, A, u_g, p, rep_g = general_relaxed_optimize(m, 1.0, w, 0.05, 1.0, 2.0)
    for rep in (rep_c, rep_e, rep_g):
        assert rep.converged and rep.iterations >= 1
        assert np.all(np.isfinite(rep.costs))
        assert np.all(np.diff(rep.costs) < 0.0)
    for v in (u, u_e, u_g, p):
        assert v.shape == (m.n_vertices,) and np.all(v[m.boundary] == 0.0)
        assert np.all(v[~m.boundary] > 0.0)
    assert p is not u_g
    assert np.all(a > 0.0) and np.all((t_e >= 0.0) & (t_e <= 1.0))
    assert np.all((t >= 0.0) & (t <= 1.0)) and A.shape == (m.n_cells, 3)


@pytest.mark.parametrize("run", DRIVERS.values(), ids=DRIVERS.keys())
def test_stop_rule_validation(monkeypatch, run):
    real = optimize.solve_dirichlet
    solves = []

    def solve(system, x0=None, **kwargs):
        solves.append(x0 is None)
        return real(system, x0=x0, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    m = build_unit_square_mesh(4)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            run(m, tol=tol)
    # a float cap was accepted and failed in range() after the first solve
    for cap in (0, 2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="max_iters"):
            run(m, max_iters=cap)
    assert solves == []
    rep = run(m, max_iters=np.int64(3))[-1]
    assert solves[0] and 1 <= rep.iterations <= 3


@pytest.mark.parametrize("run", [DRIVERS["energy"], DRIVERS["laminate"]],
                         ids=["energy", "laminate"])
def test_relaxed_drivers_take_no_initial_design(run):
    with pytest.raises(TypeError, match="a0"):
        run(build_unit_square_mesh(4), a0=1.5)


def test_general_rejects_wrong_length_weight():
    m = build_unit_square_mesh(4)
    with pytest.raises(ValueError, match="nodal source"):
        general_relaxed_optimize(m, 1.0, np.ones(3), 0.05, 1.0, 2.0)
    with pytest.raises(ValueError, match="nodal source"):
        general_relaxed_optimize(m, 1.0, np.ones(m.n_cells), 0.05, 1.0, 2.0)


def test_compliance_quadratic_disk():
    m = build_unit_disk_mesh(0.1)
    a, u, rep = compliance_descent(m, 1.0, PenaltySpec("quadratic"))
    assert rep.converged and not rep.stagnated
    assert np.all(np.diff(rep.costs) < 0.0)
    assert rep.iterations == len(rep.costs) - 1
    # matches the closed-form radial optimum at coarse-mesh accuracy
    cen = m.cell_centroids()
    r = np.hypot(cen[:, 0], cen[:, 1])
    a_ref = ex11_ball(r)[1]
    l2 = np.sqrt(m.cell_areas @ (a - a_ref) ** 2
                 / (m.cell_areas @ a_ref ** 2))
    assert l2 < 0.06


def test_compliance_preserves_symmetry():
    # the disk mesh has a 6-fold symmetric structure; cells at the same
    # centroid radius must end with (nearly) the same coefficient
    m = build_unit_disk_mesh(0.1)
    a, _, _ = compliance_descent(m, 1.0, PenaltySpec("quadratic"))
    cen = m.cell_centroids()
    r = np.round(np.hypot(cen[:, 0], cen[:, 1]), 9)
    worst = 0.0
    for val in np.unique(r):
        sel = r == val
        if sel.sum() >= 6 and a[sel].mean() > 1e-3:
            spread = (a[sel].max() - a[sel].min()) / a[sel].mean()
            worst = max(worst, spread)
    assert worst < 1e-2


def test_compliance_fixed_point_residual():
    # at the default tolerance the self-consistency a = |grad u|^2 holds
    # to a few parts in 1e4; the cost-based stop cannot push it to
    # machine precision, only to the scale set by the step noise
    m = build_unit_disk_mesh(0.1)
    a, u, rep = compliance_descent(m, 1.0, PenaltySpec("quadratic"))
    gsq = grad_norm_sq(m, u)
    res = np.linalg.norm(a - gsq) / np.linalg.norm(a)
    assert res < 1e-3


def test_compliance_zero_load_box():
    # with f = 0 the cost reduces to the penalty; a box penalty with a
    # positive slope drives every cell to alpha immediately
    m = build_unit_disk_mesh(0.2)
    spec = PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=0.05)
    a, u, rep = compliance_descent(m, 0.0, spec)
    assert rep.converged
    assert rep.iterations <= 2
    assert np.all(a == 1.0)
    assert np.all(u == 0.0)


def test_compliance_respects_domain():
    m = build_unit_square_mesh(8)
    spec = PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=0.01141)
    a, _, rep = compliance_descent(m, 1.0, spec)
    assert np.all(a >= 1.0) and np.all(a <= 2.0)
    assert rep.converged


def test_compliance_deterministic():
    m = build_unit_square_mesh(8)
    spec = PenaltySpec("quadratic")
    a1, u1, r1 = compliance_descent(m, 1.0, spec)
    a2, u2, r2 = compliance_descent(m, 1.0, spec)
    assert np.array_equal(a1, a2)
    assert np.array_equal(u1, u2)
    assert r1.costs == r2.costs


def test_gradient_check_quadratic():
    m = build_unit_square_mesh(8)
    rng = np.random.default_rng(0)
    spec = PenaltySpec("quadratic")
    for _ in range(3):
        a = rng.uniform(0.5, 2.0, m.n_cells)
        d = rng.normal(size=m.n_cells)
        _, _, rel = gradient_check(m, 1.0, spec, a, d)
        assert rel < 1e-4


def test_gradient_check_box_interior():
    m = build_unit_square_mesh(8)
    rng = np.random.default_rng(1)
    spec = PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=0.05)
    a = rng.uniform(1.2, 1.8, m.n_cells)
    d = rng.normal(size=m.n_cells)
    d /= np.abs(d).max()
    _, _, rel = gradient_check(m, 1.0, spec, a, d)
    assert rel < 1e-4


def test_gradient_check_zero_direction():
    m = build_unit_square_mesh(4)
    a = np.ones(m.n_cells)
    analytic, fd, _ = gradient_check(m, 1.0, PenaltySpec("quadratic"), a,
                                     np.zeros(m.n_cells))
    assert analytic == 0.0
    assert abs(fd) < 1e-12


def test_gradient_check_checks_the_descent_gradient(monkeypatch):
    # criterion 2 checks the gradient the descent steps along: both
    # take it from one function
    calls = []
    real = optimize._cost_gradient

    def recording(spec, a, gsq):
        calls.append(real(spec, a, gsq))
        return calls[-1]

    monkeypatch.setattr(optimize, "_cost_gradient", recording)
    m = build_unit_square_mesh(4)
    spec = PenaltySpec("affine-box", gamma=0.0142)
    compliance_descent(m, 1.0, spec, max_iters=1)
    assert len(calls) == 1
    d = np.linspace(-1.0, 1.0, m.n_cells)
    analytic, _, _ = gradient_check(m, 1.0, spec, np.full(m.n_cells, 1.5), d)
    assert len(calls) == 2
    assert analytic == float(m.cell_areas @ (d * calls[1]))


def test_energy_relaxed_square():
    m = build_unit_square_mesh(16)
    t, a_eff, u, rep = energy_relaxed_solve(m, 1.0, 1.0, 2.0, 0.0142)
    assert rep.converged
    assert np.all(np.diff(rep.costs) <= 1e-15)
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    assert np.all(a_eff >= 1.0 - 1e-12) and np.all(a_eff <= 2.0 + 1e-12)
    # interior cells mix: both phases must be present at this gamma
    assert t.max() > 0.9 and t.min() < 0.1


def test_energy_ratios_are_the_stop_test():
    m = build_unit_square_mesh(16)
    rep = energy_relaxed_solve(m, 1.0, 1.0, 2.0, 0.0142)[3]
    assert rep.converged and rep.iterations > 2
    assert rep.steps == [1.0] * rep.iterations
    # the ratio column is the stop test's relative change, bit for bit:
    # every update but the last changed the cost by tol or more
    c, tol = rep.costs, optimize._TOL
    assert rep.ratios == [abs(c[k + 1] - c[k]) / abs(c[0])
                          for k in range(rep.iterations)]
    assert all(r >= tol for r in rep.ratios[:-1]) and rep.ratios[-1] < tol


@pytest.mark.parametrize("k", [1, 3])
def test_energy_iteration_cap(monkeypatch, k):
    real = optimize.solve_dirichlet
    solves = []

    def solve(system, x0=None, **kwargs):
        solves.append(x0 is None)
        return real(system, x0=x0, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    m = build_unit_square_mesh(8)
    rep = energy_relaxed_solve(m, 1.0, 1.0, 2.0, 0.0142,
                               max_iters=k, tol=1e-300)[3]
    assert rep.iterations == k and not rep.converged
    assert len(rep.costs) == k + 1
    # one cold initial solve, then one warm state solve per iteration
    assert solves == [True] + [False] * k


def test_energy_gamma_to_zero_limit():
    # as gamma -> 0 the mass term vanishes and the energy is minimized
    # by the softest admissible conductivity: t -> 1 (all alpha) and the
    # state approaches the plain Poisson solution scaled by 1/alpha
    m = build_unit_square_mesh(16)
    t, _, u, rep = energy_relaxed_solve(m, 1.0, 1.0, 2.0, 1e-8)
    assert rep.converged
    assert t.min() > 1.0 - 1e-3
    K = StiffnessAssembler(m).assemble(np.ones(m.n_cells))
    u_ref = solve_dirichlet(
        LinearSystem(K, assemble_load(m, 1.0), m.boundary), rtol=1e-12)
    assert np.abs(u - u_ref).max() / np.abs(u_ref).max() < 1e-4


def test_energy_rejects_bad_gamma():
    m = build_unit_square_mesh(4)
    with pytest.raises(ValueError):
        energy_relaxed_solve(m, 1.0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        energy_relaxed_solve(m, 1.0, 1.0, 2.0, float("nan"))


def test_general_layered_self_adjoint():
    # cost weight == load makes the problem self-adjoint; the adjoint
    # must then be the state bit for bit, and the optimal tensors stay
    # isotropic (no genuine lamination at epsilon = 0)
    m = build_unit_disk_mesh(0.1)
    tau = 0.23539
    t, A, u, p, rep = general_relaxed_optimize(
        m, 1.0, 1.0, tau ** 2, 1.0, 2.0)
    assert rep.converged and not rep.stagnated
    assert np.array_equal(p, u)
    lam1, lam2 = eig_sym_2x2(A)
    assert (lam2 / lam1).max() < 1.01
    # the isotropic value tracks the classical radial optimum
    cen = m.cell_centroids()
    r = np.hypot(cen[:, 0], cen[:, 1])
    a_ref = counterexample_fields(r, tau)[0]
    l2 = np.sqrt(m.cell_areas @ (lam1 - a_ref) ** 2
                 / (m.cell_areas @ a_ref ** 2))
    assert l2 < 0.05


def test_general_feasibility_invariants():
    m = build_unit_disk_mesh(0.15)
    tau = 0.23539
    cen = m.cell_centroids()
    weight_nodes = 1.0 + 0.5 * m.vertices[:, 0]
    t, A, u, p, rep = general_relaxed_optimize(
        m, 1.0, weight_nodes, tau ** 2, 1.0, 2.0)
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    mu, nu = lamination_means(t, 1.0, 2.0)
    lam1, lam2 = eig_sym_2x2(A)
    assert np.all(lam1 >= nu - 1e-10)
    assert np.all(lam2 <= mu + 1e-10)
    assert np.all(np.diff(rep.costs) < 0.0)
    assert rep.converged or rep.stagnated or rep.iterations == 2000


def test_general_phases_where_means_round_past_a_phase():
    # at (0.2, 0.4) the harmonic mean of a pure phase rounds one ulp
    # above the arithmetic one unless lamination_means caps it
    m = build_unit_disk_mesh(0.1)
    t, A, u, p, rep = general_relaxed_optimize(
        m, 1.0, 1.0, 0.23539 ** 2, 0.2, 0.4)
    assert rep.iterations > 0 and not rep.stagnated
    assert np.all(np.diff(rep.costs) < 0.0)
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    mu, nu = lamination_means(t, 0.2, 0.4)
    lam1, lam2 = eig_sym_2x2(A)
    assert np.all(lam1 >= nu - 1e-10)
    assert np.all(lam2 <= mu + 1e-10)


def test_general_deterministic():
    m = build_unit_disk_mesh(0.2)
    tau = 0.23539
    r1 = general_relaxed_optimize(m, 1.0, 1.0, tau ** 2,
                                  1.0, 2.0)[4]
    r2 = general_relaxed_optimize(m, 1.0, 1.0, tau ** 2,
                                  1.0, 2.0)[4]
    assert r1.costs == r2.costs
    assert r1.steps == r2.steps


def test_general_validates_g_field():
    m = build_unit_square_mesh(4)
    with pytest.raises(ValueError):
        general_relaxed_optimize(m, 1.0, 1.0,
                                 np.ones(m.n_cells + 2), 1.0, 2.0)


def test_report_iterations_property():
    m = build_unit_square_mesh(6)
    _, _, rep = compliance_descent(m, 1.0, PenaltySpec("quadratic"))
    assert rep.iterations == len(rep.steps) == len(rep.ratios)
    assert len(rep.costs) == rep.iterations + 1


def test_initial_coefficient_override():
    m = build_unit_square_mesh(6)
    spec = PenaltySpec("quadratic")
    _, _, rep = compliance_descent(m, 1.0, spec, a0=2.0, max_iters=1)
    # the first recorded cost must reflect the requested start
    K = StiffnessAssembler(m).assemble(np.full(m.n_cells, 2.0))
    u0 = solve_dirichlet(LinearSystem(K, assemble_load(m, 1.0), m.boundary))
    J0 = float(assemble_load(m, 1.0) @ u0) + float(
        m.cell_areas @ (np.full(m.n_cells, 2.0) ** 2 / 2.0))
    assert abs(rep.costs[0] - J0) < 1e-9
    with pytest.raises(ValueError):
        compliance_descent(m, 1.0, spec, a0=np.ones(3))


def _fail_first_trial(monkeypatch):
    """Make the first warm-started solve raise: a line-search trial in
    both descents, since the initial solve starts cold and the
    self-adjoint laminate run makes no adjoint solve."""
    real = optimize.solve_dirichlet
    failures = []

    def solve(system, x0=None, **kwargs):
        if x0 is not None and not failures:
            failures.append(system)
            raise SolverFailure("injected trial failure")
        return real(system, x0=x0, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    return failures


def _run_compliance():
    m = build_unit_square_mesh(8)
    return compliance_descent(m, 1.0, PenaltySpec("quadratic"),
                              max_iters=20)[2]


def _run_general():
    m = build_unit_disk_mesh(0.2)
    return general_relaxed_optimize(m, 1.0, 1.0, 0.23539 ** 2,
                                    1.0, 2.0, max_iters=20)[4]


@pytest.mark.parametrize("run", [_run_compliance, _run_general])
def test_failed_trial_solve_is_rejected_step(monkeypatch, run):
    clean = run()
    failures = _fail_first_trial(monkeypatch)
    rep = run()
    assert len(failures) == 1
    assert rep.iterations > 0
    assert np.all(np.diff(rep.costs) < 0.0)
    # the failed trial halved the first step
    assert rep.steps[0] == 0.5 * clean.steps[0]


@pytest.mark.parametrize("run", [_run_compliance, _run_general])
def test_failed_initial_solve_raises(monkeypatch, run):
    def solve(system, **kwargs):
        raise SolverFailure("injected")

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    with pytest.raises(SolverFailure):
        run()


def _fail_trial_solves(monkeypatch):
    """Make every solve that carries a rejection bound raise: every
    line-search trial fails, while the initial and final state solves
    and the adjoint solves (no bound) run."""
    real = optimize.solve_dirichlet
    failures = []

    def solve(system, bound=None, **kwargs):
        if bound is not None:
            failures.append(True)
            raise SolverFailure("injected trial failure")
        return real(system, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    return failures


def _run_tilted():
    m = build_unit_disk_mesh(0.2)
    weight = 1.0 + 0.5 * m.vertices[:, 0]
    return general_relaxed_optimize(m, 1.0, weight, 0.23539 ** 2,
                                    1.0, 2.0)[4]


# 31 trials per search; the laminate descent runs out of its fraction
# step, then of its fixed-fraction fallback
@pytest.mark.parametrize("run, trials", [(_run_compliance, 31),
                                         (_run_tilted, 62)])
def test_failing_trials_exhaust_the_halving_budget(monkeypatch, run, trials):
    failures = _fail_trial_solves(monkeypatch)
    rep = run()
    assert len(failures) == trials
    assert rep.stagnated and not rep.converged
    assert rep.iterations == 0 and len(rep.costs) == 1


class _SolverLog:
    """Records the solves, assemblies and V-cycle builds of a descent.

    Matrices and V-cycles are held by weak reference only, so the log
    sees exactly what the descent keeps alive.
    """

    def __init__(self, monkeypatch):
        self.solves = []  # one _Solve per solve, in order
        self.load = None  # the first solve's load: the descent's own
        self.assembled = 0
        self.live_at_assembly = []  # V-cycles alive as each assembly starts
        self.builds = 0
        self.state_matrices = []  # weak references
        self.vcycles = []
        solve, assemble = optimize.solve_dirichlet, fem.StiffnessAssembler.assemble
        precond = fem.StiffnessAssembler.preconditioner

        def alive(refs, obj=None):
            return [r for r in refs if r() is not None
                    and (obj is None or r() is obj)]

        def counting_solve(system, x0=None, **kwargs):
            if self.load is None:
                self.load = system.rhs
            K = system.matrix
            rec = _Solve(state=system.rhs is self.load, warm=x0 is not None,
                         reused=bool(alive(self.state_matrices, K)),
                         live_vcycles=len(alive(self.vcycles)))
            before = self.builds
            u = solve(system, x0=x0, **kwargs)
            rec.builds = self.builds - before
            if rec.state:
                self.state_matrices.append(weakref.ref(K))
            self.solves.append(rec)
            return u

        def counting_assemble(asm, coeff):
            self.assembled += 1
            self.live_at_assembly.append(len(alive(self.vcycles)))
            return assemble(asm, coeff)

        def counting_precond(asm, K):
            self.builds += 1
            M = precond(asm, K)
            self.vcycles.append(weakref.ref(M))
            return M

        monkeypatch.setattr(optimize, "solve_dirichlet", counting_solve)
        monkeypatch.setattr(fem.StiffnessAssembler, "assemble",
                            counting_assemble)
        monkeypatch.setattr(fem.StiffnessAssembler, "preconditioner",
                            counting_precond)


@dataclass
class _Solve:
    state: bool  # the initial solve or a trial: the descent's load
    warm: bool
    reused: bool  # its matrix is one an earlier state solve used
    live_vcycles: int  # V-cycles alive as the solve starts
    builds: int = 0  # V-cycles built during the solve


def test_self_adjoint_run_solves_no_adjoint(monkeypatch):
    log = _SolverLog(monkeypatch)
    m = build_unit_disk_mesh(0.1)
    t, A, u, p, rep = general_relaxed_optimize(
        m, 1.0, 1.0, 0.23539 ** 2, 1.0, 2.0)
    assert p is u
    trials = [s for s in log.solves if s.state and s.warm]
    assert len(log.solves) == 1 + len(trials)
    assert len(trials) >= rep.iterations > 0
    # one assembly and one V-cycle per solved coefficient
    assert log.assembled == log.builds == len(log.solves)


@pytest.mark.parametrize("h", [0.2, 0.15])
def test_tilted_adjoint_reuses_the_accepted_operator(monkeypatch, h):
    log = _SolverLog(monkeypatch)
    m = build_unit_disk_mesh(h)
    weight = 1.0 + 0.5 * m.vertices[:, 0]
    rep = general_relaxed_optimize(m, 1.0, weight,
                                   0.23539 ** 2, 1.0, 2.0)[4]
    assert rep.converged
    state = [s for s in log.solves if s.state]
    adjoints = [s for s in log.solves if not s.state]
    # one adjoint per iteration, plus the one paired with the final tensor
    assert len(adjoints) == rep.iterations + 1
    # adjoints assemble nothing: each solves with the matrix of an
    # earlier state solve
    assert log.assembled == len(state)
    assert all(s.reused for s in adjoints)
    # every solve builds its own V-cycle and frees it on return, so no
    # V-cycle is alive as an assembly or a solve starts
    assert all(s.builds == 1 for s in log.solves)
    assert log.live_at_assembly == [0] * log.assembled
    assert all(s.live_vcycles == 0 for s in log.solves)


def test_stalled_run_solves_each_adjoint_once(monkeypatch):
    # every trial fails, so the run stops on its first line search; its
    # adjoint was solved right after the initial state, with that
    # state's matrix, and is not solved again
    failures = _fail_trial_solves(monkeypatch)
    log = _SolverLog(monkeypatch)
    rep = _run_tilted()
    assert rep.stagnated and rep.iterations == 0
    state = [s for s in log.solves if s.state]
    adjoints = [s for s in log.solves if not s.state]
    assert len(adjoints) == rep.iterations + 1
    assert all(s.reused for s in adjoints)
    # one assembly per state solve, the failed trials included
    assert log.assembled == len(state) + len(failures)


def _rejecting_compliance(**stop):
    m = build_unit_disk_mesh(0.07)
    a0 = np.random.default_rng(7).uniform(0.5, 2.0, m.n_cells)
    return compliance_descent(m, 1.0, PenaltySpec("quadratic"), a0=a0,
                              **stop)


def _rejecting_laminate(epsilon):
    m = build_unit_disk_mesh(0.07)
    weight = 1.0 + epsilon * m.vertices[:, 0]
    return general_relaxed_optimize(m, 1.0, weight, 0.23539 ** 2, 1.0, 2.0)


# compliance-loose: a stop of 1e-5, so trials solve to rtol up to
# sqrt(1e-5) = 3.2e-3 and rest on the energy slack that cg adds (see
# ``RejectionBound``)
@pytest.mark.parametrize("run", [_rejecting_compliance,
                                 partial(_rejecting_compliance, tol=1e-5),
                                 partial(_rejecting_laminate, 0.0),
                                 partial(_rejecting_laminate, 0.5)],
                         ids=["compliance", "compliance-loose", "isotropic",
                              "tilted"])
def test_rejection_bound_changes_no_result(monkeypatch, run):
    # a trial solve stopped on its bound is one the full solve would
    # have rejected: the run with the bound dropped takes the same
    # steps to the same design, bit for bit
    real = optimize.solve_dirichlet
    rejected = []

    def bounded(system, **kwargs):
        u = real(system, **kwargs)
        rejected.append(u is None)
        return u

    def unbounded(system, bound=None, **kwargs):
        return real(system, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", bounded)
    fast = run()
    monkeypatch.setattr(optimize, "solve_dirichlet", unbounded)
    full = run()
    assert sum(rejected) >= 5
    assert fast[-1].costs == full[-1].costs
    assert fast[-1].steps == full[-1].steps
    assert fast[-1].converged and full[-1].converged
    for x, y in zip(fast[:-1], full[:-1]):
        assert np.array_equal(x, y)


def _record_rtols(monkeypatch):
    """Each solve's rtol, in order; None when the call leaves it to
    ``solve_dirichlet``'s default."""
    real = optimize.solve_dirichlet
    rtols = []

    def solve(system, **kwargs):
        rtols.append(kwargs.get("rtol"))
        return real(system, **kwargs)

    monkeypatch.setattr(optimize, "solve_dirichlet", solve)
    return rtols


@pytest.mark.parametrize("tol", [np.inf, 0.5, 1e-3, 1e-6, 1e-300])
@pytest.mark.parametrize("driver", ["compliance", "energy"])
def test_scalar_solves_are_as_tight_as_the_stop(monkeypatch, driver, tol):
    # the costs are energies, so the first solve runs at the square root
    # of the stop's tolerance, but no looser than sqrt(1e-2) (an
    # infinite stop runs too), every later one between the floor and
    # it; a stop below the floor solves as a stop at it
    rtols = _record_rtols(monkeypatch)
    run = partial(DRIVERS[driver], build_unit_square_mesh(8), max_iters=30)
    rep = run(tol=tol)[-1]
    floor = 1e-10
    top = min(np.sqrt(max(tol, floor)), np.sqrt(1e-2))
    assert rtols[0] == top
    assert all(floor <= r <= top for r in rtols)
    if tol < floor:
        below = rtols[:]
        rtols.clear()
        run(tol=floor)
        assert below[:len(rtols)] == rtols
    elif top == np.sqrt(tol):
        assert min(rtols) < top  # the schedule acts within the run
    if driver == "energy":
        # one state solve per iteration, each at the square root of 0.01
        # of the relative change of the update before it
        assert rtols == [top, top] + [
            min(top, max(floor, np.sqrt(0.01 * min(r, 1.0))))
            for r in rep.ratios[:-1]]


def test_laminate_and_gradient_check_keep_their_rtol(monkeypatch):
    rtols = _record_rtols(monkeypatch)
    _run_tilted()
    assert rtols and set(rtols) == {None}
    rtols.clear()
    m = build_unit_square_mesh(8)
    gradient_check(m, 1.0, PenaltySpec("quadratic"), np.ones(m.n_cells),
                   np.linspace(-1.0, 1.0, m.n_cells))
    assert rtols == [optimize._CHECK_RTOL] * 3


_ACCURACY_CASES = [
    ("quadratic-disk", partial(build_unit_disk_mesh, 0.1),
     PenaltySpec("quadratic")),
    ("twophase-square", partial(build_unit_square_mesh, 16),
     PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=0.01141)),
    ("affine-box-square", partial(build_unit_square_mesh, 32),
     PenaltySpec("affine-box", alpha=1.0, beta=2.0, gamma=0.02)),
]


@pytest.mark.parametrize("mesh, spec, tol", [
    pytest.param(mesh, spec, tol,
                 id=name if tol == optimize._TOL else f"{name}-tol{tol:g}")
    for name, mesh, spec in _ACCURACY_CASES
    for tol in (optimize._TOL, 0.5, 2.0)])
def test_final_cost_is_accurate_to_the_stop(mesh, spec, tol):
    # the reported cost comes from a solve looser than 1e-10; it agrees
    # with the final design's cost re-solved tightly to well within the
    # stop's resolution, on a ratio stop and on the projection fixed
    # point that ends the affine-box run at the default stop
    m = mesh()
    a, _, rep = compliance_descent(m, 1.0, spec, tol=tol)
    assert rep.converged
    load = assemble_load(m, 1.0)
    K = StiffnessAssembler(m).assemble(a)
    u = solve_dirichlet(LinearSystem(K, load, m.boundary), rtol=1e-11)
    J = fem.cost_functional(m, load, u, a, spec)
    assert abs(rep.costs[-1] - J) < 0.01 * tol * abs(rep.costs[0])


@pytest.mark.parametrize("tol", [optimize._TOL, 0.5, 2.0])
def test_final_energy_is_accurate_to_the_stop(tol):
    # as for compliance: the energy of the final fraction, re-solved
    # tightly, is the reported one to within the stop's resolution
    m = build_unit_disk_mesh(0.05)
    alpha, beta, gamma = 1.0, 2.0, 0.0142
    t, _, _, rep = energy_relaxed_solve(m, 1.0, alpha, beta, gamma, tol=tol)
    assert rep.converged
    load = assemble_load(m, 1.0)
    mu, nu = lamination_means(t, alpha, beta)
    K = StiffnessAssembler(m).assemble(nu)
    u = solve_dirichlet(LinearSystem(K, load, m.boundary), rtol=1e-11)
    J = 0.5 * float((m.cell_areas * nu) @ fem.grad_norm_sq(m, u)) \
        - float(load @ u) + 0.5 * gamma * float(m.cell_areas @ (beta - mu))
    assert abs(rep.costs[-1] - J) < 0.01 * tol * abs(rep.costs[0])


def test_off_ratio_stop_reports_its_cost_at_the_floor(monkeypatch):
    # the affine-box run (custom --penalty affine-box --gamma 0.02 --n
    # 32) stops on a projection fixed point, whose state was solved
    # loosely: it re-solves it once at 1e-10 and reports that cost; a
    # run that stops on the ratio test adds no solve
    rtols = _record_rtols(monkeypatch)
    m = build_unit_square_mesh(32)
    spec = PenaltySpec("affine-box", alpha=1.0, beta=2.0, gamma=0.02)
    a, u, rep = compliance_descent(m, 1.0, spec)
    assert rep.converged and rep.ratios[-1] >= optimize._TOL
    assert rtols[-1] == 1e-10 and rtols.count(1e-10) == 1
    load = assemble_load(m, 1.0)
    K = StiffnessAssembler(m).assemble(a)
    u_tight = solve_dirichlet(LinearSystem(K, load, m.boundary), rtol=1e-11)
    J = fem.cost_functional(m, load, u_tight, a, spec)
    assert abs(rep.costs[-1] - J) < 1e-12 * abs(rep.costs[0])
    assert np.abs(u - u_tight).max() < 1e-8 * np.abs(u_tight).max()

    rtols.clear()
    rep = compliance_descent(build_unit_disk_mesh(0.1), 1.0,
                             PenaltySpec("quadratic"))[2]
    assert rep.converged and rep.ratios[-1] < optimize._TOL
    assert min(rtols) > 1e-10
