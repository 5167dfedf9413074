"""End-to-end acceptance checks.

Each criterion prints a single ``criterion N: PASS/FAIL - detail`` line
(visible under plain ``pytest`` runs) and asserts.  Driver runs are
shared through module-scoped fixtures; the whole file stays well under
the two minute budget single-threaded.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from coeffopt.fem import (
    LinearSystem,
    StiffnessAssembler,
    assemble_load,
    cell_gradient,
    solve_dirichlet,
)
from coeffopt.gclosure import (
    eig_sym_2x2,
    is_admissible,
    lamination_means,
    optimal_t,
)
from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh
from coeffopt.oracles import counterexample_fields, ex11_ball, ex14_ball
from coeffopt.optimize import (
    compliance_descent,
    energy_relaxed_solve,
    general_relaxed_optimize,
    gradient_check,
)
from coeffopt.penalty import (
    VARIANTS,
    PenaltySpec,
    phi_eval,
    phi_prime,
    psi_conjugate,
    psi_eval,
    recover_coefficient,
)

ALPHA, BETA = 1.0, 2.0
TAU = 0.23539


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def l2_cells(mesh, x, ref):
    return float(np.sqrt(mesh.cell_areas @ (x - ref) ** 2
                         / (mesh.cell_areas @ ref ** 2)))


def l2_vertices(mesh, x, ref):
    dsq = (x - ref) ** 2
    rsq = ref ** 2
    num = mesh.cell_areas @ dsq[mesh.triangles].mean(axis=1)
    den = mesh.cell_areas @ rsq[mesh.triangles].mean(axis=1)
    return float(np.sqrt(num / den))


def centroid_radii(mesh):
    cen = mesh.cell_centroids()
    return np.hypot(cen[:, 0], cen[:, 1])


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def quadratic_disk_run():
    mesh = build_unit_disk_mesh(1.0 / 64.0)
    t0 = time.perf_counter()
    a, u, rep = compliance_descent(mesh, 1.0, PenaltySpec("quadratic"))
    return mesh, a, u, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def twophase_square_run():
    mesh = build_unit_square_mesh(64)
    spec = PenaltySpec("linear-box", alpha=ALPHA, beta=BETA, gamma=0.01141)
    a, u, rep = compliance_descent(mesh, 1.0, spec)
    return mesh, spec, a, u, rep


@pytest.fixture(scope="module")
def energy_disk_run():
    mesh = build_unit_disk_mesh(0.02)
    t, a_eff, u, rep = energy_relaxed_solve(mesh, 1.0, ALPHA, BETA, 0.02)
    return mesh, t, a_eff, u, rep


@pytest.fixture(scope="module")
def general_isotropic_run():
    mesh = build_unit_disk_mesh(0.02)
    t0 = time.perf_counter()
    t, A, u, p, rep = general_relaxed_optimize(
        mesh, 1.0, 1.0, TAU ** 2, ALPHA, BETA)
    return mesh, t, A, u, p, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def general_tilted_run():
    mesh = build_unit_disk_mesh(0.02)
    weight = 1.0 + 0.5 * mesh.vertices[:, 0]
    t0 = time.perf_counter()
    t, A, u, p, rep = general_relaxed_optimize(
        mesh, 1.0, weight, TAU ** 2, ALPHA, BETA)
    return mesh, t, A, u, p, rep, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_01_fem_convergence_rate(capsys):
    t0 = time.perf_counter()
    errs = {}
    for n in (32, 64):
        mesh = build_unit_square_mesh(n)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = 2.0 * np.pi ** 2 * exact
        K = StiffnessAssembler(mesh).assemble(np.ones(mesh.n_cells))
        system = LinearSystem(K, assemble_load(mesh, f), mesh.boundary)
        u = solve_dirichlet(system, rtol=1e-12)
        errs[n] = l2_vertices(mesh, u, exact) * math.sqrt(
            float(mesh.cell_areas @ (exact ** 2)[mesh.triangles].mean(axis=1)))
    ratio = errs[32] / errs[64]
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5
    emit(capsys, 1, ok,
         f"L2 error ratio 32->64 = {ratio:.3f} (target [3.5, 4.5]), "
         f"e32={errs[32]:.3e}, e64={errs[64]:.3e}, runtime {elapsed:.2f}s")


def test_criterion_02_gradient_formula(capsys):
    mesh = build_unit_square_mesh(8)
    rng = np.random.default_rng(12345)
    worst = 0.0
    pairs = 0
    for k in range(10):
        variant = VARIANTS[k % len(VARIANTS)]
        if variant in ("linear-box", "affine-box"):
            spec = PenaltySpec(variant, alpha=ALPHA, beta=BETA, gamma=0.05)
            a = rng.uniform(1.1, 1.9, mesh.n_cells)
        else:
            spec = PenaltySpec(variant)
            a = rng.uniform(0.5, 2.0, mesh.n_cells)
        d = rng.normal(size=mesh.n_cells)
        d /= np.abs(d).max()
        _, _, rel = gradient_check(mesh, 1.0, spec, a, d)
        worst = max(worst, rel)
        pairs += 1
    ok = pairs == 10 and worst < 1e-4
    emit(capsys, 2, ok,
         f"worst relative mismatch {worst:.2e} over {pairs} random "
         f"(a, direction) pairs (target < 1e-4)")


def test_criterion_03_quadratic_disk_closed_form(capsys, quadratic_disk_run):
    mesh, a, u, rep, elapsed = quadratic_disk_run
    r = centroid_radii(mesh)
    a_ref = ex11_ball(r)[1]
    rv = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    u_ref = ex11_ball(rv)[0]
    err_a = l2_cells(mesh, a, a_ref)
    err_u = l2_vertices(mesh, u, u_ref)
    ok = rep.converged and err_a <= 0.05 and err_u <= 0.02
    emit(capsys, 3, ok,
         f"L2(a) = {err_a:.4f} (target <= 0.05), L2(u) = {err_u:.4f} "
         f"(target <= 0.02), {rep.iterations} iterations, {elapsed:.2f}s")


def test_criterion_04_twophase_volume_fraction(capsys, twophase_square_run):
    mesh, spec, a, u, rep = twophase_square_run
    mid = 0.5 * (ALPHA + BETA)
    frac = float(mesh.cell_areas[a > mid].sum() / mesh.cell_areas.sum())
    ok = rep.converged and abs(frac - 0.5) <= 0.05
    emit(capsys, 4, ok,
         f"beta-phase fraction {frac:.4f} at gamma=0.01141 "
         f"(target 0.50 +/- 0.05), {rep.iterations} iterations")


def test_criterion_05_energy_disk_interface_and_cost(capsys, energy_disk_run):
    mesh, t, a_eff, u, rep = energy_disk_run
    h = 0.02
    gamma = 0.02
    tau = 2.0 * math.sqrt(ALPHA * BETA * gamma)  # 0.4

    mid = 0.5 * (ALPHA + BETA)
    beta_area = float(mesh.cell_areas[a_eff > mid].sum())
    r_int = math.sqrt(beta_area / math.pi)

    def integrand(r):
        uu, aa, _ = ex14_ball(r, ALPHA, BETA, gamma)
        du = -r / (2.0 * aa)
        return (0.5 * aa * du * du - uu + 0.5 * gamma * (BETA - aa)) \
            * 2.0 * math.pi * r

    j_star = quad(integrand, 0.0, tau)[0] + quad(integrand, tau, 1.0)[0]
    j = rep.costs[-1]
    rel = abs(j - j_star) / abs(j_star)
    ok = rep.converged and abs(r_int - tau) <= 2.0 * h and rel <= 0.01
    emit(capsys, 5, ok,
         f"interface radius {r_int:.4f} (target {tau} +/- {2 * h}), "
         f"cost {j:.6f} vs quadrature oracle {j_star:.6f} "
         f"(rel {rel:.2e}, target <= 0.01), {rep.iterations} iterations")


def test_criterion_06_counterexample_isotropic(capsys, general_isotropic_run):
    mesh, t, A, u, p, rep, elapsed = general_isotropic_run
    lam1, lam2 = eig_sym_2x2(A)
    max_ratio = float((lam2 / lam1).max())
    value = 0.5 * (lam1 + lam2)
    a_ref = counterexample_fields(centroid_radii(mesh), TAU)[0]
    err = l2_cells(mesh, value, a_ref)
    ok = max_ratio <= 1.05 and err <= 0.05
    emit(capsys, 6, ok,
         f"max eigenvalue ratio {max_ratio:.4f} (target <= 1.05), "
         f"L2 vs classical optimum {err:.4f} (target <= 0.05), "
         f"{rep.iterations} iterations, {elapsed:.2f}s")


def test_criterion_07_counterexample_anisotropic(capsys, general_tilted_run):
    mesh, t, A, u, p, rep, elapsed = general_tilted_run
    lam1, lam2 = eig_sym_2x2(A)
    max_ratio = float((lam2 / lam1).max())
    ok = max_ratio >= 1.1
    emit(capsys, 7, ok,
         f"max eigenvalue ratio {max_ratio:.4f} at epsilon=0.5 "
         f"(target >= 1.1), {rep.iterations} iterations, {elapsed:.2f}s")


def test_criterion_08_gclosure_suite(capsys):
    rng = np.random.default_rng(2024)
    tol = 1e-9

    # admissibility vs the closed-form eigenvalue region
    lam = rng.uniform(ALPHA - 0.2, BETA + 0.2, size=(10_000, 2))
    lam.sort(axis=1)
    checked = 0
    disagreements = 0
    for lam1, lam2 in lam:
        lo = ALPHA * BETA / (ALPHA + BETA - lam1)
        hi = ALPHA + BETA - ALPHA * BETA / lam1
        closed = (ALPHA <= lam1 <= BETA) and (lo <= lam2 <= hi)
        margin = min(abs(lam1 - ALPHA), abs(lam1 - BETA),
                     abs(lam2 - ALPHA), abs(lam2 - BETA),
                     abs(lam2 - lo), abs(lam2 - hi))
        if margin < tol:
            continue  # boundary band: either answer acceptable
        checked += 1
        ok_pair, _ = is_admissible((lam1, lam2), ALPHA, BETA, tol=tol)
        if ok_pair != closed:
            disagreements += 1

    # trace identity
    t = rng.uniform(0.0, 1.0, 1000)
    mu, nu = lamination_means(t, ALPHA, BETA)
    trace_err = float(np.abs(mu + ALPHA * BETA / nu - (ALPHA + BETA)).max())

    # continuity of the optimal fraction across its branch boundaries
    n_plus, n_minus = 1.0, 0.25
    b_lo = n_plus - (BETA / ALPHA) * n_minus
    b_hi = n_plus - (ALPHA / BETA) * n_minus
    jump = 0.0
    for b in (b_lo, b_hi):
        g = np.linspace(b - 5e-5, b + 5e-5, 1001)
        tg = optimal_t(n_plus, n_minus, g, ALPHA, BETA)
        jump = max(jump, float(np.abs(np.diff(tg)).max()))

    ok = disagreements == 0 and trace_err <= 1e-12 and jump < 1e-4
    emit(capsys, 8, ok,
         f"{disagreements} admissibility disagreements over {checked} "
         f"pairs, trace identity error {trace_err:.2e} (target <= 1e-12), "
         f"max optimal_t jump {jump:.2e} (target < 1e-4)")


def test_criterion_09_conjugate_young_suite(capsys):
    rng = np.random.default_rng(77)
    n = 10_000
    min_gap = np.inf
    worst_eq = 0.0
    for variant in VARIANTS:
        if variant in ("linear-box", "affine-box"):
            spec = PenaltySpec(variant, alpha=ALPHA, beta=BETA, gamma=0.5)
            a = rng.uniform(ALPHA, BETA, n)
        else:
            spec = PenaltySpec(variant)
            a = rng.uniform(0.05, 10.0, n)
        if variant in ("inverse-square", "affine-box"):
            s = -rng.uniform(0.0, 10.0, n)
        else:
            s = rng.uniform(0.0, 10.0, n)
        gap = psi_eval(spec, a) + psi_conjugate(spec, s) - a * s
        min_gap = min(min_gap, float(gap.min()))

        # equality at the pointwise recovery (outside the two-phase band,
        # where the recovery follows the convex hull instead of psi)
        g = rng.uniform(0.0, 4.0, 1000)
        if spec.is_box:
            band_lo = spec.alpha / spec.beta * spec.gamma
            band_hi = spec.beta / spec.alpha * spec.gamma
            g = g[(g <= band_lo) | (g >= band_hi)]
        a_rec = recover_coefficient(spec, g)
        sign = -1.0 if variant in ("inverse-square", "affine-box") else 1.0
        s_rec = sign * g
        vals = psi_eval(spec, a_rec, strict=False)
        fin = np.isfinite(vals)
        eq = np.abs(vals[fin] + psi_conjugate(spec, s_rec[fin])
                    - a_rec[fin] * s_rec[fin])
        worst_eq = max(worst_eq, float(eq.max()))

    # convex hull: C^1, convex, dominated by both phase branches
    s = np.linspace(0.0, 1.0, 4001)
    gamma = 0.02
    hull = phi_eval(s, ALPHA, BETA, gamma)
    branches = np.minimum(BETA * s ** 2,
                          ALPHA * s ** 2 + gamma * (BETA - ALPHA))
    dominated = bool(np.all(hull <= branches + 1e-14))
    d = phi_prime(s, ALPHA, BETA, gamma)
    convex = bool(np.all(np.diff(d) >= -1e-12))

    ok = min_gap > -1e-12 and worst_eq <= 1e-10 and dominated and convex
    emit(capsys, 9, ok,
         f"smallest Young gap {min_gap:.1e} over 4x10^4 samples "
         f"(target >= 0), recovery equality error {worst_eq:.2e} "
         f"(target <= 1e-10), hull dominated={dominated}, convex={convex}")


def test_criterion_10_monotone_feasible(capsys, quadratic_disk_run,
                                        twophase_square_run, energy_disk_run,
                                        general_isotropic_run,
                                        general_tilted_run):
    runs = []

    mesh, a, u, rep, _ = quadratic_disk_run
    runs.append(("quadratic", rep, bool(np.all(a >= 0.0))))

    mesh, spec, a, u, rep = twophase_square_run
    feas = bool(np.all(a >= spec.alpha) and np.all(a <= spec.beta))
    runs.append(("twophase", rep, feas))

    mesh, t, a_eff, u, rep = energy_disk_run
    feas = bool(np.all(t >= 0.0) and np.all(t <= 1.0)
                and np.all(a_eff >= ALPHA - 1e-12)
                and np.all(a_eff <= BETA + 1e-12))
    runs.append(("energy", rep, feas))

    for name, run in (("general-iso", general_isotropic_run),
                      ("general-tilted", general_tilted_run)):
        mesh, t, A, u, p, rep, _ = run
        mu, nu = lamination_means(t, ALPHA, BETA)
        lam1, lam2 = eig_sym_2x2(A)
        feas = bool(np.all(t >= 0.0) and np.all(t <= 1.0)
                    and np.all(lam1 >= nu - 1e-10)
                    and np.all(lam2 <= mu + 1e-10))
        runs.append((name, rep, feas))

    bad = []
    for name, rep, feas in runs:
        monotone = bool(np.all(np.diff(rep.costs) <= 0.0))
        if not (monotone and feas):
            bad.append(f"{name}(monotone={monotone}, feasible={feas})")
    ok = not bad
    emit(capsys, 10, ok,
         "all 5 driver runs monotone and feasible" if ok
         else "violations: " + ", ".join(bad))
