"""Property tests for the energy form of the compliance.

``compliance_descent`` evaluates b.u as E(v) = 2 b.v - v.K v on the free
dofs (``optimize._energy``).  For the exact state u*, b.u* - E(v) =
(v - u*).K(v - u*) >= 0: E never exceeds b.u*, equals it at u*, and its
error at a CG iterate is the square of the solve error in the energy
norm.  So a run whose solves are loose still reports its cost to well
within its stop.  The same holds for ``energy_relaxed_solve``, whose
cost 1/2 u.K u - b.u is an energy too; a run of either driver that
stops off the ratio test re-solves its final state at the floor.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coeffopt import fem, optimize, penalty
from coeffopt.fem import (
    LinearSystem,
    StiffnessAssembler,
    assemble_load,
    solve_dirichlet,
)
from coeffopt.gclosure import lamination_means
from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh
from coeffopt.optimize import compliance_descent, energy_relaxed_solve
from coeffopt.penalty import PenaltySpec

SETTINGS = settings(max_examples=30, deadline=None)

# square 24 and the h = 0.07 disk have more free vertices than the
# coarsest multigrid level, so their solves take several CG steps
CG_MESHES = [("square", 24), ("disk", 0.07)]
MESHES = [("square", 4), ("square", 12), ("disk", 0.3)] + CG_MESHES


@functools.cache
def mesh_and_assembler(kind, size):
    build = build_unit_square_mesh if kind == "square" else build_unit_disk_mesh
    m = build(size)
    return m, StiffnessAssembler(m)


def tight_state(m, K, load):
    return solve_dirichlet(LinearSystem(K, load, m.boundary), rtol=1e-12)


@st.composite
def energy_cases(draw):
    """A mesh, its matrix for a seeded coefficient in [0.1, 10], a load,
    the state solved at rtol 1e-12 and any nodal v."""
    m, asm = mesh_and_assembler(*draw(st.sampled_from(MESHES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = asm.assemble(10.0 ** rng.uniform(-1.0, 1.0, m.n_cells))
    load = assemble_load(m, draw(st.floats(0.1, 4.0)))
    v = draw(arrays(float, m.n_vertices, elements=st.floats(-2.0, 2.0)))
    return m, K, load, tight_state(m, K, load), v


@SETTINGS
@given(energy_cases())
def test_energy_is_a_lower_bound_with_equality_at_the_state(case):
    m, K, load, u, v = case
    bu = float(load @ u)
    assert optimize._energy(K, load, v) <= bu * (1.0 + 1e-12)
    assert abs(optimize._energy(K, load, u) - bu) <= 1e-12 * bu


@SETTINGS
@given(energy_cases())
def test_energy_misses_the_compliance_by_the_squared_error(case):
    m, K, load, u, v = case
    free = K.assembler.free
    e = (v - u)[free]
    gap = float(load @ u) - optimize._energy(K, load, v)
    x = v[free]
    scale = abs(float(x @ (K @ x))) + 2.0 * abs(float(load[free] @ x)) \
        + float(load @ u)
    assert abs(gap - float(e @ (K @ e))) <= 1e-10 * scale


@st.composite
def loose_runs(draw):
    """A mesh whose solves take CG steps, a penalty, a seeded initial
    coefficient and a stop tolerance from 1e-6 to 2."""
    m, _ = mesh_and_assembler(*draw(st.sampled_from(CG_MESHES)))
    variant = draw(st.sampled_from(["quadratic", "inverse-square",
                                    "linear-box", "affine-box"]))
    if variant in ("linear-box", "affine-box"):
        spec = PenaltySpec(variant, alpha=1.0, beta=2.0,
                           gamma=draw(st.floats(0.005, 0.05)))
    else:
        spec = PenaltySpec(variant)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a0 = rng.uniform(0.5, 2.5, m.n_cells)
    tol = 10.0 ** draw(st.floats(-6.0, np.log10(2.0)))
    return m, spec, a0, tol


@settings(max_examples=20, deadline=None)
@given(loose_runs())
def test_loose_run_reports_its_cost_to_within_its_stop(case):
    m, spec, a0, tol = case
    a, _, rep = compliance_descent(m, 1.0, spec, a0=a0, tol=tol,
                                   max_iters=30)
    load = assemble_load(m, 1.0)
    u = tight_state(m, StiffnessAssembler(m).assemble(a), load)
    J = fem.cost_functional(m, load, u, a, spec)
    assert abs(rep.costs[-1] - J) < 0.01 * tol * abs(rep.costs[0])


@st.composite
def loose_energy_runs(draw):
    """A mesh whose solves take CG steps, gamma and a stop tolerance
    from 1e-6 to 2."""
    mesh = draw(st.sampled_from(CG_MESHES + [("disk", 0.05)]))
    return mesh, draw(st.floats(0.005, 0.05)), \
        10.0 ** draw(st.floats(-6.0, np.log10(2.0)))


@settings(max_examples=20, deadline=None)
@example((("disk", 0.05), 0.005, 1e-6))  # stops on its fixed point
@given(loose_energy_runs())
def test_loose_energy_run_reports_its_cost_to_within_its_stop(case):
    # a ratio stop reports its cost to within the stop; a fixed point
    # (t unchanged) re-solves at the floor, so its cost, state and a_eff
    # are a tight re-solve's up to solver rounding
    (kind, size), gamma, tol = case
    m, asm = mesh_and_assembler(kind, size)
    alpha, beta = 1.0, 2.0
    t, a_eff, u, rep = energy_relaxed_solve(m, 1.0, alpha, beta, gamma,
                                            tol=tol, max_iters=30)
    load = assemble_load(m, 1.0)
    mu, nu = lamination_means(t, alpha, beta)
    K = asm.assemble(nu)
    u_tight = solve_dirichlet(LinearSystem(K, load, m.boundary), rtol=1e-11)
    gsq = fem.grad_norm_sq(m, u_tight)
    J = 0.5 * float((m.cell_areas * nu) @ gsq) - float(load @ u_tight) \
        + 0.5 * gamma * float(m.cell_areas @ (beta - mu))
    if rep.converged and (not rep.ratios or rep.ratios[-1] >= tol):
        assert abs(rep.costs[-1] - J) < 1e-12 * abs(rep.costs[0])
        assert np.abs(u - u_tight).max() < 1e-8 * np.abs(u_tight).max()
        spec = penalty.PenaltySpec("affine-box", alpha=alpha, beta=beta,
                                   gamma=gamma)
        assert np.allclose(a_eff, penalty.recover_coefficient(spec, gsq),
                           rtol=1e-6, atol=0.0)
    else:
        assert abs(rep.costs[-1] - J) < 0.01 * tol * abs(rep.costs[0])
