"""Property tests for the assembler and the multigrid Dirichlet solver.

Small random square and disk meshes with scalar and SPD tensor
coefficients; the larger meshes have more free vertices than the
coarsest multigrid level, so the aggregation hierarchy is exercised.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fem import free_block, reference_stiffness

import coeffopt.fem as fem
from coeffopt.fem import (
    LinearSystem,
    StiffnessAssembler,
    assemble_load,
    solve_dirichlet,
)
from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh

MESHES = [("square", 4), ("square", 16), ("square", 24),
          ("disk", 0.3), ("disk", 0.1), ("disk", 0.07)]


@functools.cache
def mesh_and_assembler(kind, size):
    build = build_unit_square_mesh if kind == "square" else build_unit_disk_mesh
    m = build(size)
    return m, StiffnessAssembler(m)


def random_coefficient(m, seed, tensor):
    """Scalar in [0.1, 10], or SPD tensor with eigenvalues in that range."""
    rng = np.random.default_rng(seed)
    lam1 = 10.0 ** rng.uniform(-1.0, 1.0, m.n_cells)
    if not tensor:
        return lam1
    lam2 = 10.0 ** rng.uniform(-1.0, 1.0, m.n_cells)
    th = rng.uniform(0.0, np.pi, m.n_cells)
    c, s = np.cos(th), np.sin(th)
    return np.column_stack([lam1 * c * c + lam2 * s * s,
                            (lam1 - lam2) * c * s,
                            lam1 * s * s + lam2 * c * c])


cases = st.tuples(st.sampled_from(MESHES), st.integers(0, 2**32 - 1),
                  st.booleans())
SETTINGS = settings(max_examples=30, deadline=None)


def system_for(case):
    (kind, size), seed, tensor = case
    m, asm = mesh_and_assembler(kind, size)
    K = asm.assemble(random_coefficient(m, seed, tensor))
    f = np.random.default_rng(seed + 1).uniform(-1.0, 2.0, m.n_vertices)
    return m, asm, K, assemble_load(m, f)


@SETTINGS
@given(cases)
def test_assembled_matrix_symmetric_with_zero_row_sums(case):
    # a row sums to zero when its vertex has no Dirichlet neighbour, so
    # none of its entries was eliminated
    m, asm, K, _ = system_for(case)
    assert (K != K.T).nnz == 0
    near = np.zeros(m.n_vertices, dtype=bool)
    near[m.triangles[m.boundary[m.triangles].any(axis=1)]] = True
    inner = ~near[asm.free]
    ones = np.ones(K.shape[0])
    assert np.all(np.abs(K @ ones)[inner] <= 1e-13 * (abs(K) @ ones)[inner])


@SETTINGS
@given(cases)
def test_reduced_matrix_is_the_free_block(case):
    # the assembled matrix is the free block of the full stiffness, bit
    # for bit
    m, asm, K, _ = system_for(case)
    free = ~m.boundary
    a = K.coefficient
    cols = a if a.ndim == 2 else np.column_stack([a, 0.0 * a, a])
    full = reference_stiffness(m, cols)
    indptr, indices, data = free_block(m, *full)
    assert np.array_equal(K.indptr, indptr)
    assert np.array_equal(K.indices, indices)
    assert K.data.tobytes() == data.tobytes()
    nv = m.n_vertices
    full_matrix = sp.csr_matrix((full[2], full[1], full[0]), shape=(nv, nv))
    ref = full_matrix[free][:, free]
    assert K.shape == ref.shape
    assert np.array_equal(K.toarray(), ref.toarray())


@SETTINGS
@given(cases, st.integers(-20, 20))
def test_assembly_commutes_with_powers_of_two(case, k):
    # scaling by 2**k is exact in every product and sum of the assembly
    (kind, size), seed, tensor = case
    m, asm = mesh_and_assembler(kind, size)
    a = random_coefficient(m, seed, tensor)
    scale = 2.0 ** k
    scaled = asm.assemble(scale * a).data
    assert scaled.tobytes() == (scale * asm.assemble(a).data).tobytes()


@SETTINGS
@given(cases)
def test_multigrid_cg_matches_direct_solve(case):
    m, asm, K, b = system_for(case)
    free = ~m.boundary
    ref = spla.spsolve(K.tocsc(), b[free])
    system = LinearSystem(K, b, m.boundary)
    cold = solve_dirichlet(system)
    assert np.all(cold[m.boundary] == 0.0)
    assert np.linalg.norm(cold[free] - ref) <= 1e-8 * np.linalg.norm(ref)
    warm = solve_dirichlet(system, x0=0.5 * cold)
    assert np.linalg.norm(warm[free] - ref) <= 1e-8 * np.linalg.norm(ref)


@SETTINGS
@given(cases)
def test_repeated_solves_are_identical(case):
    m, _, K, b = system_for(case)
    system = LinearSystem(K, b, m.boundary)
    assert np.array_equal(solve_dirichlet(system), solve_dirichlet(system))


def pencil_eigenvalues(a, b):
    """Per cell, the eigenvalues of a x = lam b x by scipy.linalg.eigh;
    a scalar coefficient s is the tensor s I."""
    def dense(c):
        c = np.column_stack([c, 0.0 * c, c]) if c.ndim == 1 else c
        return c[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

    return np.array([scipy.linalg.eigh(x, y, eigvals_only=True)
                     for x, y in zip(dense(a), dense(b))])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_contrast_matches_eigh(seed):
    m, _ = mesh_and_assembler("square", 4)
    a = random_coefficient(m, seed, True)
    b = random_coefficient(m, seed + 1, True)
    parts = functools.partial(fem._tensor_parts, m)
    low, high = fem._pencil_extremes(parts(a), parts(b))
    ev = pencil_eigenvalues(a, b)
    assert np.all(np.abs(low - ev[:, 0]) <= 1e-12 * ev[:, 0])
    assert np.all(np.abs(high - ev[:, 1]) <= 1e-12 * ev[:, 1])
    # tensor and scalar coefficients, alone or mixed
    for x, y in ((a, b), (a[:, 0], b), (a, b[:, 2]), (a[:, 0], b[:, 2])):
        ev = pencil_eigenvalues(x, y)
        expected = ev[:, 1].max() / ev[:, 0].min()
        contrast = fem._contrast(parts(x), parts(y))
        assert abs(contrast - expected) <= 1e-12 * expected


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("square", 24), ("disk", 0.07)]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_vcycle_is_symmetric_positive_definite(mesh_key, seed, kept):
    # on the coarse levels built from the matrix's own coefficient, and on
    # ones kept from a coefficient within the rebuild contrast of it; both
    # meshes have more free vertices than the coarsest level
    m, _ = mesh_and_assembler(*mesh_key)
    asm = StiffnessAssembler(m)
    a = random_coefficient(m, seed, True)
    if kept:
        asm.preconditioner(asm.assemble(a))
        reference = a
        factor = np.random.default_rng(seed + 1).uniform(1.0, 1.3, m.n_cells)
        a = a * factor[:, None]
    A = asm.assemble(a)
    M = asm.preconditioner(A)
    # the coarse levels' coefficient, kept as its (a11, a12, a22)
    assert np.array_equal(np.column_stack(asm._reference),
                          reference if kept else a)
    V = np.column_stack([M(e) for e in np.eye(A.shape[0])])
    assert np.abs(V - V.T).max() <= 1e-12 * np.abs(V).max()
    x = np.random.default_rng(seed + 2).standard_normal(A.shape[0])
    assert x @ M(x) > 0.0
    assert np.linalg.eigvalsh(0.5 * (V + V.T))[0] > 0.0


@SETTINGS
@given(st.tuples(st.sampled_from([("square", 24), ("disk", 0.07)]),
                 st.integers(0, 2**32 - 1), st.booleans()),
       st.floats(0.0, 0.9), st.floats(0.5, 1.5))
def test_cg_energy_rises_to_the_solution_energy(case, start, level):
    # c(x) = 2 b.x - x.A x never decreases along CG and stays at or
    # below b.A^-1 b (Strakos and Tichy), so a rejection bound it
    # reaches is one the solution reaches too
    m, asm, K, b = system_for(case)
    A, M = K, asm.preconditioner(K)
    b = b[asm.free]
    solution = spla.spsolve(A.tocsc(), b)
    top = b @ solution
    energies = []

    def energy(x):
        energies.append(2.0 * (b @ x) - x @ (A @ x))

    x0 = start * solution
    energy(x0)
    x, _ = fem.cg(A, b, x0=x0, rtol=1e-12, maxiter=1000, M=M,
                  callback=energy)
    slack = 1e-12 * abs(top)
    assert len(energies) > 1
    assert all(e1 >= e0 - slack for e0, e1 in zip(energies, energies[1:]))
    assert max(energies) <= top + slack
    # the loop's own energy, grown by alpha rho per step, is the bound
    # it tests: it stops only on a bound the solution reaches, and a
    # solve it lets run is the unbounded one bit for bit
    bound = fem.RejectionBound(level * top)
    y, info = fem.cg(A, b, x0=x0, rtol=1e-12, maxiter=1000, M=M,
                     bound=bound)
    if info == fem._REJECTED:
        assert bound.value <= top + slack
    else:
        assert np.array_equal(y, x)


@SETTINGS
@given(st.tuples(st.sampled_from(MESHES), st.integers(0, 2**32 - 1),
                 st.just(False)),
       st.floats(-10.0, -3.0), st.floats(0.0, 1.5), st.floats(-3.0, 3.0))
# a bound within the slack above the converged cost: without the slack
# cg stops this solve on its bound
@example(case=(("disk", 0.07), 4173046699, False), log_rtol=-3.19,
         start=1.48, level=0.01)
def test_energy_slack_certifies_rejections_at_any_rtol(case, log_rtol, start,
                                                       level):
    # with x_f the converged solve from x0, every iterate's energy is at
    # most b.x_f + x0.r_f <= b.x_f + rtol |b| |x0|: cg adds that slack
    # to a bare bound, so it stops no solve whose converged cost lies
    # below the bound's value
    m, asm, K, b = system_for(case)
    A, M = K, asm.preconditioner(K)
    b = b[asm.free]
    rtol = 10.0 ** log_rtol
    x0 = start * np.random.default_rng(case[1]).uniform(
        0.0, 1.0, b.size) * spla.spsolve(A.tocsc(), b)
    energies = []

    def energy(x):
        energies.append(2.0 * (b @ x) - x @ (A @ x))

    energy(x0)
    x, info = fem.cg(A, b, x0=x0, rtol=rtol, maxiter=1000, M=M,
                     callback=energy)
    assert info == 0
    cost = b @ x
    slack = rtol * np.linalg.norm(b) * np.linalg.norm(x0)
    rounding = 1e-12 * abs(cost)
    assert max(energies) <= cost + slack + rounding
    value = cost * (1.0 + level * rtol)
    bound = fem.RejectionBound(value)
    y, info = fem.cg(A, b, x0=x0, rtol=rtol, maxiter=1000, M=M, bound=bound)
    if cost < value:
        assert info == 0 and np.array_equal(y, x)
