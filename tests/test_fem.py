import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from coeffopt.fem import (
    IllPosedCoefficientError,
    LinearSystem,
    PointLoad,
    RejectionBound,
    SolverFailure,
    StiffnessAssembler,
    assemble_load,
    assemble_point_load,
    cell_gradient,
    cg,
    compliance,
    cost_functional,
    grad_norm_sq,
    solve_dirichlet,
)
from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh
from coeffopt.penalty import PenaltySpec


def fresh_solve(mesh, coeff, f, **kwargs):
    """u with -div(a grad u) = f, u = 0 on the boundary, assembled and
    solved on a fresh assembler."""
    K = StiffnessAssembler(mesh).assemble(coeff)
    system = LinearSystem(K, assemble_load(mesh, f), mesh.boundary)
    return solve_dirichlet(system, **kwargs)


def hand_assembled(mesh, a):
    """Dense reference assembly, one triangle at a time."""
    nv = mesh.n_vertices
    K = np.zeros((nv, nv))
    for c, tri in enumerate(mesh.triangles):
        g = mesh.cell_basis_gradients[c]
        ke = a[c] * mesh.cell_areas[c] * (g @ g.T)
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += ke[i, j]
    return K


def test_assembly_matches_hand_loop():
    # the free block of the hand assembly: n = 3 has four free vertices
    m = build_unit_square_mesh(3)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, m.n_cells)
    K = StiffnessAssembler(m).assemble(a).toarray()
    free = ~m.boundary
    assert K.shape == (4, 4)
    assert np.allclose(K, hand_assembled(m, a)[free][:, free], atol=1e-14)


# local (i, j) pairs of a cell's 3x3 matrix
_LOCAL_I = [0, 0, 0, 1, 1, 1, 2, 2, 2]
_LOCAL_J = [0, 1, 2, 0, 1, 2, 0, 1, 2]


def reference_stiffness(mesh, cols):
    """CSR (indptr, indices, data) of the full stiffness, one part of the
    coefficient at a time.

    The tensor is m I + [[d, a12], [a12, -d]], m and d = (a11 +- a22)
    / 2.  Each part's local entries area form(g_i, g_j) coefficient are
    scattered on their own in cell-major order and the parts are added
    as S m + (S_d d + S_12 a12), as the assembler does, so the sums and
    hence the bits must agree.
    """
    nv = mesh.n_vertices
    g = mesh.cell_basis_gradients
    a11, a12, a22 = cols[:, 0], cols[:, 1], cols[:, 2]
    keys = (mesh.triangles[:, _LOCAL_I] * nv + mesh.triangles[:, _LOCAL_J])
    pattern, slots = np.unique(keys.ravel(), return_inverse=True)

    def part(form, coeff):
        loc = np.column_stack([
            mesh.cell_areas * form(g[:, i], g[:, j]) * coeff
            for i, j in zip(_LOCAL_I, _LOCAL_J)])
        return np.bincount(slots.ravel(), weights=loc.ravel())

    data = (part(lambda gi, gj: gi[:, 0] * gj[:, 0] + gi[:, 1] * gj[:, 1],
                 (a11 + a22) * 0.5)
            + (part(lambda gi, gj: gi[:, 0] * gj[:, 0] - gi[:, 1] * gj[:, 1],
                    (a11 - a22) * 0.5)
               + part(lambda gi, gj: gi[:, 0] * gj[:, 1] + gi[:, 1] * gj[:, 0],
                      a12)))
    indptr = np.searchsorted(pattern // nv, np.arange(nv + 1))
    return indptr, pattern % nv, data


def free_block(mesh, indptr, indices, data):
    """The free-free entries of a full CSR stiffness, renumbered by free
    index: (indptr, indices, data) of the free-dof matrix."""
    free = ~mesh.boundary
    renum = np.cumsum(free) - 1
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
    keep = free[rows] & free[indices]
    counts = np.bincount(renum[rows[keep]], minlength=int(free.sum()))
    return (np.concatenate([[0], np.cumsum(counts)]),
            renum[indices[keep]], data[keep])


def random_spd_columns(rng, n_cells):
    L = rng.standard_normal((n_cells, 2, 2))
    T = L @ L.transpose(0, 2, 1) + 0.05 * np.eye(2)
    return np.column_stack([T[:, 0, 0], T[:, 0, 1], T[:, 1, 1]])


@pytest.mark.parametrize("mesh", [build_unit_square_mesh(17),
                                  build_unit_disk_mesh(0.07)],
                         ids=["square", "disk"])
def test_assembly_matches_reference_bitwise(mesh):
    rng = np.random.default_rng(29)
    asm = StiffnessAssembler(mesh)
    scalar = rng.uniform(0.05, 20.0, mesh.n_cells)
    iso = np.zeros((mesh.n_cells, 3))
    iso[:, 0] = scalar
    iso[:, 2] = scalar
    spd = random_spd_columns(rng, mesh.n_cells)
    for coeff, cols in ((scalar, iso), (spd, spd)):
        indptr, indices, data = free_block(
            mesh, *reference_stiffness(mesh, cols))
        K = asm.assemble(coeff)
        assert np.array_equal(K.indptr, indptr)
        assert np.array_equal(K.indices, indices)
        assert K.data.tobytes() == data.tobytes()


def test_assembly_bitwise_symmetric():
    m = build_unit_disk_mesh(0.2)
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 5.0, m.n_cells)
    K = StiffnessAssembler(m).assemble(a)
    assert (K - K.T).nnz == 0


def test_scalar_equals_isotropic_tensor():
    m = build_unit_square_mesh(3)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 2.0, m.n_cells)
    iso = np.zeros((m.n_cells, 3))
    iso[:, 0] = a
    iso[:, 2] = a
    Ks = StiffnessAssembler(m).assemble(a)
    Kt = StiffnessAssembler(m).assemble(iso)
    assert (Ks != Kt).nnz == 0


def test_assembly_linear_in_coefficient():
    m = build_unit_square_mesh(3)
    a = np.full(m.n_cells, 0.75)
    K1 = StiffnessAssembler(m).assemble(a)
    K2 = StiffnessAssembler(m).assemble(2.0 * a)
    assert np.allclose(K2.toarray(), 2.0 * K1.toarray(), rtol=1e-15)


def test_rejects_nonpositive_scalar():
    m = build_unit_square_mesh(2)
    a = np.ones(m.n_cells)
    a[3] = 0.0
    with pytest.raises(IllPosedCoefficientError):
        StiffnessAssembler(m).assemble(a)


def test_rejects_indefinite_tensor():
    m = build_unit_square_mesh(2)
    t = np.zeros((m.n_cells, 3))
    t[:, 0] = 1.0
    t[:, 2] = 1.0
    t[4, 1] = 2.0  # det = 1 - 4 < 0
    with pytest.raises(IllPosedCoefficientError):
        StiffnessAssembler(m).assemble(t)


def test_rejects_bad_coefficient_shape():
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        StiffnessAssembler(m).assemble(np.ones(m.n_cells + 1))


def test_load_integrates_constants():
    m = build_unit_disk_mesh(0.25)
    b = assemble_load(m, 2.0)
    assert abs(b.sum() - 2.0 * m.cell_areas.sum()) < 1e-13


def test_load_nodal_field():
    m = build_unit_square_mesh(4)
    x = m.vertices[:, 0]
    b = assemble_load(m, x)
    # int x over the unit square = 1/2; vertex-mean quadrature is exact
    # for affine integrands on this mesh
    assert abs(b.sum() - 0.5) < 1e-13


def test_point_load_snaps_to_nearest_vertex():
    m = build_unit_square_mesh(4)
    b = assemble_point_load(m, (0.49, 0.51), magnitude=2.5)
    k = int(np.flatnonzero(b)[0])
    assert np.allclose(m.vertices[k], [0.5, 0.5])
    assert b[k] == 2.5
    assert np.count_nonzero(b) == 1


def test_point_load_snapping_to_boundary_rejected():
    m = build_unit_square_mesh(4)
    # nearest vertex (0, 0.5) and the corner (1, 1) carry Dirichlet data
    for location in [(0.05, 0.49), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="boundary vertex"):
            assemble_point_load(m, location)
        with pytest.raises(ValueError, match="boundary vertex"):
            assemble_load(m, PointLoad(location))


def test_point_load_outside_rejected():
    m = build_unit_disk_mesh(0.3)
    with pytest.raises(ValueError):
        assemble_point_load(m, (1.2, 0.0))


def test_point_load_location_must_be_a_2_point():
    m = build_unit_square_mesh(4)
    with pytest.raises(ValueError, match="2-point"):
        assemble_point_load(m, (0.5, 0.5, 0.0))


def test_load_dispatch_point_load():
    m = build_unit_square_mesh(4)
    b1 = assemble_load(m, PointLoad((0.5, 0.5), 3.0))
    b2 = assemble_point_load(m, (0.5, 0.5), 3.0)
    assert np.array_equal(b1, b2)


def test_poisson_center_value():
    # -lap u = 1 on the unit square; u(center) = 0.07367135...
    m = build_unit_square_mesh(32)
    u = fresh_solve(m, np.ones(m.n_cells), 1.0, rtol=1e-12)
    k = int(np.argmin(np.abs(m.vertices - 0.5).sum(axis=1)))
    assert abs(u[k] - 0.0736713) < 5e-4


def test_zero_rhs_returns_zero():
    m = build_unit_square_mesh(4)
    u = fresh_solve(m, np.ones(m.n_cells), 0.0)
    assert np.array_equal(u, np.zeros(m.n_vertices))


def test_solver_failure_on_unreachable_tolerance():
    m = build_unit_square_mesh(4)
    with pytest.raises(SolverFailure):
        fresh_solve(m, np.ones(m.n_cells), 1.0, rtol=1e-300)


@pytest.mark.parametrize("n, rtol", [(32, 1e-14), (4, 1e-300)])
def test_solver_failure_names_the_unattainable_true_residual(n, rtol):
    # CG's updated residual meets rtol, but the true one stays above
    # 1.01 rtol: rounding, not a run-out
    m = build_unit_square_mesh(n)
    with pytest.raises(SolverFailure, match="met rtol .* on its updated "
                       "residual, but the true relative residual is "):
        fresh_solve(m, np.ones(m.n_cells), 1.0, rtol=rtol)


def test_solver_failure_reports_a_run_out(monkeypatch):
    import coeffopt.fem as fem
    real = fem.cg

    def one_iteration(*args, **kwargs):
        return real(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(fem, "cg", one_iteration)
    m = build_unit_square_mesh(32)
    with pytest.raises(SolverFailure, match="CG stopped with info=1, "
                       "relative residual"):
        fresh_solve(m, np.ones(m.n_cells), 1.0)


def test_linear_system_rejects_nonfinite_rhs():
    # the record takes any load; the solve checks it on every vertex,
    # a Dirichlet one too
    m = build_unit_square_mesh(4)
    rhs = assemble_load(m, 1.0)
    rhs[np.flatnonzero(m.boundary)[0]] = np.nan
    system = LinearSystem(StiffnessAssembler(m).assemble(1.0), rhs, m.boundary)
    with pytest.raises(ValueError, match="load must be finite"):
        solve_dirichlet(system)


def test_warm_start_agrees_with_cold():
    m = build_unit_square_mesh(8)
    a = np.ones(m.n_cells)
    u0 = fresh_solve(m, a, 1.0, rtol=1e-12)
    u1 = fresh_solve(m, a, 1.0, rtol=1e-12, x0=u0)
    assert np.linalg.norm(u1 - u0) / np.linalg.norm(u0) < 1e-11


def test_cell_gradient_exact_for_affine():
    m = build_unit_disk_mesh(0.3)
    u = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1]
    g = cell_gradient(m, u)
    assert np.allclose(g[:, 0], 2.0, atol=1e-12)
    assert np.allclose(g[:, 1], 3.0, atol=1e-12)
    assert np.allclose(grad_norm_sq(m, u), 13.0, atol=1e-11)


def test_compliance_matches_quadratic_form():
    m = build_unit_square_mesh(8)
    a = np.full(m.n_cells, 1.3)
    u = fresh_solve(m, a, 1.0, rtol=1e-12)
    K = StiffnessAssembler(m).assemble(a)
    free = ~m.boundary
    assert abs(compliance(m, 1.0, u) - u[free] @ (K @ u[free])) < 1e-10


def test_assembler_reuse_bitwise():
    # the tensor assembly between the two scalar ones builds the tensor
    # operators, which change no scalar result
    m = build_unit_square_mesh(4)
    asm = StiffnessAssembler(m)
    a = np.linspace(1.0, 2.0, m.n_cells)
    spd = random_spd_columns(np.random.default_rng(7), m.n_cells)
    K1 = asm.assemble(a)
    T = asm.assemble(spd)
    K2 = asm.assemble(a)
    K3 = StiffnessAssembler(m).assemble(a)
    assert K1.data.tobytes() == K2.data.tobytes()
    assert K1.data.tobytes() == K3.data.tobytes()
    fresh = StiffnessAssembler(m).assemble(spd)
    assert T.data.tobytes() == fresh.data.tobytes()


def test_matrix_carries_a_read_only_copy_of_its_coefficient():
    # in the shape given, a constant not widened; the caller may reuse
    # its array, and the copy cannot be written
    m = build_unit_square_mesh(4)
    asm = StiffnessAssembler(m)
    for coeff in (2.0, np.linspace(1.0, 2.0, m.n_cells),
                  random_spd_columns(np.random.default_rng(5), m.n_cells)):
        K = asm.assemble(coeff)
        assert K.coefficient.shape == np.shape(coeff)
        assert np.array_equal(K.coefficient, coeff)
        assert not np.shares_memory(K.coefficient, coeff)
        with pytest.raises(ValueError, match="read-only"):
            K.coefficient[...] = 1.0


def test_cost_functional_rejects_out_of_domain():
    m = build_unit_square_mesh(2)
    a = np.full(m.n_cells, 0.5)  # below alpha for a box penalty
    u = np.zeros(m.n_vertices)
    spec = PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=0.1)
    with pytest.raises(ValueError):
        cost_functional(m, assemble_load(m, 1.0), u, a, spec)


def test_solve_deterministic():
    m = build_unit_disk_mesh(0.2)
    a = np.linspace(1.0, 2.0, m.n_cells)
    u1 = fresh_solve(m, a, 1.0)
    u2 = fresh_solve(m, a, 1.0)
    assert np.array_equal(u1, u2)


def test_multigrid_iterations_stay_flat(monkeypatch):
    # CG iterations per solve must not grow with 1/h
    import coeffopt.fem as fem

    cg = fem.cg
    counts = []

    def counting_cg(*args, **kwargs):
        n = [0]

        def tick(xk):
            n[0] += 1

        kwargs["callback"] = tick
        out = cg(*args, **kwargs)
        counts.append(n[0])
        return out

    monkeypatch.setattr(fem, "cg", counting_cg)
    for n in (32, 64, 128):
        m = build_unit_square_mesh(n)
        a = np.linspace(1.0, 2.0, m.n_cells)
        fresh_solve(m, a, 1.0)
    assert max(counts) <= 25, counts


def _reduced_system(mesh, seed):
    """A seeded reduced system: (A, M, b) for a random tensor
    coefficient, with the load of a random nodal source."""
    rng = np.random.default_rng(seed)
    lam1, lam2 = 10.0 ** rng.uniform(-1.0, 1.0, (2, mesh.n_cells))
    th = rng.uniform(0.0, np.pi, mesh.n_cells)
    c, s = np.cos(th), np.sin(th)
    coeff = np.column_stack([lam1 * c * c + lam2 * s * s,
                             (lam1 - lam2) * c * s,
                             lam1 * s * s + lam2 * c * c])
    asm = StiffnessAssembler(mesh)
    A = asm.assemble(coeff)
    M = asm.preconditioner(A)
    f = rng.uniform(-1.0, 2.0, mesh.n_vertices)
    return A, M, assemble_load(mesh, f)[asm.free]


@pytest.mark.parametrize("seed", range(4))
def test_cg_matches_scipy_bit_for_bit(seed):
    # the module's loop is scipy's, operation for operation: the same
    # x, info and iterates, cold, warm and when the iterations run out
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import cg as scipy_cg

    m = build_unit_disk_mesh(0.05) if seed % 2 else build_unit_square_mesh(24)
    A, M, b = _reduced_system(m, seed)
    M_op = LinearOperator(A.shape, matvec=M, dtype=A.dtype)
    rng = np.random.default_rng(seed + 10)
    warm = scipy_cg(A, b, rtol=1e-3, atol=0.0, M=M_op)[0]
    for x0, rtol, maxiter in ((None, 1e-10, 1000), (warm, 1e-10, 1000),
                              (rng.standard_normal(b.size), 1e-12, 1000),
                              (warm, 1e-14, 3)):
        ours, theirs = [], []
        kept = None if x0 is None else x0.copy()
        x, info = cg(A, b, x0=x0, rtol=rtol, maxiter=maxiter, M=M,
                     callback=lambda xk: ours.append(xk.copy()))
        y, jnfo = scipy_cg(A, b, x0=x0, rtol=rtol, atol=0.0,
                           maxiter=maxiter, M=M_op,
                           callback=lambda xk: theirs.append(xk.copy()))
        assert info == jnfo
        assert np.array_equal(x, y)
        assert len(ours) == len(theirs) > 0
        assert all(np.array_equal(p, q) for p, q in zip(ours, theirs))
        if x0 is not None:
            assert np.array_equal(x0, kept)  # the start is not modified
    assert info == 3  # the last case ran out of iterations


def test_rejection_bound_stops_only_a_solve_that_reaches_it():
    # more free vertices than the coarsest level: CG takes several
    # iterations
    m = build_unit_disk_mesh(0.05)
    asm = StiffnessAssembler(m)
    a = np.linspace(1.0, 2.0, m.n_cells)
    b = assemble_load(m, 1.0)
    w = assemble_load(m, 1.0 + 0.5 * m.vertices[:, 0])
    system = LinearSystem(asm.assemble(a), b, m.boundary)
    u = solve_dirichlet(system)
    p = solve_dirichlet(LinearSystem(asm.assemble(a), w, m.boundary))
    x0 = 0.9 * u
    full = solve_dirichlet(system, x0=x0)
    for cost, goal in ((b @ u, ()), (w @ u, (w, p))):
        # a bound above the cost changes nothing, bit for bit; one below
        # it stops the solve, which returns None
        above = RejectionBound(cost * (1.0 + 1e-6), *goal)
        assert np.array_equal(solve_dirichlet(system, x0=x0, bound=above),
                              full)
        below = RejectionBound(cost * (1.0 - 1e-6), *goal)
        assert solve_dirichlet(system, x0=x0, bound=below) is None
    # the set-up runs as without a bound: a fresh assembler's rejected
    # solve builds and keeps its coarse levels
    fresh = StiffnessAssembler(m)
    rejected = LinearSystem(fresh.assemble(a), b, m.boundary)
    assert solve_dirichlet(rejected, bound=RejectionBound(-1.0)) is None
    assert fresh._coarse is not None
    with pytest.raises(ValueError, match="together"):
        solve_dirichlet(system, bound=RejectionBound(1.0, w))
    with pytest.raises(ValueError, match="adjoint must have shape"):
        solve_dirichlet(system, bound=RejectionBound(1.0, w, p[1:]))


def test_solve_dirichlet_rejects_foreign_systems():
    # the mask and the free-dof pattern are the assembler's: a matrix
    # without one, another mask or an altered pattern is refused
    m = build_unit_disk_mesh(0.1)
    a = np.linspace(1.0, 3.0, m.n_cells)
    b = assemble_load(m, 1.0)
    asm = StiffnessAssembler(m)
    K = asm.assemble(a)
    bare = sp.csr_matrix(K.toarray())  # a matrix with no assembler behind it
    with pytest.raises(ValueError, match="StiffnessAssembler"):
        solve_dirichlet(LinearSystem(bare, b, m.boundary))
    mask = m.boundary.copy()
    mask[np.flatnonzero(~mask)[0]] = True
    with pytest.raises(ValueError, match="mask"):
        solve_dirichlet(LinearSystem(K, b, mask))
    altered = asm.assemble(a)
    altered.indices = altered.indices.copy()  # the shared one is read-only
    altered.indices[[0, 1]] = altered.indices[[1, 0]]
    with pytest.raises(ValueError, match="pattern"):
        solve_dirichlet(LinearSystem(altered, b, m.boundary))
    u = solve_dirichlet(LinearSystem(K, b, m.boundary))
    assert u[m.boundary].tolist() == [0.0] * int(m.boundary.sum())
    # a load or a warm start of another length than the mesh's
    sq = build_unit_square_mesh(8)
    K8 = StiffnessAssembler(sq).assemble(1.0)
    b8 = assemble_load(sq, 1.0)
    assert K8.shape == (49, 49)  # the 7 x 7 free vertices of 9 x 9
    with pytest.raises(ValueError, match="load"):
        solve_dirichlet(LinearSystem(K8, np.append(b8, [1.0, 1.0]),
                                     sq.boundary))
    # too short, it was read silently (79) or raised IndexError (40)
    for x0 in (np.zeros(83), np.zeros(79), np.zeros(40)):
        with pytest.raises(ValueError, match="x0"):
            solve_dirichlet(LinearSystem(K8, b8, sq.boundary), x0=x0)


def test_no_and_one_free_vertex():
    # n = 1: every vertex is on the boundary; n = 2: only the centre is free
    empty, single = build_unit_square_mesh(1), build_unit_square_mesh(2)
    K = StiffnessAssembler(empty).assemble(1.0)
    assert K.shape == (0, 0) and K.nnz == 0
    b = assemble_load(empty, 1.0)
    u = solve_dirichlet(LinearSystem(K, b, empty.boundary))
    assert u.tolist() == [0.0] * 4
    free = ~single.boundary
    b = assemble_load(single, 1.0)
    assert b[free][0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    a = np.random.default_rng(4).uniform(0.5, 2.0, single.n_cells)
    for coeff, hand in ((1.0, 4.0),
                        (a, hand_assembled(single, a)[free][:, free][0, 0])):
        K = StiffnessAssembler(single).assemble(coeff)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(hand, rel=1e-15)
        u = solve_dirichlet(LinearSystem(K, b, single.boundary))
        assert u[~free].tolist() == [0.0] * 8
        # one unknown: u = b / K, 1/12 for the unit coefficient
        assert u[free][0] == pytest.approx(b[free][0] / hand, rel=1e-15)


@pytest.mark.parametrize("rtol", [np.nan, 0.0, -1e-10, np.inf])
def test_solve_dirichlet_rejects_a_bad_rtol(monkeypatch, rtol):
    # each of these ran all 20 n CG iterations before raising
    # SolverFailure; now it raises before any set-up
    import coeffopt.fem as fem

    iterations = []
    real = fem.cg

    def counting(*args, **kwargs):
        kwargs["callback"] = iterations.append
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "cg", counting)
    m = build_unit_square_mesh(16)
    asm = StiffnessAssembler(m)
    system = LinearSystem(asm.assemble(1.0), assemble_load(m, 1.0), m.boundary)
    with pytest.raises(ValueError, match="rtol"):
        solve_dirichlet(system, rtol=rtol)
    assert iterations == [] and asm._coarse is None
    assert solve_dirichlet(system, rtol=1e-10) is not None
    assert 0 < len(iterations) < 25


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_dirichlet_rejects_a_nonfinite_start(monkeypatch, bad):
    # one such entry in x0 ran all 20 n CG iterations before raising
    # SolverFailure, and one in the adjoint kept the bound from ever
    # firing; now each vector a solve takes raises, named, before any
    # set-up
    import coeffopt.fem as fem

    iterations = []
    real = fem.cg

    def counting(*args, **kwargs):
        kwargs["callback"] = iterations.append
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "cg", counting)
    m = build_unit_square_mesh(16)
    asm = StiffnessAssembler(m)
    K = asm.assemble(1.0)
    good = {"load": assemble_load(m, 1.0), "x0": np.zeros(m.n_vertices),
            "weight": assemble_load(m, 1.0), "adjoint": np.zeros(m.n_vertices)}
    for name in good:
        v = dict(good)
        v[name] = good[name].copy()
        v[name][np.flatnonzero(~m.boundary)[0]] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve_dirichlet(LinearSystem(K, v["load"], m.boundary),
                            x0=v["x0"],
                            bound=RejectionBound(1.0, v["weight"], v["adjoint"]))
        assert iterations == [] and asm._coarse is None
    system = LinearSystem(K, good["load"], m.boundary)
    assert solve_dirichlet(system, x0=good["x0"]) is not None
    assert 0 < len(iterations) < 25


def test_aggregation_that_cannot_halve_fails():
    # no off-diagonal entries, so every row is its own aggregate
    import coeffopt.fem as fem

    with pytest.raises(SolverFailure, match="could not halve"):
        fem._coarse_levels(sp.identity(400, format="csr"))


@pytest.mark.parametrize("A,message", [
    (-sp.identity(10, format="csr"), "operator is not positive definite"),
    (sp.diags([1e-310] * 4, format="csr"), "inverse is not finite"),
])
def test_coarsest_level_that_cannot_be_inverted_fails(A, message):
    # below _MAX_COARSE, so A is the coarsest level; it fails with
    # SolverFailure and no warning
    import coeffopt.fem as fem

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure, match=f"coarsest multigrid {message}"):
            fem._coarse_levels(A)


def test_subnormal_coefficient_fails_before_cg(monkeypatch):
    # 1e-310 passes the coefficient checks, but its stiffness entries
    # are subnormal and the multigrid set-up overflows; the solve fails
    # there instead of running CG on NaN
    import coeffopt.fem as fem

    def cg(*args, **kwargs):
        raise AssertionError("CG ran after a failed set-up")

    monkeypatch.setattr(fem, "cg", cg)
    m = build_unit_square_mesh(8)
    with pytest.raises(SolverFailure, match="not finite"):
        fresh_solve(m, np.full(m.n_cells, 1e-310), 1.0)


def _solve_subnormal(monkeypatch):
    # n = 32 needs coarse levels; the finest smoother weights overflow,
    # and the set-up fails on them before the coarse build divides by
    # the same subnormal diagonal
    import coeffopt.fem as fem

    def cg(*args, **kwargs):
        raise AssertionError("CG ran after a failed set-up")

    monkeypatch.setattr(fem, "cg", cg)
    m = build_unit_square_mesh(32)
    with pytest.raises(SolverFailure, match="not finite"):
        fresh_solve(m, np.full(m.n_cells, 1e-310), 1.0)


def _descend_to_subnormal(monkeypatch):
    # trials reach alpha = 1e-310: their contrast with the kept
    # coefficient overflows to inf, which rebuilds, and the trials whose
    # set-up fails are rejected steps
    from coeffopt.optimize import compliance_descent

    spec = PenaltySpec("linear-box", alpha=1e-310, beta=2.0, gamma=0.01141)
    rep = compliance_descent(build_unit_square_mesh(32), 1.0, spec)[2]
    assert rep.converged and not rep.stagnated
    assert rep.iterations == 37


@pytest.mark.parametrize("case", [_solve_subnormal, _descend_to_subnormal])
def test_subnormal_coefficients_raise_no_warning(monkeypatch, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case(monkeypatch)


def test_overflowing_smoother_weights_fail():
    import coeffopt.fem as fem

    with pytest.raises(SolverFailure, match="smoother weights"):
        fem._chebyshev_weights(sp.diags([1e-310] * 4, format="csr"))


def test_underflowing_stiffness_diagonal_is_ill_posed():
    # 5e-324 is positive, but diagonal stiffness entries round to zero
    m = build_unit_square_mesh(8)
    with pytest.raises(IllPosedCoefficientError,
                       match="nonpositive stiffness diagonal"):
        fresh_solve(m, np.full(m.n_cells, 5e-324), 1.0)


def square_64_problem():
    """The n = 64 square (two transfers), a varying scalar coefficient
    and its load."""
    m = build_unit_square_mesh(64)
    a = 1.0 + m.cell_areas.cumsum() / m.cell_areas.sum()
    return m, a, assemble_load(m, 1.0 + m.vertices[:, 0])


def test_first_build_forms_each_galerkin_operator_once(monkeypatch):
    # the first coarse build aggregates each level from the operator it
    # has just formed, so the chain R A P is formed once per level
    import coeffopt.fem as fem

    calls = []
    real = fem._galerkin

    def counting(A, P, R):
        calls.append(A.shape)
        return real(A, P, R)

    monkeypatch.setattr(fem, "_galerkin", counting)
    m, a, b = square_64_problem()
    asm = StiffnessAssembler(m)
    solve_dirichlet(LinearSystem(asm.assemble(a), b, m.boundary))
    assert len(asm._transfers) == 2
    assert len(calls) == 2
    assert calls[0] == (m.n_vertices - int(m.boundary.sum()),) * 2


def test_rebuild_repeats_the_first_build_bitwise():
    # rebuilding from the first coefficient with the kept transfers
    # reproduces the levels the first build aggregated on the way down
    import coeffopt.fem as fem

    m, a, _ = square_64_problem()
    asm = StiffnessAssembler(m)
    A = asm.assemble(a)
    asm.preconditioner(A)
    transfers = asm._transfers
    levels, inverse = asm._coarse
    again, rebuilt, rebuilt_inverse = fem._coarse_levels(A, transfers)
    assert again is transfers and len(transfers) == 2
    assert len(rebuilt) == len(levels) == 1
    for (Ac, (w1, w2)), (Bc, (v1, v2)) in zip(levels, rebuilt):
        for field in ("data", "indices", "indptr"):
            assert getattr(Ac, field).tobytes() == getattr(Bc, field).tobytes()
        assert w1.tobytes() == v1.tobytes()
        assert w2.tobytes() == v2.tobytes()
    assert inverse.tobytes() == rebuilt_inverse.tobytes()


def test_failed_build_leaves_no_partial_hierarchy(monkeypatch):
    # a set-up that raises half way down stores no transfers and no
    # levels; the next solve builds the whole hierarchy afresh
    import coeffopt.fem as fem

    real = fem._transfer
    calls = []

    def failing_second(A):
        calls.append(A.shape)
        if len(calls) == 2:
            raise SolverFailure("injected")
        return real(A)

    m, a, b = square_64_problem()
    asm = StiffnessAssembler(m)
    monkeypatch.setattr(fem, "_transfer", failing_second)
    with pytest.raises(SolverFailure, match="injected"):
        solve_dirichlet(LinearSystem(asm.assemble(a), b, m.boundary))
    assert asm._transfers is None and asm._coarse is None
    monkeypatch.setattr(fem, "_transfer", real)
    u = solve_dirichlet(LinearSystem(asm.assemble(a), b, m.boundary))
    assert len(asm._transfers) == 2
    fresh = StiffnessAssembler(m)
    v = solve_dirichlet(LinearSystem(fresh.assemble(a), b, m.boundary))
    assert u.tobytes() == v.tobytes()


def test_one_matrix_serves_two_loads(monkeypatch):
    # a second solve of one matrix with another load and a warm start
    # returns what the same solve on a freshly assembled matrix returns;
    # every solve builds its own V-cycle
    import coeffopt.fem as fem

    builds = []
    real = fem.StiffnessAssembler.preconditioner

    def counting(self, K):
        builds.append(K.shape)
        return real(self, K)

    monkeypatch.setattr(fem.StiffnessAssembler, "preconditioner", counting)
    m = build_unit_disk_mesh(0.1)
    asm = StiffnessAssembler(m)
    a = np.linspace(1.0, 3.0, m.n_cells)
    b1 = assemble_load(m, 1.0)
    b2 = assemble_load(m, 1.0 + 0.5 * m.vertices[:, 0])
    x0 = np.linspace(0.0, 0.01, m.n_vertices)

    K = asm.assemble(a)
    u1 = solve_dirichlet(LinearSystem(K, b1, m.boundary), x0=x0)
    u2 = solve_dirichlet(LinearSystem(K, b2, m.boundary), x0=u1)
    assert len(builds) == 2
    v1 = solve_dirichlet(LinearSystem(asm.assemble(a), b1, m.boundary), x0=x0)
    v2 = solve_dirichlet(LinearSystem(asm.assemble(a), b2, m.boundary), x0=v1)
    assert len(builds) == 4
    assert np.array_equal(u1, v1)
    assert np.array_equal(u2, v2)
    assert not np.array_equal(u1, u2)

    # solving the matrix again repeats its result
    w2 = solve_dirichlet(LinearSystem(K, b2, m.boundary), x0=u1)
    assert len(builds) == 5
    assert np.array_equal(w2, u2)


def test_solve_keeps_nothing_on_the_matrix(monkeypatch):
    # the solver state is the assembler's: a solve leaves the matrix as
    # assembled and frees its V-cycle on return
    import coeffopt.fem as fem

    vcycles = []
    real = fem.StiffnessAssembler.preconditioner

    def counting(self, K):
        M = real(self, K)
        vcycles.append(weakref.ref(M))
        return M

    monkeypatch.setattr(fem.StiffnessAssembler, "preconditioner", counting)
    m = build_unit_disk_mesh(0.1)
    asm = StiffnessAssembler(m)
    b = assemble_load(m, 1.0)
    plain = set(vars(sp.csr_matrix(sp.eye(m.n_vertices))))
    for coeff in (np.linspace(1.0, 3.0, m.n_cells),
                  random_spd_columns(np.random.default_rng(3), m.n_cells)):
        K = asm.assemble(coeff)
        solve_dirichlet(LinearSystem(K, b, m.boundary))
        assert set(vars(K)) == plain | {"assembler", "coefficient"}
    assert len(vcycles) == 2
    assert [r() for r in vcycles] == [None, None]


def test_coarse_levels_follow_the_coefficient(monkeypatch):
    # the coarse levels are kept while the coefficient stays within the
    # rebuild contrast of the one they were built from, and rebuilt once
    # it moves farther; every solve is exact to the tolerance either way
    import coeffopt.fem as fem
    from scipy.sparse.linalg import spsolve

    builds = []
    real = fem._coarse_levels

    def counting(A, transfers):
        builds.append(A.shape)
        return real(A, transfers)

    monkeypatch.setattr(fem, "_coarse_levels", counting)
    m = build_unit_disk_mesh(0.07)
    rng = np.random.default_rng(7)
    base = random_spd_columns(rng, m.n_cells)
    bump = rng.uniform(0.0, 1.0, m.n_cells)
    bump[:2] = 0.0, 1.0  # the contrast of base * (1 + t bump) is 1 + t
    b = assemble_load(m, 1.0 + m.vertices[:, 0])
    free = ~m.boundary
    path = (0.0, 0.1, 0.2, 0.45, 0.7, 0.8)
    assert 1.45 < fem._REBUILD_CONTRAST < 1.7
    assert 1.8 / 1.7 < fem._REBUILD_CONTRAST

    def run(buffer=None):
        asm = StiffnessAssembler(m)
        before = len(builds)
        us, counts, u = [], [], None
        for t in path:
            a = np.multiply(base, (1.0 + t * bump)[:, None], out=buffer)
            K = asm.assemble(a)
            assert np.array_equal(K.coefficient, a)
            assert K.coefficient is not a
            u = solve_dirichlet(LinearSystem(K, b, m.boundary), x0=u)
            ref = spsolve(K.tocsc(), b[free])
            assert np.linalg.norm(u[free] - ref) <= 1e-8 * np.linalg.norm(ref)
            us.append(u)
            counts.append(len(builds) - before)
        return us, counts

    us, counts = run()
    assert counts == [1, 1, 1, 1, 2, 2]
    again, counts = run()
    assert counts == [1, 1, 1, 1, 2, 2]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(us, again))
    # the matrix keeps its own copy: one buffer reused for every
    # coefficient is compared with the copy, not with itself
    reused, counts = run(np.empty_like(base))
    assert counts == [1, 1, 1, 1, 2, 2]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(us, reused))


@pytest.mark.parametrize("kind", ["constant", "scalar", "tensor"])
def test_a_solve_validates_its_coefficient_once(monkeypatch, kind):
    # assemble validates the read-only copy it keeps; the preconditioner
    # splits that copy into the same parts without checking it again
    import coeffopt.fem as fem

    real = fem._tensor_parts
    calls = []

    def counting(mesh, coeff):
        calls.append(np.shape(coeff))
        return real(mesh, coeff)

    monkeypatch.setattr(fem, "_tensor_parts", counting)
    m = build_unit_disk_mesh(0.1)
    a = np.linspace(1.0, 3.0, m.n_cells)
    coeff = {"constant": 2.0, "scalar": a,
             "tensor": np.column_stack([a, 0.1 * a, 2.0 * a])}[kind]
    asm = StiffnessAssembler(m)
    K = asm.assemble(coeff)
    solve_dirichlet(LinearSystem(K, assemble_load(m, 1.0), m.boundary))
    assert len(calls) == 1
    parts = real(m, K.coefficient)
    for got, want in zip(asm._reference, parts):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
