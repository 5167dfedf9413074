import math

import numpy as np
import pytest

from coeffopt.gclosure import (
    clamp_spectrum,
    d2_lambda2_bounds,
    eig_sym_2x2,
    fraction_from_harmonic,
    is_admissible,
    lamination_means,
    optimal_laminate,
    optimal_t,
)

A, B = 1.0, 2.0


def tensor(a11, a12, a22):
    return np.array([[a11, a12, a22]])


def test_means_harmonic_never_above_arithmetic():
    # at a pure phase alpha*beta/alpha or alpha*beta/beta can round one
    # ulp past the phase value, e.g. (0.2, 0.4) at t = 1
    grid = np.arange(1, 61) / 10.0
    rng = np.random.default_rng(11)
    alphas = rng.uniform(0.01, 10.0, 500)
    pairs = [(a, b) for a in grid for b in grid if a < b]
    pairs += zip(alphas, alphas * rng.uniform(1.0001, 50.0, 500))
    for a, b in pairs:
        for t in (0.0, 1.0):
            mu, nu = lamination_means(t, a, b)
            assert nu <= mu, (a, b, t)
        mu, nu = lamination_means(np.array([0.0, 1.0]), a, b)
        assert np.all(nu <= mu), (a, b)


def test_means_endpoints():
    mu0, nu0 = lamination_means(0.0, A, B)
    mu1, nu1 = lamination_means(1.0, A, B)
    assert mu0 == nu0 == B  # t counts the alpha fraction
    assert mu1 == nu1 == A


def test_trace_identity():
    t = np.linspace(0.0, 1.0, 1001)
    mu, nu = lamination_means(t, A, B)
    # arithmetic and harmonic means of the same mixture satisfy
    # mu + alpha beta / nu = alpha + beta identically
    assert np.abs(mu + A * B / nu - (A + B)).max() < 1e-12
    assert np.all(nu <= mu + 1e-15)


def test_fraction_from_harmonic_inverts():
    t = np.linspace(0.0, 1.0, 101)
    _, nu = lamination_means(t, A, B)
    assert np.abs(fraction_from_harmonic(nu, A, B) - t).max() < 1e-12


def test_d2_bounds_frozen():
    lo, hi = d2_lambda2_bounds(1.5, A, B)
    assert abs(lo - 4.0 / 3.0) < 1e-15
    assert abs(hi - 5.0 / 3.0) < 1e-15
    # at the extremes both bounds pinch: lam1 at a phase value forces
    # the mixture to be pure, so lam2 must sit at the same phase
    lo, hi = d2_lambda2_bounds(A, A, B)
    assert lo == hi == A
    lo, hi = d2_lambda2_bounds(B, A, B)
    assert lo == hi == B


def test_is_admissible_cases():
    ok, t = is_admissible((1.4, 1.45), A, B)
    assert ok and 0.0 <= t <= 1.0
    ok, t = is_admissible((1.4, 1.7), A, B)
    assert not ok and t is None
    ok, _ = is_admissible((1.0, 1.5), A, B)
    assert not ok  # one eigenvalue at a bound, the other interior
    ok, t = is_admissible((1.0, 1.0), A, B)
    assert ok and t == 1.0
    ok, t = is_admissible((2.0, 2.0), A, B)
    assert ok and t == 0.0
    ok, _ = is_admissible((1.0, 2.0), A, B)
    assert not ok
    # a pure phase rounded one ulp inside the box is still that phase
    ok, t = is_admissible((B - 2.0**-52, B), A, B)
    assert ok and t == 0.0


def test_is_admissible_on_lamination_curve():
    # every simple laminate (mu_t, nu_t reordered) must be admissible
    # and the recovered fraction must match
    for t in np.linspace(0.0, 1.0, 23):
        mu, nu = lamination_means(float(t), A, B)
        ok, t_w = is_admissible((min(mu, nu), max(mu, nu)), A, B)
        assert ok
        assert abs(t_w - t) < 1e-6


def test_is_admissible_respects_d2_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam1 = rng.uniform(A, B)
        lam2 = rng.uniform(lam1, B)
        ok, _ = is_admissible((lam1, lam2), A, B)
        lo, hi = d2_lambda2_bounds(lam1, A, B)
        assert ok == (lo - 1e-9 <= lam2 <= hi + 1e-9)


def test_is_admissible_rejects_pairs_beyond_d2_upper_bound():
    # tol bounds the constraint violation; at the phases (1, 2) that
    # keeps pairs 3e-9 beyond the closed-form boundary out (at higher
    # contrast it does not, see the is_admissible docstring)
    rng = np.random.default_rng(2024)
    lam1 = rng.uniform(A, B, 2000)
    _, hi = d2_lambda2_bounds(lam1, A, B)
    ok, t = is_admissible(np.stack([lam1, hi + 3e-9], axis=1), A, B)
    assert not ok.any()
    assert np.isnan(t).all()


def test_is_admissible_validates():
    # eigenvalue order does not matter: the pair is sorted internally
    assert is_admissible((1.45, 1.4), A, B) == is_admissible((1.4, 1.45), A, B)
    with pytest.raises(ValueError):
        is_admissible((1.5, 1.6), 2.0, 1.0)
    with pytest.raises(ValueError):
        is_admissible((1.5,), A, B)
    with pytest.raises(ValueError):
        is_admissible(np.full((2, 2, 2), 1.5), A, B)
    ok, t = is_admissible([(1.4, 1.45), (1.4, 1.7), (1.0, 1.0)], A, B)
    assert ok.tolist() == [True, False, True]
    assert np.isnan(t[1]) and t[2] == 1.0


def test_eig_sym_2x2():
    t = tensor(2.0, 0.0, 1.0)
    lam1, lam2, c, s = eig_sym_2x2(t)
    assert lam1[0] == 1.0 and lam2[0] == 2.0
    # (c, s) is the eigenvector of the larger eigenvalue
    assert abs(abs(c[0]) - 1.0) < 1e-15 and abs(s[0]) < 1e-15

    rng = np.random.default_rng(1)
    m = rng.normal(size=(300, 3))
    m[:, 0] = np.abs(m[:, 0]) + 1.0
    m[:, 2] = np.abs(m[:, 2]) + 1.0
    m[:, 1] *= 0.3
    lam1, lam2, c, s = eig_sym_2x2(m)
    assert np.all(lam1 <= lam2 + 1e-14)
    # eigen-residual: A v = lam2 v
    r1 = m[:, 0] * c + m[:, 1] * s - lam2 * c
    r2 = m[:, 1] * c + m[:, 2] * s - lam2 * s
    assert np.abs(r1).max() < 1e-12 and np.abs(r2).max() < 1e-12
    # trace and determinant recovered
    assert np.abs(lam1 + lam2 - m[:, 0] - m[:, 2]).max() < 1e-12
    assert np.abs(lam1 * lam2 - (m[:, 0] * m[:, 2] - m[:, 1] ** 2)).max() < 1e-11


def test_clamp_spectrum():
    t = tensor(3.0, 0.0, 0.5)
    out = clamp_spectrum(t, np.array([1.0]), np.array([2.0]))
    lam1, lam2, _, _ = eig_sym_2x2(out)
    assert abs(lam1[0] - 1.0) < 1e-14
    assert abs(lam2[0] - 2.0) < 1e-14
    # a tensor already inside the box is untouched
    t2 = tensor(1.5, 0.1, 1.4)
    out2 = clamp_spectrum(t2, np.array([1.0]), np.array([2.0]))
    assert np.allclose(out2, t2, atol=1e-14)
    # clamping both eigenvalues of an off-axis tensor to the same bound
    # collapses it to a multiple of the identity
    rot = tensor(2.5, 0.5, 2.5)  # eigs (2, 3) along the diagonals
    out3 = clamp_spectrum(rot, np.array([1.0]), np.array([2.0]))
    assert np.allclose(out3[0], [2.0, 0.0, 2.0], atol=1e-14)
    # clamping only the top eigenvalue keeps the eigenvectors
    out4 = clamp_spectrum(rot, np.array([1.0]), np.array([2.5]))
    lam1, lam2, c, s = eig_sym_2x2(out4)
    assert abs(lam1[0] - 2.0) < 1e-14
    assert abs(lam2[0] - 2.5) < 1e-14
    assert abs(abs(c[0]) - abs(s[0])) < 1e-14


def test_optimal_laminate_parallel_gradients():
    g = np.array([[1.0, 0.0]])
    mu = np.array([1.75])
    nu = np.array([1.6])
    out = optimal_laminate(g, g.copy(), mu, nu)
    _, lam2, _, _ = eig_sym_2x2(out)
    # parallel gradients want the arithmetic mean along the shared axis;
    # the orthogonal eigenvalue is free and completed isotropically
    assert abs(lam2[0] - mu[0]) < 1e-14
    assert np.array_equal(out, [[1.75, 0.0, 1.75]])
    # within ALIGNMENT_TOL of parallel (1 - cos 1e-5 = 5e-11) counts as
    # parallel; 1e-3 rad apart (1 - cos = 5e-7) is a generic pair
    near = np.array([[math.cos(1e-5), math.sin(1e-5)],
                     [math.cos(1e-3), math.sin(1e-3)]])
    out = optimal_laminate(np.vstack([g, g]), near, 1.75, 1.6)
    assert np.array_equal(out[0], [1.75, 0.0, 1.75])
    lam1, lam2, _, _ = eig_sym_2x2(out[1])
    assert abs(lam1 - 1.6) < 1e-14 and abs(lam2 - 1.75) < 1e-14


def test_optimal_laminate_antiparallel_gradients():
    g = np.array([[0.0, 2.0]])
    out = optimal_laminate(g, -g, np.array([1.75]), np.array([1.6]))
    lam1, _, _, _ = eig_sym_2x2(out)
    # opposed gradients want the harmonic mean along the shared axis;
    # the orthogonal eigenvalue is free and completed isotropically
    assert abs(lam1[0] - 1.6) < 1e-14
    assert np.array_equal(out, [[1.6, 0.0, 1.6]])


def test_optimal_laminate_zero_gradient():
    g = np.zeros((1, 2))
    out = optimal_laminate(g, g, np.array([1.75]), np.array([1.6]))
    assert np.allclose(out[0], [1.6, 0.0, 1.6], atol=1e-15)
    # a gradient whose squares are subnormal cannot be normalized
    tiny = np.array([[0.0, 3.9e-162]])
    out = optimal_laminate(tiny, np.array([[0.0, 1.0]]), 1.75, 1.6)
    assert np.allclose(out[0], [1.6, 0.0, 1.6], atol=1e-15)


def test_optimal_laminate_generic_bisector():
    gu = np.array([[1.0, 0.0]])
    gp = np.array([[0.0, 1.0]])
    mu = np.array([1.75])
    nu = np.array([1.6])
    out = optimal_laminate(gu, gp, mu, nu)
    lam1, lam2, c, s = eig_sym_2x2(out)
    assert abs(lam2[0] - mu[0]) < 1e-14
    assert abs(lam1[0] - nu[0]) < 1e-14
    # fast axis bisects the two gradients
    v = np.array([c[0], s[0]])
    bis = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(abs(v @ bis) - 1.0) < 1e-12


def test_optimal_laminate_hamiltonian_optimality():
    # the returned tensor must maximise gu.A gp over the admissible set;
    # compare against rotations of diag(mu, nu) on a fine angle grid
    rng = np.random.default_rng(8)
    gu = rng.normal(size=(50, 2))
    gp = rng.normal(size=(50, 2))
    mu = np.full(50, 1.75)
    nu = np.full(50, 1.6)
    out = optimal_laminate(gu, gp, mu, nu)
    val = (gu[:, 0] * (out[:, 0] * gp[:, 0] + out[:, 1] * gp[:, 1])
           + gu[:, 1] * (out[:, 1] * gp[:, 0] + out[:, 2] * gp[:, 1]))
    best = np.full(50, -np.inf)
    for th in np.linspace(0.0, math.pi, 720, endpoint=False):
        c, s = math.cos(th), math.sin(th)
        a11 = mu * c * c + nu * s * s
        a12 = (mu - nu) * c * s
        a22 = mu * s * s + nu * c * c
        cand = (gu[:, 0] * (a11 * gp[:, 0] + a12 * gp[:, 1])
                + gu[:, 1] * (a12 * gp[:, 0] + a22 * gp[:, 1]))
        best = np.maximum(best, cand)
    assert np.all(val >= best - 1e-10)


def test_optimal_t_worked_values():
    n_plus, n_minus = 1.0, 0.25
    assert optimal_t(n_plus, n_minus, 0.5, A, B) == 0.0
    assert abs(optimal_t(n_plus, n_minus, 0.75, A, B)
               - (math.sqrt(2.0) - 1.0)) < 1e-14
    assert optimal_t(n_plus, n_minus, 0.875, A, B) == 1.0


def test_optimal_t_continuity_and_monotonicity():
    n_plus, n_minus = 1.0, 0.25
    g = np.linspace(0.0, 1.2, 4001)
    t = optimal_t(n_plus, n_minus, g, A, B)
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    assert np.all(np.diff(t) >= -1e-12)  # more weight pushes toward alpha
    assert np.abs(np.diff(t)).max() < 1e-2  # no jumps on a fine grid


def test_optimal_t_degenerate_denominator():
    # g >= n_plus forces the alpha phase outright
    assert optimal_t(1.0, 0.25, 1.5, A, B) == 1.0
    assert optimal_t(0.0, 0.0, 0.5, A, B) == 1.0


def test_optimal_t_zero_g():
    # with no penalty weight the beta phase is optimal unless the
    # gradients oppose strongly
    assert optimal_t(1.0, 0.0, 0.0, A, B) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        lamination_means(0.5, 2.0, 1.0)
    # an infinite phase gave (inf, nan)
    for alpha, beta in ((A, np.inf), (np.inf, np.inf), (-np.inf, B)):
        with pytest.raises(ValueError, match="phases"):
            lamination_means(0.5, alpha, beta)
    with pytest.raises(ValueError):
        lamination_means(-0.1, A, B)
    # NaN compares false both ways, so it must fail the range check
    with pytest.raises(ValueError):
        lamination_means(np.nan, A, B)
    with pytest.raises(ValueError):
        lamination_means(np.array([0.5, np.nan]), A, B)
    with pytest.raises(ValueError):
        optimal_t(np.nan, 0.25, 0.5, A, B)
    with pytest.raises(ValueError):
        optimal_t(np.array([1.0, np.nan]), 0.25, 0.5, A, B)
    with pytest.raises(ValueError):
        optimal_t(1.0, np.nan, 0.5, A, B)
    with pytest.raises(ValueError):
        optimal_t(1.0, 0.25, np.nan, A, B)
    with pytest.raises(ValueError):
        optimal_t(1.0, 0.25, np.array([0.5, np.nan]), A, B)
    with pytest.raises(ValueError):
        d2_lambda2_bounds(np.nan, A, B)
    # a NaN bound compares false both ways and gave a NaN tensor
    tensor = np.array([1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="lo <= hi"):
        clamp_spectrum(tensor, np.nan, 2.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        clamp_spectrum(tensor, 0.5, np.nan)
    with pytest.raises(ValueError, match="lo <= hi"):
        clamp_spectrum(np.stack([tensor, tensor]), [0.5, np.nan], 2.0)
    with pytest.raises(ValueError, match="NaN"):
        fraction_from_harmonic(np.nan, 1.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        fraction_from_harmonic(np.array([1.5, np.nan]), 1.0, 2.0)
    with pytest.raises(ValueError):
        d2_lambda2_bounds(np.array([1.5, np.nan]), A, B)
