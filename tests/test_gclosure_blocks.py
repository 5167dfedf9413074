"""The blocked G-closure kernels against their whole-stack forms.

``optimal_t``, ``lamination_means``, ``optimal_laminate`` and
``clamp_spectrum`` run over blocks of ``_BLOCK`` cells.  The references
below are the whole-stack kernels they replaced, kept verbatim: every
output must equal theirs byte for byte, on stacks that end inside, at
and just past a block boundary, and on the edge rows each kernel
branches on.  The blocks also bound the kernels' temporaries, which the
memory test measures.
"""

import tracemalloc

import numpy as np
import pytest

from coeffopt.gclosure import (
    _BLOCK,
    _NORM_FLOOR,
    ALIGNMENT_TOL,
    _check_phases,
    clamp_spectrum,
    eig_sym_2x2,
    lamination_means,
    optimal_laminate,
    optimal_t,
)

A, B = 1.0, 2.0
SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


def ref_lamination_means(t, alpha: float, beta: float):
    _check_phases(alpha, beta)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("volume fraction t must lie in [0, 1]")
    mu = t * alpha + (1.0 - t) * beta
    nu = np.minimum(alpha * beta / (t * beta + (1.0 - t) * alpha), mu)
    if mu.ndim == 0:
        return float(mu), float(nu)
    return mu, nu


def ref_clamp_spectrum(tcols: np.ndarray, lo, hi):
    tcols = np.asarray(tcols, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(lo <= hi):
        raise ValueError("clamp bounds must satisfy lo <= hi")
    lam1, lam2, c, s = eig_sym_2x2(tcols)
    l1 = np.clip(lam1, lo, hi)
    l2 = np.clip(lam2, lo, hi)
    out = np.empty_like(tcols)
    out[..., 0] = l2 * c * c + l1 * s * s
    out[..., 1] = (l2 - l1) * c * s
    out[..., 2] = l2 * s * s + l1 * c * c
    return out


def ref_optimal_laminate(grad_u, grad_p, mu, nu):
    gu = np.asarray(grad_u, dtype=float)
    gp = np.asarray(grad_p, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    nu_norm = np.linalg.norm(gu, axis=-1)
    np_norm = np.linalg.norm(gp, axis=-1)
    ok = (nu_norm >= _NORM_FLOOR) & (np_norm >= _NORM_FLOOR)
    w1 = np.where(ok[..., None], gu / np.where(ok, nu_norm, 1.0)[..., None],
                  0.0)
    w2 = np.where(ok[..., None], gp / np.where(ok, np_norm, 1.0)[..., None],
                  0.0)
    c = (w1 * w2).sum(axis=-1)
    generic = ok & (np.abs(c) < 1.0 - ALIGNMENT_TOL)
    # parallel: mu I; antiparallel or vanishing: nu I
    iso = np.where(ok & (c > 0.0), mu, nu)

    bis = w1 + w2
    bn = np.linalg.norm(bis, axis=-1)
    axis = bis / np.where(generic, bn, 1.0)[..., None]
    ex, ey = axis[..., 0], axis[..., 1]
    out = np.empty(np.broadcast_shapes(mu.shape, nu.shape, ok.shape) + (3,))
    out[..., 0] = np.where(generic, mu * ex * ex + nu * ey * ey, iso)
    out[..., 1] = np.where(generic, (mu - nu) * ex * ey, 0.0)
    out[..., 2] = np.where(generic, mu * ey * ey + nu * ex * ex, iso)
    return out


def ref_optimal_t(n_plus, n_minus, g, alpha: float, beta: float):
    _check_phases(alpha, beta)
    n_plus = np.asarray(n_plus, dtype=float)
    n_minus = np.asarray(n_minus, dtype=float)
    g = np.asarray(g, dtype=float)
    if not (np.all(n_plus >= -1e-15) and np.all(n_minus >= -1e-15)):
        raise ValueError("N+ and N- must be nonnegative")
    if np.isnan(g).any():
        raise ValueError("g must not be NaN")
    n_plus = np.maximum(n_plus, 0.0)
    n_minus = np.maximum(n_minus, 0.0)
    b_lo = n_plus - (beta / alpha) * n_minus
    b_hi = n_plus - (alpha / beta) * n_minus
    denom = n_plus - g
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = (np.sqrt(alpha * beta * n_minus / denom) - alpha) / (beta - alpha)
    mid = np.where(denom > 0.0, mid, 1.0)
    t = np.where(g < b_lo, 0.0, np.where(g > b_hi, 1.0, np.clip(mid, 0.0, 1.0)))
    return float(t) if t.ndim == 0 else t


def assert_same(got, ref):
    if isinstance(ref, tuple):
        assert isinstance(got, tuple) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same(g, r)
    elif isinstance(ref, float):
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    else:
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def stacks(n, seed=0):
    """n gradient pairs, each edge row the laminate branches on repeated
    along the stack, and per-cell N+, N- and fractions t."""
    rng = np.random.default_rng(seed)
    gu, gp = rng.normal(scale=0.3, size=(2, n, 2))
    turn = 1e-5  # 1 - cos(1e-5) = 5e-11, inside ALIGNMENT_TOL
    rot = np.array([[np.cos(turn), -np.sin(turn)],
                    [np.sin(turn), np.cos(turn)]])
    edge = [slice(k, None, 9) for k in range(7)]
    gu[edge[0]] = 0.0  # zero gradient
    gp[edge[1]] = 0.0  # zero adjoint gradient
    gp[edge[2]] = 3.0 * gu[edge[2]]  # parallel
    gp[edge[3]] = -0.5 * gu[edge[3]]  # antiparallel
    gp[edge[4]] = gu[edge[4]] @ rot.T  # parallel within ALIGNMENT_TOL
    gp[edge[5]] = -gu[edge[5]] @ rot.T  # antiparallel within it
    gu[edge[6]] *= 1e-160  # a norm below _NORM_FLOOR
    prod = np.hypot(gu[:, 0], gu[:, 1]) * np.hypot(gp[:, 0], gp[:, 1])
    dot = gu[:, 0] * gp[:, 0] + gu[:, 1] * gp[:, 1]
    n_plus = np.maximum(0.5 * (prod + dot), 0.0)
    n_minus = np.maximum(0.5 * (prod - dot), 0.0)
    t = rng.uniform(size=n)
    t[::5], t[1::5] = 0.0, 1.0
    return gu, gp, n_plus, n_minus, t


@pytest.mark.parametrize("n", SIZES)
def test_optimal_t_and_means_bitwise(n):
    gu, gp, n_plus, n_minus, t = stacks(n)
    g_cell = np.random.default_rng(1).uniform(0.0, 0.2, n)
    g_cell[::4] = n_plus[::4]  # N+ = g: a vanishing denominator
    for g in (0.09, g_cell):
        assert_same(optimal_t(n_plus, n_minus, g, A, B),
                    ref_optimal_t(n_plus, n_minus, g, A, B))
    assert_same(lamination_means(t, A, B), ref_lamination_means(t, A, B))
    stacked = np.stack([t, t[::-1]])
    assert_same(lamination_means(stacked, A, B),
                ref_lamination_means(stacked, A, B))


@pytest.mark.parametrize("n", SIZES)
def test_laminate_and_clamp_bitwise(n):
    gu, gp, _, _, t = stacks(n)
    mu, nu = lamination_means(t, A, B)
    mid = nu + 0.5 * (mu - nu)
    boxes = [
        (mu, nu),
        (1.6, 1.3),  # one box for every cell
        (np.stack([mu, mid]), np.stack([nu, nu])),  # the driver's two boxes
    ]
    for hi, lo in boxes:
        lam = optimal_laminate(gu, gp, hi, lo)
        assert_same(lam, ref_optimal_laminate(gu, gp, hi, lo))
        # a box narrower than the laminate's, so the clamp moves it
        narrow = np.asarray(lo) + 0.25 * (np.asarray(hi) - np.asarray(lo))
        assert_same(clamp_spectrum(lam, narrow, hi),
                    ref_clamp_spectrum(lam, narrow, hi))


def test_single_cells_bitwise():
    gu, gp, n_plus, n_minus, t = stacks(9)
    for k in range(9):
        mu, nu = lamination_means(t[k], A, B)
        assert_same((mu, nu), ref_lamination_means(t[k], A, B))
        assert_same(optimal_t(n_plus[k], n_minus[k], 0.09, A, B),
                    ref_optimal_t(n_plus[k], n_minus[k], 0.09, A, B))
        lam = optimal_laminate(gu[k], gp[k], mu, nu)
        assert_same(lam, ref_optimal_laminate(gu[k], gp[k], mu, nu))
        assert_same(clamp_spectrum(lam, nu, 0.5 * (mu + nu)),
                    ref_clamp_spectrum(lam, nu, 0.5 * (mu + nu)))


def test_temporaries_stay_within_blocks():
    # whole-stack kernels peaked at 6.1 (optimal_laminate) and 3.7
    # (clamp_spectrum) times their output
    n = 100_000
    gu, gp, _, _, t = stacks(n)
    mu, nu = lamination_means(t, A, B)
    lam = optimal_laminate(gu, gp, mu, nu)
    for kernel, args in ((optimal_laminate, (gu, gp, mu, nu)),
                         (clamp_spectrum, (lam, nu, mu))):
        tracemalloc.start()
        try:
            out = kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, (kernel.__name__, peak / out.nbytes)
