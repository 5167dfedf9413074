"""The blocked G-closure kernels against their whole-stack forms.

``optimal_t``, ``lamination_means``, ``optimal_laminate`` and
``clamp_spectrum`` run over blocks of ``_BLOCK`` cells.  The references
below are the same kernels in one whole-stack pass: every output must
equal theirs byte for byte, on stacks that end inside, at and just past
a block boundary, and on the edge rows each kernel branches on.  The
blocks also bound the kernels' temporaries, which the memory test
measures, and each block checks its own inputs, so a bad value in the
second block raises.  The clamp's deviator formula is also checked
against the eigenvector formula it replaced, to rounding.
"""

import tracemalloc

import numpy as np
import pytest

from coeffopt.gclosure import (
    _BLOCK,
    _NORM_FLOOR,
    _TINY,
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
    a11, a12, a22 = tcols[..., 0], tcols[..., 1], tcols[..., 2]
    m = 0.5 * (a11 + a22)
    dd = 0.5 * (a11 - a22)
    r = np.hypot(dd, a12)
    l1 = np.clip(m - r, lo, hi)
    l2 = np.clip(m + r, lo, hi)
    q = (l2 - l1) / np.maximum(2.0 * r, _TINY)
    m = 0.5 * (l1 + l2)
    out = np.empty(np.broadcast_shapes(tcols.shape[:-1], lo.shape, hi.shape)
                   + (3,))
    out[..., 0] = m + q * dd
    out[..., 1] = q * a12
    out[..., 2] = m - q * dd
    return out


def eigvec_clamp_spectrum(tcols, lo, hi):
    """The clamp as it was first written: clip the eigenvalues of
    ``eig_sym_2x2`` and rebuild the tensor on its eigenvectors."""
    lam1, lam2, c, s = eig_sym_2x2(tcols)
    l1 = np.clip(lam1, lo, hi)
    l2 = np.clip(lam2, lo, hi)
    return np.stack([l2 * c * c + l1 * s * s, (l2 - l1) * c * s,
                     l2 * s * s + l1 * c * c], axis=-1)


def ref_optimal_laminate(grad_u, grad_p, mu, nu):
    gu = np.asarray(grad_u, dtype=float)
    gp = np.asarray(grad_p, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    nu_norm = np.linalg.norm(gu, axis=-1)
    np_norm = np.linalg.norm(gp, axis=-1)
    ok = (nu_norm >= _NORM_FLOOR) & (np_norm >= _NORM_FLOOR)
    prod = nu_norm * np_norm
    ux, uy, px, py = gu[..., 0], gu[..., 1], gp[..., 0], gp[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (ux * px + uy * py) / prod
        cos2 = (ux * px - uy * py) / prod
        sin2 = (ux * py + uy * px) / prod
    generic = ok & (np.abs(c) < 1.0 - ALIGNMENT_TOL)
    # parallel: mu I; antiparallel or vanishing: nu I
    iso = np.where(ok & (c > 0.0), mu, nu)
    m = 0.5 * (mu + nu)
    d = 0.5 * (mu - nu)
    out = np.empty(np.broadcast_shapes(mu.shape, nu.shape, ok.shape) + (3,))
    with np.errstate(invalid="ignore"):
        out[..., 0] = np.where(generic, m + d * cos2, iso)
        out[..., 1] = np.where(generic, d * sin2, 0.0)
        out[..., 2] = np.where(generic, m - d * cos2, iso)
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
    gu, gp, n_plus, n_minus, t = stacks(n)
    mu, nu = lamination_means(t, A, B)
    lam = optimal_laminate(gu, gp, mu, nu)
    for kernel, args in ((optimal_laminate, (gu, gp, mu, nu)),
                         (clamp_spectrum, (lam, nu, mu)),
                         (lamination_means, (t, A, B)),
                         (optimal_t, (n_plus, n_minus, 0.09, A, B))):
        tracemalloc.start()
        try:
            out = kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # lamination_means returns mu and nu, two views of one array
        nbytes = sum(o.nbytes for o in (out if isinstance(out, tuple)
                                        else (out,)))
        assert peak < 2 * nbytes, (kernel.__name__, peak / nbytes)


# a bad row in the second block: the checks run block by block
BAD_ROW = _BLOCK + 5


def with_bad(x, value, *index):
    x = np.array(x, dtype=float)
    x[(..., BAD_ROW) + index] = value
    return x


def test_laminate_rejects_bad_inputs():
    gu, gp, _, _, t = stacks(2 * _BLOCK + 3)
    mu, nu = lamination_means(t, A, B)
    boxes = (mu, nu), (np.stack([mu, mu]), np.stack([nu, nu]))
    for bad in (np.nan, np.inf, -np.inf):
        for k in (0, 1):
            for args in ((with_bad(gu, bad, k), gp, mu, nu),
                         (gu, with_bad(gp, bad, k), mu, nu)):
                with pytest.raises(ValueError, match="gradients"):
                    optimal_laminate(*args)
        for hi, lo in boxes:
            for args in ((gu, gp, with_bad(hi, bad), lo),
                         (gu, gp, hi, with_bad(lo, bad))):
                with pytest.raises(ValueError, match="box"):
                    optimal_laminate(*args)
    for hi, lo in boxes:
        # nu > mu: an inverted box
        with pytest.raises(ValueError, match="nu <= mu"):
            optimal_laminate(gu, gp, with_bad(hi, 1.0), with_bad(lo, 1.5))
    # single cells: a NaN gradient gave nu I, an inf one nu I with a
    # RuntimeWarning, an inverted box a laminate with mu across the
    # bisector and a NaN mu a NaN tensor
    for args in (([np.nan, 1.0], [1.0, 0.0], 2.0, 1.0),
                 ([np.inf, 1.0], [1.0, 0.0], 2.0, 1.0),
                 ([1.0, 0.0], [0.0, 1.0], 1.0, 2.0),
                 ([1.0, 0.0], [0.0, 1.0], np.nan, 1.0)):
        with pytest.raises(ValueError):
            optimal_laminate(*args)
    # a finite gradient whose squared norm overflows
    with pytest.raises(ValueError, match="gradients"):
        optimal_laminate([1e200, 0.0], [0.0, 1.0], 2.0, 1.0)


def test_clamp_and_optimal_t_reject_bad_inputs():
    gu, gp, n_plus, n_minus, t = stacks(2 * _BLOCK + 3)
    mu, nu = lamination_means(t, A, B)
    lam = optimal_laminate(gu, gp, mu, nu)
    for bad in (np.nan, np.inf, -np.inf):
        for k in range(3):
            with pytest.raises(ValueError, match="tensors must be finite"):
                clamp_spectrum(with_bad(lam, bad, k), nu, mu)
        for args in ((lam, with_bad(nu, bad), mu),
                     (lam, nu, with_bad(mu, bad))):
            with pytest.raises(ValueError, match="lo <= hi"):
                clamp_spectrum(*args)
        for args in ((with_bad(n_plus, bad), n_minus, 0.09),
                     (n_plus, with_bad(n_minus, bad), 0.09),
                     (n_plus, n_minus, with_bad(np.full(len(t), 0.09), bad))):
            with pytest.raises(ValueError):
                optimal_t(*args, A, B)
    with pytest.raises(ValueError, match="lo <= hi"):
        clamp_spectrum(lam, with_bad(nu, 1.5), with_bad(mu, 1.2))
    with pytest.raises(ValueError, match="nonnegative"):
        optimal_t(with_bad(n_plus, -1e-3), n_minus, 0.09, A, B)
    with pytest.raises(ValueError, match="must lie in"):
        lamination_means(with_bad(t, 1.5), A, B)
    # single cells: a NaN tensor gave NaNs, an infinite N- t = 1
    with pytest.raises(ValueError):
        clamp_spectrum([np.nan, 0.0, 1.0], 1.0, 2.0)
    with pytest.raises(ValueError, match="finite"):
        optimal_t(1.0, np.inf, 0.1, A, B)


def test_clamp_matches_eigenvector_formula():
    rng = np.random.default_rng(5)
    n = 2000
    a11, a22 = rng.uniform(0.5, 2.5, size=(2, n))
    a12 = rng.normal(scale=0.5, size=n)
    a12[::7] = 0.0  # r = 0 where a11 = a22 as well
    a22[::7] = a11[::7]
    a12[1::7], a12[2::7] = 0.0, -0.0  # +-0 off the diagonal, a11 < a22
    a11[1::7], a22[1::7] = 1.2, 1.9
    a11[2::7], a22[2::7] = 1.2, 1.9
    a22[3::7] = a11[3::7] + 1e-13  # r far below the scale of m
    tensors = np.stack([a11, a12, a22], axis=-1)
    lo = rng.uniform(0.8, 1.4, n)
    hi = lo + rng.uniform(0.0, 1.0, n)
    hi[::5] = lo[::5]  # a box of one point
    for scale in (1.0, 1e150, 1e-150):
        t, lo_s, hi_s = scale * tensors, scale * lo, scale * hi
        got = clamp_spectrum(t, lo_s, hi_s)
        ref = eigvec_clamp_spectrum(t, lo_s, hi_s)
        assert np.all(np.isfinite(got))
        assert np.abs(got - ref).max() <= 1e-14 * scale
        # a single tensor, against scalar bounds
        one = clamp_spectrum(t[4], lo_s[4], hi_s[4])
        assert one.shape == (3,)
        assert np.abs(one - ref[4]).max() <= 1e-14 * scale
    # an isotropic tensor stays isotropic, whatever the box
    for lo_k, hi_k in ((0.5, 0.8), (1.0, 3.0), (2.0, 2.0)):
        out = clamp_spectrum([1.5, 0.0, 1.5], lo_k, hi_k)
        b = min(max(1.5, lo_k), hi_k)
        assert out.tolist() == [b, 0.0, b]
