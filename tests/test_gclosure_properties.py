"""Property tests for the G-closure kernels.

``is_admissible`` against the d = 2 closed form, a dense scan of the
violation envelope in d = 3, the lamination curve in d = 2..4 and its
own per-row calls; ``clamp_spectrum`` and ``optimal_laminate`` against
the eigenvalue box they promise, and the convexity of that box.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coeffopt.gclosure import (
    clamp_spectrum,
    d2_lambda2_bounds,
    eig_sym_2x2,
    is_admissible,
    lamination_means,
    optimal_laminate,
)

TOL = 1e-9
SETTINGS = settings(max_examples=200, deadline=None)

unit = st.floats(0.0, 1.0)


@st.composite
def phases(draw):
    alpha = draw(st.floats(0.1, 10.0))
    return alpha, alpha * draw(st.floats(1.05, 20.0))


@st.composite
def spectra(draw, d):
    """Phases plus d eigenvalues drawn from a band around [alpha, beta]."""
    alpha, beta = draw(phases())
    s = beta - alpha
    lams = draw(st.lists(st.floats(alpha - 0.1 * s, beta + 0.1 * s),
                         min_size=d, max_size=d))
    return np.array(lams), alpha, beta


def violation(lams, t, alpha, beta):
    """Max violation of the d+2 system for spectra lams (..., d) at
    fractions t, written out here: the trace sums, then the envelope of
    the four constraints in the closed forms ``is_admissible`` uses."""
    d = lams.shape[-1]
    s = beta - alpha
    s_a = (1.0 / (lams - alpha)).sum(axis=-1)
    s_b = (1.0 / (beta - lams)).sum(axis=-1)
    ts = t * s
    r_a = (d + ts / alpha) / (s * (1.0 - t))
    r_b = (alpha / beta + d - 1 + ts / beta) / ts
    v = np.maximum(s_a - r_a, s_b - r_b)
    v = np.maximum(v, alpha * beta / (alpha + ts) - lams.min(axis=-1))
    return np.maximum(v, lams.max(axis=-1) - (beta - ts))


def tensor_cols(lam1, lam2, theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([lam2 * c * c + lam1 * s * s, (lam2 - lam1) * c * s,
                     lam2 * s * s + lam1 * c * c])


@SETTINGS
@given(st.integers(2, 4).flatmap(spectra))
def test_permutation_invariant(case):
    lams, alpha, beta = case
    ref = is_admissible(lams, alpha, beta)
    for perm in itertools.permutations(lams):
        assert is_admissible(perm, alpha, beta) == ref


@SETTINGS
@given(st.integers(2, 4).flatmap(spectra))
def test_witness_satisfies_system(case):
    lams, alpha, beta = case
    ok, t = is_admissible(lams, alpha, beta, tol=TOL)
    if ok:
        assert 0.0 <= t <= 1.0
        lam = np.clip(np.sort(lams), alpha, beta)
        if alpha < lam[0] and lam[-1] < beta:
            # t = 1 or 0 divides by zero in the closed forms
            with np.errstate(divide="ignore", over="ignore"):
                assert violation(lam, t, alpha, beta) <= TOL
        else:  # a pure phase
            assert (t, lam.min(), lam.max()) in ((1.0, alpha, alpha),
                                                 (0.0, beta, beta))
    else:
        assert t is None


@SETTINGS
@given(unit, unit)
def test_matches_d2_closed_form_outside_band(x1, x2):
    # on the acceptance phases the envelope grows at least as fast as
    # the distance to the admissible set (factor about 1.46), so a 1e-9
    # band around its boundary is enough; wider phase contrasts need a
    # wider band, since tol bounds the violation, not the distance
    alpha, beta = 1.0, 2.0
    lam1 = alpha - 0.2 + 1.4 * x1
    lam2 = alpha - 0.2 + 1.4 * x2
    lam1, lam2 = min(lam1, lam2), max(lam1, lam2)
    edges = [lam1 - alpha, lam1 - beta, lam2 - alpha, lam2 - beta]
    closed = alpha <= lam1 <= beta
    if closed:
        lo, hi = d2_lambda2_bounds(lam1, alpha, beta)
        edges += [lam2 - lo, lam2 - hi]
        closed = lo <= lam2 <= hi
    assume(min(abs(e) for e in edges) >= TOL)
    assert is_admissible((lam1, lam2), alpha, beta, tol=TOL)[0] == closed


@SETTINGS
@given(st.integers(2, 4), unit, phases())
def test_simple_laminate_recovers_fraction(d, t, ab):
    alpha, beta = ab
    mu, nu = lamination_means(t, alpha, beta)
    ok, t_w = is_admissible([nu] + [mu] * (d - 1), alpha, beta)
    assert ok
    assert abs(t_w - t) < 1e-6


def scan_min(lams, alpha, beta):
    """Least violation over t: a dense grid, zoomed twice onto its best
    point (the envelope is quasiconvex), resolving t to 1e-9."""
    lo, hi = 0.0, 1.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 1001)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = violation(lams, grid, alpha, beta)
        k = int(np.argmin(v))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    return float(v[k])


@SETTINGS
@given(st.lists(unit, min_size=3, max_size=3), phases())
def test_matches_dense_scan_d3(xs, ab):
    alpha, beta = ab
    s = beta - alpha
    lams = alpha + s * (0.01 + 0.98 * np.array(xs))
    v = scan_min(lams, alpha, beta)
    assume(abs(v) > 1e-6)  # away from the band
    assert is_admissible(lams, alpha, beta, tol=TOL)[0] == (v < 0.0)


@SETTINGS
@given(st.integers(2, 4), st.integers(1, 12), st.integers(0, 2**32 - 1),
       phases())
def test_stack_equals_rows(d, n, seed, ab):
    alpha, beta = ab
    rng = np.random.default_rng(seed)
    s = beta - alpha
    lams = rng.uniform(alpha - 0.1 * s, beta + 0.1 * s, size=(n, d))
    # seed some rows with pure phases and laminates so every branch runs
    lams[0] = alpha
    if n > 1:
        lams[1] = beta
    if n > 2:
        mu, nu = lamination_means(0.3, alpha, beta)
        lams[2] = [nu] + [mu] * (d - 1)
    ok, t = is_admissible(lams, alpha, beta)
    assert ok.shape == t.shape == (n,)
    for row, ok_k, t_k in zip(lams, ok, t):
        ref_ok, ref_t = is_admissible(row, alpha, beta)
        assert ok_k == ref_ok
        assert (t_k == ref_t) if ref_ok else np.isnan(t_k)


eig = st.floats(0.01, 100.0)
angle = st.floats(0.0, 2.0 * np.pi)


@SETTINGS
@given(eig, eig, angle, angle, st.floats(0.05, 50.0), st.floats(1.0, 10.0))
def test_clamp_spectrum_equivariant_and_bounded(l1, l2, th, rot, lo, ratio):
    hi = lo * ratio
    base = tensor_cols(l1, l2, th)
    out = clamp_spectrum(base, lo, hi)
    rotated = clamp_spectrum(tensor_cols(l1, l2, th + rot), lo, hi)
    c, s = np.cos(rot), np.sin(rot)
    q = np.array([[c, -s], [s, c]])
    m = np.array([[out[0], out[1]], [out[1], out[2]]])
    expect = q @ m @ q.T
    scale = max(l1, l2, hi)
    assert np.allclose(rotated, [expect[0, 0], expect[0, 1], expect[1, 1]],
                       rtol=0.0, atol=1e-12 * scale)
    lam1, lam2 = eig_sym_2x2(out)
    assert lo - 1e-12 * scale <= lam1 <= lam2 <= hi + 1e-12 * scale


vec = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)


@SETTINGS
@given(vec, vec, unit, phases())
def test_optimal_laminate_admissible(gu, gp, t, ab):
    alpha, beta = ab
    mu, nu = lamination_means(t, alpha, beta)
    out = optimal_laminate(np.array(gu), np.array(gp), mu, nu)
    lam1, lam2 = eig_sym_2x2(out)
    assert nu - 1e-12 * beta <= lam1 <= lam2 <= mu + 1e-12 * beta
    assert is_admissible((lam1, lam2), alpha, beta)[0]


@st.composite
def gradient_stacks(draw):
    """n gradient pairs, some made parallel, antiparallel or vanishing,
    and a fraction per cell for each of two boxes."""
    n = draw(st.integers(1, 6))
    gu = np.array(draw(st.lists(vec, min_size=n, max_size=n)))
    gp = np.array(draw(st.lists(vec, min_size=n, max_size=n)))
    scale = draw(st.lists(st.sampled_from([None, 3.0, -0.5, 0.0]),
                          min_size=n, max_size=n))
    for i, k in enumerate(scale):
        if k is not None:
            gp[i] = k * gu[i]
    t = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    return gu, gp, t.reshape(2, n)


@SETTINGS
@given(gradient_stacks(), phases())
def test_optimal_laminate_stacked_boxes_match_separate_calls(case, ab):
    gu, gp, t = case
    mu, nu = lamination_means(t, *ab)
    out = optimal_laminate(gu, gp, mu, nu)
    assert out.shape == (2, len(gu), 3)
    for k in range(2):
        alone = optimal_laminate(gu, gp, mu[k], nu[k])
        assert out[k].tobytes() == alone.tobytes()
    # one gradient pair against a stack of boxes
    one = optimal_laminate(gu[0], gp[0], mu[:, 0], nu[:, 0])
    assert one.tobytes() == out[:, 0].tobytes()


@SETTINGS
@given(unit, unit, unit, st.lists(unit, min_size=4, max_size=4), angle,
       angle, phases())
def test_lamination_box_is_convex(t1, t2, s, xs, th1, th2, ab):
    # lambda_max is convex and mu_t affine in t; lambda_min is concave
    # and nu_t convex.  So a convex combination of members of the boxes
    # [nu_t1, mu_t1] and [nu_t2, mu_t2] lies in the box at the combined
    # fraction, up to rounding: the laminate trials rely on this
    alpha, beta = ab
    (mu1, mu2), (nu1, nu2) = lamination_means(np.array([t1, t2]), alpha,
                                              beta)
    x1, y1, x2, y2 = xs
    a1 = tensor_cols(nu1 + x1 * (mu1 - nu1), nu1 + y1 * (mu1 - nu1), th1)
    a2 = tensor_cols(nu2 + x2 * (mu2 - nu2), nu2 + y2 * (mu2 - nu2), th2)
    lam1, lam2 = eig_sym_2x2((1.0 - s) * a1 + s * a2)
    mu, nu = lamination_means(min((1.0 - s) * t1 + s * t2, 1.0), alpha, beta)
    slack = 16 * np.finfo(float).eps * beta
    assert nu - slack <= lam1 <= lam2 <= mu + slack
