"""``is_admissible`` against its vectorized NumPy form, bit for bit.

``is_admissible`` evaluates one spectrum in Python float arithmetic and
loops over the rows of a stack.  The reference below is the NumPy form
it replaced, kept verbatim with its ``_violation``: every answer must
equal the reference's, and every witness t must have its bytes, on
seeded pairs, Hypothesis spectra and the edge rows the kernel branches
on (pure phases, one ulp around alpha, beta and the tol band, the
lamination curve, unsorted rows, NaN and infinities).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffopt.gclosure import _check_phases, is_admissible, lamination_means

PHASES = [(1.0, 2.0), (1.0, 10.0), (0.3, 7.0), (1.0, 100.0),
          (1.0, 1.0 + 2.0**-40), (1e-200, 2e-200), (1e200, 3e200)]


def ref_violation(t, alpha: float, beta: float, d: int, s_a, s_b, lam_min,
                  lam_max):
    s = beta - alpha
    ts = t * s
    # 1/(nu_t - alpha) + (d-1)/(mu_t - alpha) and the same at beta, in
    # closed form: nu_t - alpha computed from nu_t cancels near t = 1
    r_a = (d + ts / alpha) / (s * (1.0 - t))
    r_b = (alpha / beta + d - 1 + ts / beta) / ts
    v = np.maximum(s_a - r_a, s_b - r_b)
    v = np.maximum(v, alpha * beta / (alpha + ts) - lam_min)
    return np.maximum(v, lam_max - (beta - ts))


def ref_is_admissible(eigs, alpha: float, beta: float, tol: float = 1e-9):
    _check_phases(alpha, beta)
    lams = np.sort(np.asarray(eigs, dtype=float), axis=-1)
    if lams.ndim not in (1, 2) or lams.shape[-1] < 2:
        raise ValueError("need at least two eigenvalues (or a stack (n, d))")
    d = lams.shape[-1]
    s = beta - alpha
    # [()] turns the 0-d views of one spectrum into numpy scalars,
    # whose arithmetic costs far less than that of 0-d arrays
    inside = ((lams[..., 0][()] >= alpha - tol)
              & (lams[..., -1][()] <= beta + tol))
    lams = np.minimum(np.maximum(lams, alpha), beta)
    lo, hi = lams[..., 0][()], lams[..., -1][()]
    # spectra touching a phase value give inf/NaN here; the pure-phase
    # rule below replaces them.  The sums and extremes serve both the
    # interval and the violation at its three candidates
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_a = np.add.reduce(1.0 / (lams - alpha), axis=-1)
        s_b = np.add.reduce(1.0 / (beta - lams), axis=-1)
        t_lo = np.maximum(alpha * (beta - lo) / (lo * s),
                          (s_a * s - d) / (s * (s_a + 1.0 / alpha)))
        t_hi = np.minimum((beta - hi) / s,
                          (alpha / beta + d - 1) / (s * (s_b - 1.0 / beta)))
        # candidates along a new first axis, against which the
        # spectra's leading shape broadcasts
        cand = np.array([0.5 * (t_lo + t_hi),
                         t_lo + 4.0 * np.spacing(t_lo),
                         t_hi - 4.0 * np.spacing(t_hi)])
        cand = np.minimum(np.maximum(cand, 0.0), 1.0)
        v = ref_violation(cand, alpha, beta, d, s_a, s_b, lo, hi)
    t = np.where(v[0] <= tol, cand[0],
                 np.where(v[1] <= v[2], cand[1], cand[2]))
    edge = (lo <= alpha) | (hi >= beta)
    pure_alpha = hi <= alpha + tol
    ok = inside & np.where(edge, pure_alpha | (lo >= beta - tol),
                           np.minimum.reduce(v) <= tol)
    # a pure phase is t = 1 at alpha, t = 0 at beta
    t = np.where(ok, np.where(edge, pure_alpha, t), np.nan)
    if lams.ndim == 2:
        return ok, t
    return (True, float(t)) if ok else (False, None)


def assert_same_row(lams, alpha, beta, tol=1e-9):
    got = is_admissible(lams, alpha, beta, tol)
    ref = ref_is_admissible(lams, alpha, beta, tol)
    assert got[0] is ref[0], (lams, alpha, beta, tol, got, ref)
    if ref[1] is None:
        assert got[1] is None, (lams, alpha, beta, tol, got)
    else:
        assert type(got[1]) is float
        assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes(), \
            (lams, alpha, beta, tol, got, ref)


def assert_same_stack(lams, alpha, beta, tol=1e-9):
    ok, t = is_admissible(lams, alpha, beta, tol)
    ref_ok, ref_t = ref_is_admissible(lams, alpha, beta, tol)
    assert ok.dtype == bool and t.dtype == float
    assert ok.shape == t.shape == ref_ok.shape
    np.testing.assert_array_equal(ok, ref_ok)
    assert t.tobytes() == ref_t.tobytes()


def edge_values(alpha, beta, tol):
    """Values the kernel branches on: the phases and the tol band, each
    with its two ulp neighbours, an interior point, points of the
    lamination curve, NaN and the infinities."""
    up, down = np.inf, -np.inf
    vals = [np.nan, np.inf, -np.inf, 0.5 * (alpha + beta)]
    for x in (alpha, beta, alpha - tol, beta + tol):
        vals += [x, np.nextafter(x, down), np.nextafter(x, up)]
    mu, nu = lamination_means(np.array([0.0, 1e-12, 0.3, 0.7, 1.0 - 1e-12,
                                        1.0]), alpha, beta)
    vals += list(mu) + list(nu)
    return [float(v) for v in vals]


@pytest.mark.parametrize("alpha, beta", PHASES)
def test_edge_pairs(alpha, beta):
    for tol in (1e-9, 0.0):
        vals = edge_values(alpha, beta, tol)
        # every ordered pair, so unsorted rows come too
        for row in itertools.product(vals, repeat=2):
            assert_same_row(row, alpha, beta, tol)


@pytest.mark.parametrize("alpha, beta", PHASES[:4])
def test_edge_triples(alpha, beta):
    vals = edge_values(alpha, beta, 1e-9)[::2]
    for row in itertools.product(vals, repeat=3):
        assert_same_row(row, alpha, beta)


@pytest.mark.parametrize("alpha, beta", PHASES)
def test_lamination_curve(alpha, beta):
    # simple laminates sit on the boundary of the admissible set, in
    # every dimension, and in both eigenvalue orders
    for t in np.linspace(0.0, 1.0, 41):
        mu, nu = lamination_means(float(t), alpha, beta)
        for d in (2, 3, 4):
            assert_same_row([nu] + [mu] * (d - 1), alpha, beta)
            assert_same_row([mu] * (d - 1) + [nu], alpha, beta)
            assert_same_row([mu] + [nu] * (d - 1), alpha, beta)


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_seeded_pairs(seed):
    rng = np.random.default_rng(seed)
    for alpha, beta in PHASES[:4]:
        s = beta - alpha
        lams = rng.uniform(alpha - 0.1 * s, beta + 0.1 * s, size=(300, 2))
        for row in lams:
            assert_same_row(row, alpha, beta)
        assert_same_stack(lams, alpha, beta)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacks(d):
    rng = np.random.default_rng(100 + d)
    for alpha, beta in PHASES:
        s = beta - alpha
        lams = rng.uniform(alpha - 0.1 * s, beta + 0.1 * s, size=(500, d))
        vals = edge_values(alpha, beta, 1e-9)
        # edge values scattered through the stack
        lams.flat[::7] = rng.choice(vals, size=lams.flat[::7].size)
        assert_same_stack(lams, alpha, beta)
        assert_same_stack(lams, alpha, beta, 0.0)
    assert_same_stack(np.empty((0, d)), 1.0, 2.0)


@st.composite
def spectra(draw):
    alpha = draw(st.floats(0.1, 10.0))
    beta = alpha * draw(st.floats(1.05, 100.0))
    s = beta - alpha
    d = draw(st.integers(2, 4))
    lams = draw(st.lists(st.floats(alpha - 0.1 * s, beta + 0.1 * s),
                         min_size=d, max_size=d))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    return lams, alpha, beta, tol


@settings(max_examples=300, deadline=None)
@given(spectra())
def test_hypothesis_spectra(case):
    lams, alpha, beta, tol = case
    assert_same_row(lams, alpha, beta, tol)
    assert_same_stack([lams, lams[::-1]], alpha, beta, tol)
