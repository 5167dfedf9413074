"""``optimal_laminate`` against the bisector kernel it replaced.

``optimal_laminate`` builds the rank-one laminate from the doubled
bisector angle, the sum of the gradients' angles.  The reference below
is the kernel it replaced, kept verbatim: it normalizes each gradient,
then their sum w1 + w2, which cancels near antiparallel gradients.  The
two must classify every pair alike (vanishing, parallel, antiparallel or
generic) except where the cosine of the angle between the gradients
lies within 4 ulps of 1 - ALIGNMENT_TOL, and agree on the tensors to
within 1e-11 (mu - nu).  Near antiparallel gradients the new kernel is
checked against an extended-precision reference, and on any gradients
for rotation equivariance and invariance under positive rescaling.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coeffopt.gclosure import (
    _NORM_FLOOR,
    ALIGNMENT_TOL,
    _by_blocks,
    optimal_laminate,
)

THRESHOLD = 1.0 - ALIGNMENT_TOL


def ref_optimal_laminate(grad_u, grad_p, mu, nu):
    gu = np.asarray(grad_u, dtype=float)
    gp = np.asarray(grad_p, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)

    def block(out, gu, gp, mu, nu):
        ux, uy, px, py = gu[..., 0], gu[..., 1], gp[..., 0], gp[..., 1]
        norm_u = np.sqrt(ux * ux + uy * uy)
        norm_p = np.sqrt(px * px + py * py)
        ok = (norm_u >= _NORM_FLOOR) & (norm_p >= _NORM_FLOOR)
        den_u = np.where(ok, norm_u, 1.0)
        den_p = np.where(ok, norm_p, 1.0)
        w1x, w1y = np.where(ok, ux / den_u, 0.0), np.where(ok, uy / den_u, 0.0)
        w2x, w2y = np.where(ok, px / den_p, 0.0), np.where(ok, py / den_p, 0.0)
        c = w1x * w2x + w1y * w2y
        generic = ok & (np.abs(c) < 1.0 - ALIGNMENT_TOL)
        bx, by = w1x + w2x, w1y + w2y
        den_b = np.where(generic, np.sqrt(bx * bx + by * by), 1.0)
        ex, ey = bx / den_b, by / den_b
        out[..., 0] = mu * ex * ex + nu * ey * ey
        out[..., 1] = (mu - nu) * ex * ey
        out[..., 2] = mu * ey * ey + nu * ex * ex
        # parallel: mu I; antiparallel or vanishing: nu I
        flat = ~generic
        parallel = flat & ok & (c > 0.0)
        for col in (out[..., 0], out[..., 2]):
            np.copyto(col, nu, where=flat)
            np.copyto(col, mu, where=parallel)
        np.copyto(out[..., 1], 0.0, where=flat)

    out = np.empty(np.broadcast_shapes(mu.shape, nu.shape, gu.shape[:-1],
                                       gp.shape[:-1]) + (3,))
    return _by_blocks(block, (out, 1), (gu, 1), (gp, 1), (mu, 0), (nu, 0))


def classes(out, mu, nu):
    """Per tensor: 1 for mu I (parallel), -1 for nu I (antiparallel or
    vanishing), 0 for a generic laminate; mu > nu everywhere."""
    iso = (out[..., 1] == 0.0) & (out[..., 0] == out[..., 2])
    return np.where(iso & (out[..., 0] == mu), 1,
                    np.where(iso & (out[..., 0] == nu), -1, 0))


def cosines(gu, gp):
    """The cosine between the gradients as each kernel computes it: the
    dot product of the unit gradients, and u . p / (|u||p|)."""
    norm_u = np.sqrt(gu[:, 0] * gu[:, 0] + gu[:, 1] * gu[:, 1])
    norm_p = np.sqrt(gp[:, 0] * gp[:, 0] + gp[:, 1] * gp[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        c_old = ((gu[:, 0] / norm_u) * (gp[:, 0] / norm_p)
                 + (gu[:, 1] / norm_u) * (gp[:, 1] / norm_p))
        c_new = (gu[:, 0] * gp[:, 0] + gu[:, 1] * gp[:, 1]) / (norm_u * norm_p)
    return c_old, c_new


def rotated(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.stack([c * v[..., 0] - s * v[..., 1],
                     s * v[..., 0] + c * v[..., 1]], axis=-1)


def test_matches_bisector_kernel():
    rng = np.random.default_rng(21)
    n = 40_000
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    # angles between the gradients: any, and a band around the alignment
    # threshold, 1 - cos(delta) = ALIGNMENT_TOL at delta = 4.47e-5
    delta = rng.uniform(0.0, np.pi, n)
    near = rng.uniform(4.4e-5, 4.55e-5, n)
    delta[1::4] = near[1::4]
    delta[2::4] = np.pi - near[2::4]
    gu = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) * np.stack(
        [np.cos(phi), np.sin(phi)], axis=-1)
    gp = 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) * np.stack(
        [np.cos(phi + delta), np.sin(phi + delta)], axis=-1)
    # cosines up to 20 ulps either side of the threshold, turned and
    # scaled, so the two kernels' roundings can classify them apart
    k = rng.integers(-20, 21, n // 4)
    c = (1.0 - ALIGNMENT_TOL) + k * np.spacing(1.0 - ALIGNMENT_TOL)
    c[::2] *= -1.0
    gu[::4] = rotated(np.stack([np.ones(n // 4), np.zeros(n // 4)], -1),
                      phi[::4])
    gp[::4] = rotated(np.stack([c, np.sqrt(1.0 - c * c)], -1), phi[::4])
    gu[::4] *= 10.0 ** rng.uniform(-3.0, 3.0, (n // 4, 1))
    # the edge rows: vanishing, below the norm floor, exactly
    # (anti)parallel
    gu[2::40] = 0.0
    gp[3::40] = 0.0
    gu[4::40] *= 1e-160
    gp[5::40] = 2.0 * gu[5::40]
    gp[6::40] = -0.5 * gu[6::40]
    nu = rng.uniform(0.5, 2.0, n)
    mu = nu + rng.uniform(0.01, 2.0, n)

    got = optimal_laminate(gu, gp, mu, nu)
    ref = ref_optimal_laminate(gu, gp, mu, nu)
    k_got, k_ref = classes(got, mu, nu), classes(ref, mu, nu)
    differ = k_got != k_ref
    for c in cosines(gu, gp):
        assert np.all(np.abs(np.abs(c[differ]) - THRESHOLD)
                      <= 4.0 * np.spacing(THRESHOLD))
    for k in (2, 3, 4, 6):
        assert np.all(k_got[k::40] == -1)
    assert np.all(k_got[5::40] == 1)
    # every class occurs, and most of the threshold band agrees
    assert {-1, 0, 1} <= set(k_got.tolist())
    assert differ.sum() < 0.01 * n
    same = ~differ
    err = np.abs(got[same] - ref[same]).max(axis=-1)
    assert np.all(err <= 1e-11 * (mu - nu)[same])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
def test_accurate_near_antiparallel_gradients():
    rng = np.random.default_rng(4)
    n = 20_000
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    # 1e-4.2 rad from antiparallel: 1 - cos = 2e-9, past ALIGNMENT_TOL
    delta = 10.0 ** rng.uniform(-4.2, -1.0, n) * rng.choice([-1.0, 1.0], n)
    ru, rp = 10.0 ** rng.uniform(-1.0, 1.0, (2, n))
    gu = ru[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    theta = phi + np.pi + delta
    gp = rp[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    nu = rng.uniform(0.5, 2.0, n)
    mu = nu + 1.0

    ld = np.longdouble
    two = (np.arctan2(gu[:, 1].astype(ld), gu[:, 0].astype(ld))
           + np.arctan2(gp[:, 1].astype(ld), gp[:, 0].astype(ld)))
    m = (mu.astype(ld) + nu.astype(ld)) / 2
    d = (mu.astype(ld) - nu.astype(ld)) / 2
    exact = np.stack([m + d * np.cos(two), d * np.sin(two),
                      m - d * np.cos(two)], axis=-1)

    def error(kernel):
        out = kernel(gu, gp, mu, nu)
        return float(np.abs(out.astype(ld) - exact).max())

    assert error(optimal_laminate) <= 1e-15
    # the normalized bisector w1 + w2 cancels there
    assert error(ref_optimal_laminate) > 1e-12


component = st.floats(-10.0, 10.0)
vec = st.tuples(component, component)


def laminate(gu, gp, mu, nu):
    return optimal_laminate(np.array(gu), np.array(gp), mu, nu)


def away_from_edges(gu, gp):
    """Neither norm near the vanishing floor and the cosine away from
    the alignment threshold, so that rounding cannot change the class."""
    gu, gp = np.array([gu]), np.array([gp])
    for g in (gu, gp):
        norm = math.hypot(*g[0])
        if norm and abs(norm / _NORM_FLOOR - 1.0) < 1e-6:
            return False
    c = cosines(gu, gp)[1][0]
    return not abs(abs(c) - THRESHOLD) < 1e-12


@settings(max_examples=300, deadline=None)
@given(vec, vec, st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 10.0),
       st.floats(0.0, 10.0))
def test_rotation_equivariance(gu, gp, angle, nu, width):
    assume(away_from_edges(gu, gp))
    mu = nu + width
    a = laminate(gu, gp, mu, nu)
    turned = optimal_laminate(rotated(np.array(gu), angle),
                              rotated(np.array(gp), angle), mu, nu)
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    RAR = R @ np.array([[a[0], a[1]], [a[1], a[2]]]) @ R.T
    expect = [RAR[0, 0], RAR[0, 1], RAR[1, 1]]
    assert np.allclose(turned, expect, rtol=0.0, atol=1e-14 * mu)


@settings(max_examples=300, deadline=None)
@given(vec, vec, st.floats(math.log10(_NORM_FLOOR) + 1e-6, 150.0),
       st.booleans(), st.floats(0.1, 10.0), st.floats(0.0, 10.0))
def test_positive_rescaling_invariance(gu, gp, log_norm, which, nu, width):
    assume(away_from_edges(gu, gp))
    g = np.array(gp if which else gu)
    norm = math.hypot(*g)
    assume(norm >= _NORM_FLOOR)
    scaled = g * (10.0 ** log_norm / norm)
    assume(math.hypot(*scaled) >= _NORM_FLOOR * (1.0 + 1e-6))
    mu = nu + width
    a = laminate(gu, gp, mu, nu)
    b = laminate(gu, scaled, mu, nu) if which else laminate(scaled, gp,
                                                            mu, nu)
    assert np.allclose(b, a, rtol=0.0, atol=1e-14 * mu)
