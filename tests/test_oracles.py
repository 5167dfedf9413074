import math

import numpy as np
import pytest

from coeffopt.oracles import (
    counterexample_fields,
    ex11_ball,
    ex11_dirac,
    ex13_ball,
    ex14_ball,
    radial_ode_residual,
    upsilon,
)


def test_ex11_endpoint_values():
    u0, a0 = ex11_ball(0.0)
    u1, a1 = ex11_ball(1.0)
    assert abs(u0 - 3.0 / (4.0 * 2.0 ** (1.0 / 3.0))) < 1e-15
    assert a0 == 0.0
    assert u1 == 0.0
    assert abs(a1 - 2.0 ** (-2.0 / 3.0)) < 1e-15


def test_ex11_solves_unit_load():
    r = np.linspace(0.05, 0.95, 181)
    res = radial_ode_residual(r, lambda x: ex11_ball(x)[1],
                              u_fn=lambda x: ex11_ball(x)[0])
    assert np.abs(res - 1.0).max() < 1e-5


def test_ex11_self_consistency():
    # the quadratic penalty pins a = |u'|^2 pointwise
    r = np.linspace(0.01, 1.0, 200)
    u, a = ex11_ball(r)
    h = 1e-6
    du = (ex11_ball(r + h)[0] - ex11_ball(r - h)[0]) / (2.0 * h)
    assert np.abs(a - du * du).max() < 1e-8


def test_ex11_dirac_fields():
    u0, _ = ex11_dirac(0.0)
    assert abs(u0 - 3.0 / (16.0 * math.pi) ** (1.0 / 3.0)) < 1e-15
    u1, a1 = ex11_dirac(1.0)
    assert u1 == 0.0
    assert abs(a1 - (2.0 * math.pi) ** (-2.0 / 3.0)) < 1e-15
    # away from the source the flux is divergence free:
    # r a |u'| = const = 1/(2 pi)
    r = np.linspace(0.05, 0.95, 100)
    u, a = ex11_dirac(r)
    h = 1e-7
    du = (ex11_dirac(r + h)[0] - ex11_dirac(r - h)[0]) / (2.0 * h)
    assert np.abs(r * a * np.abs(du) - 1.0 / (2.0 * math.pi)).max() < 1e-7
    res = radial_ode_residual(r, lambda x: ex11_dirac(x)[1],
                              u_fn=lambda x: ex11_dirac(x)[0])
    assert np.abs(res).max() < 1e-4


def test_ex13_fields():
    u0, _ = ex13_ball(0.0)
    assert abs(u0 - 1.0 / 32.0) < 1e-15
    u1, a1 = ex13_ball(1.0)
    assert u1 == 0.0 and a1 == 4.0
    r = np.linspace(0.05, 0.95, 181)
    res = radial_ode_residual(r, lambda x: ex13_ball(x)[1],
                              u_fn=lambda x: ex13_ball(x)[0])
    assert np.abs(res - 1.0).max() < 1e-5
    # inverse-square penalty pins a = |u'|^(-2/3), i.e. a^3 |u'|^2 = 1
    u, a = ex13_ball(r)
    h = 1e-6
    du = (ex13_ball(r + h)[0] - ex13_ball(r - h)[0]) / (2.0 * h)
    assert np.abs(a ** 3 * du * du - 1.0).max() < 1e-6


def test_ex14_frozen_center_value():
    u0, a0, tau = ex14_ball(0.0, 1.0, 2.0, 0.02)
    assert abs(tau - 2.0 * math.sqrt(0.04)) < 1e-15
    assert a0 == 2.0
    assert abs(u0 - 0.23) < 1e-15


def test_ex14_continuity_and_residual():
    alpha, beta, gamma = 1.0, 2.0, 0.05
    _, _, tau = ex14_ball(0.0, alpha, beta, gamma)

    def u_of(x):
        return ex14_ball(x, alpha, beta, gamma)[0]

    # u is continuous across the interface
    eps = 1e-9
    assert abs(u_of(tau - eps) - u_of(tau + eps)) < 1e-7
    # unit load is satisfied on both sides
    r_in = np.linspace(0.05, tau - 0.05, 40)
    r_out = np.linspace(tau + 0.05, 0.95, 40)
    for rr in (r_in, r_out):
        res = radial_ode_residual(
            rr, lambda x: ex14_ball(x, alpha, beta, gamma)[1], u_fn=u_of)
        assert np.abs(res - 1.0).max() < 1e-6


def test_ex14_validates_gamma():
    with pytest.raises(ValueError):
        ex14_ball(0.5, 1.0, 2.0, 0.2)  # tau would exceed 1
    with pytest.raises(ValueError):
        ex14_ball(0.5, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ex14_ball(0.5, 2.0, 1.0, 0.01)


def test_counterexample_fields_branches():
    tau = 0.23539
    a, du = counterexample_fields(0.3, tau)
    assert a == 1.0 and du == -0.15
    a, du = counterexample_fields(0.7, tau)
    assert abs(a - 0.7 / (2.0 * tau)) < 1e-15
    assert du == -tau
    a, du = counterexample_fields(0.95, tau)
    assert a == 2.0 and du == -0.2375
    with pytest.raises(ValueError):
        counterexample_fields(0.5, 0.6)


def test_counterexample_flux_identity():
    # the optimal flux is a |u'| = r/d everywhere, all three branches
    tau = 0.23539
    r = np.linspace(0.01, 1.0, 500)
    a, du = counterexample_fields(r, tau)
    assert np.abs(a * np.abs(du) - r / 2.0).max() < 1e-12


def test_counterexample_solves_unit_load():
    tau = 0.2
    lo, hi = 2.0 * tau, 4.0 * tau
    r = np.linspace(0.02, 0.98, 300)
    r = r[(np.abs(r - lo) > 0.01) & (np.abs(r - hi) > 0.01)]
    res = radial_ode_residual(
        r, lambda x: counterexample_fields(x, tau)[0],
        du_fn=lambda x: counterexample_fields(x, tau)[1])
    assert np.abs(res - 1.0).max() < 1e-8


def test_upsilon_values():
    tau = 0.23539
    assert abs(upsilon(0.4, tau) - 2.0 * tau * 0.4) < 1e-15
    assert abs(upsilon(0.4, tau) - 0.1883120) < 1e-7
    assert abs(upsilon(0.1, tau) - (0.01 + tau * tau)) < 1e-15
    assert abs(upsilon(1.0, tau) - (0.5 + 2.0 * tau * tau)) < 1e-15


def test_upsilon_c1_and_convex():
    tau = 0.3
    s = np.linspace(0.0, 1.2, 2401)
    v = upsilon(s, tau)
    h = 1e-7
    fd = (upsilon(s + h, tau) - upsilon(np.maximum(s - h, 0.0), tau)) / \
        np.where(s - h >= 0.0, 2.0 * h, h)
    # derivative has no jumps (C^1 at both breakpoints)
    assert np.abs(np.diff(fd)).max() < 1e-2
    # convex: secant slopes increase
    assert np.all(np.diff(np.diff(v)) >= -1e-12)
    with pytest.raises(ValueError):
        upsilon(0.5, 0.0)
    with pytest.raises(ValueError):
        upsilon(0.5, float("nan"))


def test_radial_residual_validates():
    with pytest.raises(ValueError):
        radial_ode_residual(np.array([0.5]), lambda x: x)
