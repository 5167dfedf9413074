"""Radial closed-form solutions used as reference oracles.

All formulas live on the unit disk with homogeneous Dirichlet data.
``radial_ode_residual`` provides an independent finite-difference check
that a (u, a) pair satisfies -div(a grad u) = f away from breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .gclosure import _check_phases
from .penalty import _check_tau

__all__ = [
    "ex11_ball",
    "ex11_dirac",
    "ex13_ball",
    "ex14_ball",
    "counterexample_fields",
    "upsilon",
    "radial_ode_residual",
]


def ex11_ball(r):
    """Quadratic-penalty optimum for f = 1.

    u(r) = 3/(4 * 2^(1/3)) (1 - r^(4/3)),  a(r) = r^(2/3) / 2^(2/3).
    Returns (u, a).
    """
    r = np.asarray(r, dtype=float)
    u = 3.0 / (4.0 * 2 ** (1.0 / 3.0)) * (1.0 - r ** (4.0 / 3.0))
    a = r ** (2.0 / 3.0) / 2 ** (2.0 / 3.0)
    if u.ndim == 0:
        return float(u), float(a)
    return u, a


def ex11_dirac(r):
    """Quadratic-penalty optimum for a unit point source at the origin, d = 2.

    u(r) = 3/(16 pi)^(1/3) (1 - r^(2/3)),  a(r) = (2 pi r)^(-2/3).
    Returns (u, a); a is singular at r = 0.
    """
    r = np.asarray(r, dtype=float)
    u = 3.0 / (16.0 * math.pi) ** (1.0 / 3.0) * (1.0 - r ** (2.0 / 3.0))
    with np.errstate(divide="ignore"):
        a = (2.0 * math.pi * r) ** (-2.0 / 3.0)
    if u.ndim == 0:
        return float(u), float(a)
    return u, a


def ex13_ball(r):
    """Inverse-square-penalty optimum for f = 1.

    u(r) = (1 - r^4) / 32,  a(r) = 4 / r^2 (singular at r = 0).
    Returns (u, a).
    """
    r = np.asarray(r, dtype=float)
    u = (1.0 - r ** 4) / 32.0
    with np.errstate(divide="ignore"):
        a = 4.0 / r ** 2
    if u.ndim == 0:
        return float(u), float(a)
    return u, a


def ex14_ball(r, alpha: float, beta: float, gamma: float):
    """Two-phase optimum of the affine-box energy problem for f = 1.

    The interface sits at tau = 2 sqrt(alpha beta gamma) (requires
    gamma < 1/(4 alpha beta) so tau < 1); the stiff phase beta fills
    r < tau and the soft phase alpha fills r > tau:

        u(r) = (1-tau^2)(beta-alpha)/(4 alpha beta)
               + (1-r^2)/(4 beta)              r <= tau
        u(r) = (1-r^2)/(4 alpha)               r >  tau

    Returns (u, a, tau).
    """
    _check_phases(alpha, beta)
    if not (0.0 < gamma < 1.0 / (4 * alpha * beta)):
        raise ValueError(
            f"gamma must lie in (0, 1/(4 alpha beta)) = "
            f"(0, {1.0 / (4 * alpha * beta):.6g}), got {gamma}"
        )
    tau = 2 * math.sqrt(alpha * beta * gamma)
    r = np.asarray(r, dtype=float)
    inner = (1.0 - tau * tau) * (beta - alpha) / (4.0 * alpha * beta) \
        + (1.0 - r * r) / (4.0 * beta)
    outer = (1.0 - r * r) / (4.0 * alpha)
    u = np.where(r <= tau, inner, outer)
    a = np.where(r <= tau, beta, alpha)
    if u.ndim == 0:
        return float(u), float(a), tau
    return u, a, tau


def counterexample_fields(r, tau: float):
    """Classical optimum (a0, u0') of the threshold problem at epsilon = 0.

    For psi(s) = tau^2 s on [1, 2] with 0 < tau < 1/2 and f = 1 the
    optimal pair is radial with |flux| = r/2 throughout:

        a0 = 1,        u0' = -r/2        r <  2 tau
        a0 = r/(2 tau), u0' = -tau       2 tau <= r <= 4 tau
        a0 = 2,        u0' = -r/4        r >  4 tau

    Returns (a0, du0).
    """
    _check_tau(tau)
    r = np.asarray(r, dtype=float)
    lo, hi = 2 * tau, 4.0 * tau
    a0 = np.where(r < lo, 1.0, np.where(r <= hi, r / (2 * tau), 2.0))
    du0 = np.where(r < lo, -r / 2, np.where(r <= hi, -tau, -r / 4.0))
    if a0.ndim == 0:
        return float(a0), float(du0)
    return a0, du0


def upsilon(s, tau: float):
    """Convexified flux density of the threshold problem.

    Upsilon(s) = s^2 + tau^2   on s <  tau
               = 2 tau s       on tau <= s <= 2 tau
               = s^2/2 + 2 tau^2  on s > 2 tau

    Continuous, convex, C^1 at both breakpoints.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    s = np.asarray(s, dtype=float)
    vals = np.where(
        s < tau,
        s * s + tau * tau,
        np.where(s <= 2.0 * tau, 2.0 * tau * s, 0.5 * s * s + 2.0 * tau * tau),
    )
    return float(vals) if vals.ndim == 0 else vals


def radial_ode_residual(r, a_fn, u_fn=None, du_fn=None):
    """Finite-difference residual of -(r a u')' / r.

    Evaluates the radial operator with central differences of step
    h = 1e-4 only, so the check is independent of any closed-form
    derivative.  Supply either u_fn (u' is then approximated by
    differences) or du_fn directly.  Points within a few h of
    breakpoints of a or u should be excluded by the caller.
    """
    h = 1e-4
    r = np.asarray(r, dtype=float)
    if du_fn is None:
        if u_fn is None:
            raise ValueError("need u_fn or du_fn")

        def du_fd(x):
            return (u_fn(x + h) - u_fn(x - h)) / (2.0 * h)

        du = du_fd
    else:
        du = du_fn

    def flux(x):
        return x * a_fn(x) * du(x)

    dflux = (flux(r + h) - flux(r - h)) / (2.0 * h)
    return -dflux / r
