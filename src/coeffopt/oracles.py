"""Radial closed-form solutions used as reference oracles.

All formulas live on the unit ball with homogeneous Dirichlet data.
``radial_ode_residual`` provides an independent finite-difference check
that a (u, a) pair satisfies -div(a grad u) = f away from breakpoints.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ex11_ball",
    "ex11_dirac",
    "ex13_ball",
    "ex14_ball",
    "counterexample_fields",
    "upsilon",
    "radial_ode_residual",
]


def ex11_ball(r, d: int = 2):
    """Quadratic-penalty optimum for f = 1.

    u(r) = 3/(4 d^(1/3)) (1 - r^(4/3)),  a(r) = r^(2/3) / d^(2/3).
    Returns (u, a).
    """
    r = np.asarray(r, dtype=float)
    u = 3.0 / (4.0 * d ** (1.0 / 3.0)) * (1.0 - r ** (4.0 / 3.0))
    a = r ** (2.0 / 3.0) / d ** (2.0 / 3.0)
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


def ex13_ball(r, d: int = 2):
    """Inverse-square-penalty optimum for f = 1.

    u(r) = (1 - r^4) / (4 d^3),  a(r) = d^2 / r^2 (singular at r = 0).
    Returns (u, a).
    """
    r = np.asarray(r, dtype=float)
    u = (1.0 - r ** 4) / (4.0 * d ** 3)
    with np.errstate(divide="ignore"):
        a = d ** 2 / r ** 2
    if u.ndim == 0:
        return float(u), float(a)
    return u, a


def ex14_ball(r, alpha: float, beta: float, gamma: float, d: int = 2):
    """Two-phase optimum of the affine-box energy problem for f = 1.

    The interface sits at tau = d sqrt(alpha beta gamma) (requires
    gamma < 1/(d^2 alpha beta) so tau < 1); the stiff phase beta fills
    r < tau and the soft phase alpha fills r > tau:

        u(r) = (1-tau^2)(beta-alpha)/(2 d alpha beta)
               + (1-r^2)/(2 d beta)            r <= tau
        u(r) = (1-r^2)/(2 d alpha)             r >  tau

    Returns (u, a, tau).
    """
    if not (0.0 < alpha < beta):
        raise ValueError("phases must satisfy 0 < alpha < beta")
    if not (0.0 < gamma < 1.0 / (d * d * alpha * beta)):
        raise ValueError(
            f"gamma must lie in (0, 1/(d^2 alpha beta)) = "
            f"(0, {1.0 / (d * d * alpha * beta):.6g}), got {gamma}"
        )
    tau = d * math.sqrt(alpha * beta * gamma)
    r = np.asarray(r, dtype=float)
    inner = (1.0 - tau * tau) * (beta - alpha) / (2.0 * d * alpha * beta) \
        + (1.0 - r * r) / (2.0 * d * beta)
    outer = (1.0 - r * r) / (2.0 * d * alpha)
    u = np.where(r <= tau, inner, outer)
    a = np.where(r <= tau, beta, alpha)
    if u.ndim == 0:
        return float(u), float(a), tau
    return u, a, tau


def counterexample_fields(r, tau: float, d: int = 2):
    """Classical optimum (a0, u0') of the threshold problem at epsilon = 0.

    For psi(s) = tau^2 s on [1, 2] with 0 < tau < 1/d and f = 1 the
    optimal pair is radial with |flux| = r/d throughout:

        a0 = 1,        u0' = -r/d        r <  d tau
        a0 = r/(d tau), u0' = -tau       d tau <= r <= 2 d tau
        a0 = 2,        u0' = -r/(2 d)    r >  2 d tau

    Returns (a0, du0).
    """
    if not (0.0 < tau < 1.0 / d):
        raise ValueError(f"tau must lie in (0, 1/{d}), got {tau}")
    r = np.asarray(r, dtype=float)
    lo, hi = d * tau, 2.0 * d * tau
    a0 = np.where(r < lo, 1.0, np.where(r <= hi, r / (d * tau), 2.0))
    du0 = np.where(r < lo, -r / d, np.where(r <= hi, -tau, -r / (2.0 * d)))
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


def radial_ode_residual(r, a_fn, d: int = 2, u_fn=None, du_fn=None,
                        h: float = 1e-4):
    """Finite-difference residual of -(r^(d-1) a u')' / r^(d-1).

    Evaluates the radial operator with central differences only, so the
    check is independent of any closed-form derivative.  Supply either
    u_fn (u' is then approximated by differences) or du_fn directly.
    Points within a few h of breakpoints of a or u should be excluded
    by the caller.
    """
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
        return x ** (d - 1) * a_fn(x) * du(x)

    dflux = (flux(r + h) - flux(r - h)) / (2.0 * h)
    return -dflux / r ** (d - 1)
