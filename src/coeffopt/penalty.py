"""Penalty family psi(a), Fenchel conjugates, and the convex hull phi.

Four variants are supported, identified by the ``variant`` tag of a
PenaltySpec:

    quadratic        psi(s) = s^2 / 2            on s > 0
    inverse-square   psi(s) = 1 / (2 s^2)        on s > 0
    linear-box       psi(s) = gamma * s          on [alpha, beta]
    affine-box       psi(s) = gamma * (beta - s) on [alpha, beta]

The threshold counterexample penalty tau^2 * s on [1, 2] is a
linear-box instance, see ``counterexample_penalty``.

The ``half`` flag records whether the optimized functional carries
psi/2 instead of psi (the energy track does, the compliance track does
not).  Evaluation and derivatives here are always of the bare psi; cost
assembly applies the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PenaltySpec",
    "counterexample_penalty",
    "PROJECTION_FLOOR",
    "RECOVERY_CAP",
    "psi_eval",
    "psi_prime",
    "psi_conjugate",
    "phi_eval",
    "phi_prime",
    "project_to_domain",
    "recover_coefficient",
    "recover_from_flux",
]

VARIANTS = ("quadratic", "inverse-square", "linear-box", "affine-box")
_BOX_VARIANTS = ("linear-box", "affine-box")

# coefficient floor for the unbounded variants and cap for the
# inverse-square recovery rule at vanishing gradients
PROJECTION_FLOOR = 1e-8
RECOVERY_CAP = 1e8


def _check_box(alpha, beta, gamma):
    """The box parameters: 0 < alpha < beta < inf and 0 < gamma < inf."""
    if not (0.0 < alpha < beta < np.inf):
        raise ValueError(
            f"box penalty needs 0 < alpha < beta, got ({alpha}, {beta})"
        )
    if gamma is None or not (0.0 < gamma < np.inf):
        raise ValueError("box penalty needs gamma > 0")


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty variant plus its parameters.

    alpha, beta bound the box variants (0 < alpha < beta < inf); gamma
    is the weight of the box variants, finite and positive.  half=True marks the psi/2 convention
    of the energy track.
    """

    variant: str
    alpha: float = 1.0
    beta: float = 2.0
    gamma: float | None = None
    half: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown penalty variant {self.variant!r}; "
                f"expected one of {VARIANTS}"
            )
        if self.variant in _BOX_VARIANTS:
            _check_box(self.alpha, self.beta, self.gamma)

    @property
    def is_box(self) -> bool:
        return self.variant in _BOX_VARIANTS


def counterexample_penalty(tau: float, d: int = 2) -> PenaltySpec:
    """psi(s) = tau^2 * s on [1, 2]; requires 0 < tau < 1/d."""
    if not (0.0 < tau < 1.0 / d):
        raise ValueError(f"tau must lie in (0, 1/{d}), got {tau}")
    return PenaltySpec("linear-box", alpha=1.0, beta=2.0, gamma=tau * tau)


def _in_domain(spec: PenaltySpec, a):
    if spec.is_box:
        return (a >= spec.alpha) & (a <= spec.beta)
    return a > 0.0


def psi_eval(spec: PenaltySpec, a, strict: bool = True):
    """psi(a), elementwise.

    Outside the variant's domain the value is +inf when strict=False
    and a ValueError when strict=True.
    """
    a = np.asarray(a, dtype=float)
    ok = _in_domain(spec, a)
    if strict and not np.all(ok):
        bad = np.atleast_1d(a)[~np.atleast_1d(ok)][0]
        raise ValueError(
            f"coefficient {bad!r} outside the domain of {spec.variant!r}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.variant == "quadratic":
            vals = 0.5 * a * a
        elif spec.variant == "inverse-square":
            vals = 0.5 / (a * a)
        elif spec.variant == "linear-box":
            vals = spec.gamma * a
        else:  # affine-box
            vals = spec.gamma * (spec.beta - a)
    vals = np.where(ok, vals, np.inf)
    return float(vals) if vals.ndim == 0 else vals


def psi_prime(spec: PenaltySpec, a):
    """d psi / d a, elementwise (one-sided at box bounds)."""
    a = np.asarray(a, dtype=float)
    if spec.variant == "quadratic":
        vals = a
    elif spec.variant == "inverse-square":
        vals = -1.0 / (a * a * a)
    elif spec.variant == "linear-box":
        vals = np.full_like(a, spec.gamma)
    else:
        vals = np.full_like(a, -spec.gamma)
    return float(vals) if vals.ndim == 0 else vals


def psi_conjugate(spec: PenaltySpec, s):
    """Legendre-Fenchel conjugate psi*(s) = sup_a (a s - psi(a)).

    quadratic       s^2/2 (self-conjugate)
    inverse-square  -(3/2) |s|^(2/3) for s <= 0, +inf for s > 0
    linear-box      alpha (s - gamma) for s <= gamma, else beta (s - gamma)
    affine-box      beta s for s >= -gamma, else alpha s - gamma (beta - alpha)
    """
    s = np.asarray(s, dtype=float)
    if spec.variant == "quadratic":
        vals = 0.5 * s * s
    elif spec.variant == "inverse-square":
        vals = np.where(s > 0.0, np.inf, -1.5 * np.abs(s) ** (2.0 / 3.0))
    elif spec.variant == "linear-box":
        vals = np.where(s <= spec.gamma,
                        spec.alpha * (s - spec.gamma),
                        spec.beta * (s - spec.gamma))
    else:
        vals = np.where(s >= -spec.gamma,
                        spec.beta * s,
                        spec.alpha * s - spec.gamma * (spec.beta - spec.alpha))
    return float(vals) if vals.ndim == 0 else vals


def phi_eval(s, alpha: float, beta: float, gamma: float):
    """Convex hull phi(s) of the relaxed two-phase energy density.

    Three C^1 branches in s >= 0, switching at s^2 = (alpha/beta) gamma
    and s^2 = (beta/alpha) gamma:

        beta s^2                           (small gradients)
        2 sqrt(alpha beta gamma) s - alpha gamma   (lamination band)
        alpha s^2 + gamma (beta - alpha)   (large gradients)

    The parameters satisfy the box rule of ``PenaltySpec``
    (0 < alpha < beta < inf, 0 < gamma < inf), else ValueError.
    """
    _check_box(alpha, beta, gamma)
    s = np.asarray(s, dtype=float)
    s2 = s * s
    lo = (alpha / beta) * gamma
    hi = (beta / alpha) * gamma
    root = 2.0 * math.sqrt(alpha * beta * gamma)
    vals = np.where(
        s2 <= lo,
        beta * s2,
        np.where(s2 >= hi,
                 alpha * s2 + gamma * (beta - alpha),
                 root * s - alpha * gamma),
    )
    return float(vals) if vals.ndim == 0 else vals


def phi_prime(s, alpha: float, beta: float, gamma: float):
    """Derivative of phi; constant 2 sqrt(alpha beta gamma) on the band."""
    _check_box(alpha, beta, gamma)
    s = np.asarray(s, dtype=float)
    s2 = s * s
    lo = (alpha / beta) * gamma
    hi = (beta / alpha) * gamma
    root = 2.0 * math.sqrt(alpha * beta * gamma)
    vals = np.where(s2 <= lo, 2.0 * beta * s,
                    np.where(s2 >= hi, 2.0 * alpha * s, root))
    return float(vals) if vals.ndim == 0 else vals


def project_to_domain(spec: PenaltySpec, a):
    """Project a coefficient field onto the variant's domain.

    Box variants clip to [alpha, beta]; the unbounded variants clip to
    the positive floor so assembled systems stay elliptic.
    """
    a = np.asarray(a, dtype=float)
    if spec.is_box:
        vals = np.clip(a, spec.alpha, spec.beta)
    else:
        vals = np.maximum(a, PROJECTION_FLOOR)
    return float(vals) if vals.ndim == 0 else vals


def recover_coefficient(spec: PenaltySpec, grad_sq):
    """Pointwise optimal coefficient from |grad u|^2.

    quadratic       a = |grad u|^2
    inverse-square  a = |grad u|^(-2/3), capped at RECOVERY_CAP
    linear-box      a = alpha where |grad u|^2 <= gamma, else beta
                    (the tie at equality resolves to alpha)
    affine-box      a = phi'(|grad u|) / (2 |grad u|), beta at grad u = 0
    """
    g = np.asarray(grad_sq, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("grad_sq must be nonnegative")
    if spec.variant == "quadratic":
        vals = g.copy()
    elif spec.variant == "inverse-square":
        with np.errstate(divide="ignore"):
            vals = np.where(g > 0.0, g ** (-1.0 / 3.0), np.inf)
        vals = np.minimum(vals, RECOVERY_CAP)
    elif spec.variant == "linear-box":
        vals = np.where(g > spec.gamma, spec.beta, spec.alpha)
    else:
        s = np.sqrt(g)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(
                s > 0.0,
                phi_prime(s, spec.alpha, spec.beta, spec.gamma) / (2.0 * s),
                spec.beta,
            )
    return float(vals) if vals.ndim == 0 else vals


def recover_from_flux(spec: PenaltySpec, flux_norm):
    """Pointwise minimizer of |sigma|^2 / a + psi(a) over the domain.

    linear-box: a = clip(|sigma| / sqrt(gamma), alpha, beta); with the
    counterexample weight gamma = tau^2 this is the |sigma|/tau rule.
    quadratic: a = |sigma|^(2/3).
    """
    s = np.asarray(flux_norm, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError("flux_norm must be nonnegative")
    if spec.variant == "linear-box":
        vals = np.clip(s / math.sqrt(spec.gamma), spec.alpha, spec.beta)
    elif spec.variant == "quadratic":
        vals = s ** (2.0 / 3.0)
    else:
        raise ValueError(
            f"flux recovery is defined for linear-box and quadratic "
            f"penalties, not {spec.variant!r}"
        )
    return float(vals) if vals.ndim == 0 else vals
