"""Two-phase lamination bounds and effective-tensor admissibility.

Mixing phases alpha < beta with volume fraction t of alpha produces the
arithmetic mean mu_t = t alpha + (1-t) beta and the harmonic mean
nu_t = (t/alpha + (1-t)/beta)^{-1}.  A symmetric tensor is an effective
tensor of such a mixture (for some t) iff its eigenvalues satisfy the
d+2 trace inequalities checked by ``is_admissible``; in d = 2 that set
has the closed form returned by ``d2_lambda2_bounds``.  For any d, the
fractions t that satisfy the inequalities form an interval with a
closed form, so ``is_admissible`` needs no search over t: it checks a
witness from that interval (its midpoint, or an end on the boundary of
the set) against the inequalities, with tol bounding their violation,
and takes a stack of spectra in one call.

Tensor storage convention matches fem: (a11, a12, a22) columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lamination_means",
    "d2_lambda2_bounds",
    "is_admissible",
    "eig_sym_2x2",
    "clamp_spectrum",
    "optimal_laminate",
    "optimal_t",
]


_NORM_FLOOR = np.sqrt(np.finfo(float).tiny)

# unit gradients with a dot product within this of +1 (-1) are parallel
# (antiparallel) in ``optimal_laminate``
ALIGNMENT_TOL = 1e-9


def _check_phases(alpha: float, beta: float):
    if not (0.0 < alpha < beta < np.inf):
        raise ValueError(f"phases must satisfy 0 < alpha < beta, got "
                         f"({alpha}, {beta})")


def lamination_means(t, alpha: float, beta: float):
    """(mu_t, nu_t): arithmetic and harmonic means at fraction t of alpha.

    The pair satisfies mu_t + alpha*beta/nu_t = alpha + beta up to
    rounding, and nu_t <= mu_t exactly: at a pure phase the harmonic
    quotient can round one ulp past the phase value, so nu_t is capped
    by mu_t.
    """
    _check_phases(alpha, beta)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("volume fraction t must lie in [0, 1]")
    mu = t * alpha + (1.0 - t) * beta
    nu = np.minimum(alpha * beta / (t * beta + (1.0 - t) * alpha), mu)
    if mu.ndim == 0:
        return float(mu), float(nu)
    return mu, nu


def fraction_from_harmonic(nu, alpha: float, beta: float):
    """Invert nu_t: the fraction t with harmonic mean nu, clipped to [0,1]."""
    _check_phases(alpha, beta)
    nu = np.asarray(np.clip(nu, alpha, beta), dtype=float)
    t = alpha * (beta - nu) / (nu * (beta - alpha))
    t = np.clip(t, 0.0, 1.0)
    return float(t) if t.ndim == 0 else t


def d2_lambda2_bounds(lam1: float, alpha: float, beta: float):
    """Closed-form d=2 admissible range of the second eigenvalue.

    For lam1 in [alpha, beta] the pair (lam1, lam2) is an effective
    two-phase tensor iff

        alpha*beta / (alpha + beta - lam1) <= lam2
                                 <= alpha + beta - alpha*beta / lam1.
    """
    _check_phases(alpha, beta)
    lam1 = np.asarray(lam1, dtype=float)
    if not np.all((lam1 >= alpha) & (lam1 <= beta)):
        raise ValueError("lam1 must lie in [alpha, beta]")
    lo = alpha * beta / (alpha + beta - lam1)
    hi = alpha + beta - alpha * beta / lam1
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def _violation(lams: np.ndarray, t, alpha: float, beta: float):
    """Max constraint violation of the d+2 system at fractions t.

    lams holds one spectrum (d,) or a stack (..., d) along its last
    axis; t broadcasts against the leading shape.  Decreasing-in-t
    constraints (the alpha trace bound, nu_t <= lam_min) and increasing
    ones (the beta trace bound, lam_max <= mu_t) are both folded into
    one envelope, which is therefore quasiconvex in t.
    """
    d = lams.shape[-1]
    s = beta - alpha
    ts = t * s
    with np.errstate(divide="ignore", over="ignore"):
        s_a = np.add.reduce(1.0 / (lams - alpha), axis=-1)
        s_b = np.add.reduce(1.0 / (beta - lams), axis=-1)
        # 1/(nu_t - alpha) + (d-1)/(mu_t - alpha) and the same at beta,
        # in closed form: nu_t - alpha computed from nu_t cancels near
        # t = 1
        r_a = (d + ts / alpha) / (s * (1.0 - t))
        r_b = (alpha / beta + d - 1 + ts / beta) / ts
    v = np.maximum(s_a - r_a, s_b - r_b)
    v = np.maximum(v, alpha * beta / (alpha + ts)
                   - np.minimum.reduce(lams, axis=-1))
    return np.maximum(v, np.maximum.reduce(lams, axis=-1) - (beta - ts))


def is_admissible(eigs, alpha: float, beta: float, tol: float = 1e-9):
    """Whether eigenvalues are realizable by a two-phase mixture.

    Returns (admissible, t) with a witnessing volume fraction t when
    admissible, else (False, None).  A stack of spectra, shape (n, d),
    returns (ok, t) as arrays, t NaN where inadmissible.

    Each of the d+2 trace inequalities is monotone in t and linear once
    its denominators are cleared, so the admissible fractions form an
    interval [t_lo, t_hi] with a closed form for every d.  With
    s = beta - alpha, S_a = sum 1/(lam_i - alpha) and
    S_b = sum 1/(beta - lam_i):

        t >= alpha (beta - lam_min) / (lam_min s)      nu_t <= lam_min
        t >= (S_a s - d) / (s (S_a + 1/alpha))         alpha trace bound
        t <= (beta - lam_max) / s                      lam_max <= mu_t
        t <= (alpha/beta + d - 1) / (s (S_b - 1/beta)) beta trace bound

    (S_b > d/s > 1/beta inside the box, so the last cap is finite.)
    The witness is the midpoint of [t_lo, t_hi] or, when the midpoint
    fails, the better of the two ends, each moved 4 ulps past its own
    bound; all are clipped to [0, 1].  The spectrum is admissible iff
    the max violation of the system at the witness is at most tol, in
    the units of the constraints themselves: tol bounds the violation,
    not the distance to the admissible set.  The ratio of violation to
    distance depends on the phases.  At (alpha, beta) = (1, 2) no d = 2
    pair 1e-9 beyond ``d2_lambda2_bounds`` is accepted; at (1, 10)
    about 35% of such pairs are (6% at 2e-9, none at 3e-9), and at
    (1, 100) 4% even at 3e-9.  A caller that needs a distance band must
    scale tol by the phase contrast: tol * alpha / beta gave that band
    at 1e-9 for all three pairs in a seeded sweep.  The ends matter on the
    boundary of the set, where the interval is one point up to
    rounding: near a pure phase a trace bound is so steep in t that one
    ulp of t moves it by more than tol, and only a candidate strictly
    on its side passes.

    Eigenvalues more than tol outside [alpha, beta] are inadmissible;
    the others are clipped into it.  An eigenvalue at alpha (resp.
    beta), where the trace inequalities degenerate, forces the pure
    phase t = 1 (resp. t = 0): the spectrum is then admissible iff all
    its eigenvalues lie within tol of that phase value.
    """
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
    # rule below replaces them
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
        v = _violation(lams, cand, alpha, beta)
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


def eig_sym_2x2(tcols: np.ndarray):
    """Eigen-decomposition of symmetric 2x2 tensors in column storage.

    Returns (lam1, lam2, cos, sin) with lam1 <= lam2 and (cos, sin) the
    unit eigenvector of lam2.
    """
    tcols = np.asarray(tcols, dtype=float)
    a11, a12, a22 = tcols[..., 0], tcols[..., 1], tcols[..., 2]
    m = 0.5 * (a11 + a22)
    dd = 0.5 * (a11 - a22)
    r = np.hypot(dd, a12)
    lam1, lam2 = m - r, m + r
    theta = 0.5 * np.arctan2(2.0 * a12, a11 - a22)
    return lam1, lam2, np.cos(theta), np.sin(theta)


def clamp_spectrum(tcols: np.ndarray, lo, hi):
    """Clip tensor eigenvalues into [lo, hi], keeping the eigenvectors.

    Works on one tensor (shape (3,)) or a stack (n, 3); lo/hi may be
    scalars or per-tensor arrays.  Rotation-equivariant by construction.
    """
    tcols = np.asarray(tcols, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("clamp bounds must satisfy lo <= hi")
    lam1, lam2, c, s = eig_sym_2x2(tcols)
    l1 = np.clip(lam1, lo, hi)
    l2 = np.clip(lam2, lo, hi)
    out = np.empty_like(tcols)
    out[..., 0] = l2 * c * c + l1 * s * s
    out[..., 1] = (l2 - l1) * c * s
    out[..., 2] = l2 * s * s + l1 * c * c
    return out


def optimal_laminate(grad_u, grad_p, mu, nu):
    """Maximizer of A grad_u . grad_p over the box nu <= spec(A) <= mu.

    Generic gradients get the rank-one laminate with eigenvalue mu
    along the normalized bisector w1 + w2 of the unit gradients and nu
    along w1 - w2.  Where the box pins only the eigenvalue along the
    gradients the free one is completed isotropically: parallel
    gradients (w1 . w2 within ALIGNMENT_TOL of 1) give mu I,
    antiparallel ones (within it of -1) nu I.  A vanishing gradient
    gives nu I; a gradient shorter than sqrt(tiny) (about 1.5e-154)
    counts as vanishing: its squared components are subnormal, so its
    computed norm is inexact and would not normalize it.

    Gradients are single vectors (shape (2,)) or stacks (..., 2); mu
    and nu broadcast against their leading shape and may carry extra
    leading axes, such as one box per slice: the gradient geometry is
    computed once for all of them.  Returns tensors in (a11, a12, a22)
    storage, shape broadcast(leading shapes of the inputs) + (3,).
    """
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


def optimal_t(n_plus, n_minus, g, alpha: float, beta: float):
    """Optimal volume fraction for the relaxed control update.

    With N+ = (|grad u||grad p| + grad u . grad p)/2 and N- the same
    with a minus sign, the per-point maximizer of the lamination
    Hamiltonian is

        t = 0                                   g <  N+ - (beta/alpha) N-
        t = (sqrt(alpha beta N- / (N+ - g)) - alpha) / (beta - alpha)
                                                on the middle band
        t = 1                                   g >  N+ - (alpha/beta) N-

    The middle expression is clipped to [0, 1]; a vanishing N+ - g
    inside the band (only possible with N- = 0) falls through to t = 1.
    """
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
