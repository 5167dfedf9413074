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
the set) against the inequalities, with tol bounding their violation.
Its callers pass one spectrum at a time, so it works in Python float
arithmetic, with no array per spectrum; a stack is a loop over rows.

The pointwise kernels of the laminate update (``lamination_means``,
``optimal_t``, ``optimal_laminate`` and ``clamp_spectrum``) run over
consecutive blocks of ``_BLOCK`` cells into one preallocated output, so
their temporaries stay in cache on a large stack; they write into the
block's output and reuse its temporaries in place.  Each cell's
arithmetic keeps its order, so the result equals that of one pass over
the whole stack bit for bit.  Each block checks its own inputs, mostly
on values it computes anyway (squared norms, the box, the spectrum's
centre and radius), so no check makes a pass over the whole stack; a
raise discards the partly filled output.  ``clamp_spectrum`` rescales
the deviator of each tensor, so it needs no eigenvector, and
``optimal_laminate`` builds the laminate from the doubled bisector
angle, so it normalizes no vector.

Tensor storage convention matches fem: (a11, a12, a22) columns.
"""

from __future__ import annotations

import math

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


_TINY = np.finfo(float).tiny
_NORM_FLOOR = np.sqrt(_TINY)

# unit gradients with a dot product within this of +1 (-1) are parallel
# (antiparallel) in ``optimal_laminate``
ALIGNMENT_TOL = 1e-9

# cells per block of the pointwise kernels: a block's temporaries stay
# in cache, where whole-stack ones would stream through memory
_BLOCK = 8192


def _check_phases(alpha: float, beta: float):
    if not (0.0 < alpha < beta < np.inf):
        raise ValueError(f"phases must satisfy 0 < alpha < beta, got "
                         f"({alpha}, {beta})")


def _by_blocks(kernel, out, *args):
    """Fill out with kernel(out_block, *arg_blocks), _BLOCK cells at a time.

    out and each argument come as (array, k) pairs: the cell axis is the
    one before the last k (component) axes.  An argument with no cell
    axis gains one of length 1; it, and any argument whose cell axis has
    length 1, broadcasts and goes whole to every block.  A single cell
    (out with no cell axis) is one block of one cell.  So a kernel sees
    arrays only, and may write its temporaries in place.  The kernels
    are elementwise, so each cell's result is that of one whole-stack
    call bit for bit.  A kernel checks its own block's inputs; a raise
    discards the partly filled output.
    """
    out_arr, k = out
    whole = out_arr if out_arr.ndim > k else out_arr[None]
    args = [(a if a.ndim > j else a[None], j) for a, j in args]
    for start in range(0, whole.shape[-1 - k], _BLOCK):
        cells = slice(start, start + _BLOCK)
        kernel(whole[(..., cells) + (slice(None),) * k],
               *(a if a.shape[-1 - j] == 1
                 else a[(..., cells) + (slice(None),) * j] for a, j in args))
    return out_arr


def lamination_means(t, alpha: float, beta: float):
    """(mu_t, nu_t): arithmetic and harmonic means at fraction t of alpha.

    The pair satisfies mu_t + alpha*beta/nu_t = alpha + beta up to
    rounding, and nu_t <= mu_t exactly: at a pure phase the harmonic
    quotient can round one ulp past the phase value, so nu_t is capped
    by mu_t.
    """
    _check_phases(alpha, beta)
    t = np.asarray(t, dtype=float)

    def block(out, t):
        # min and max propagate NaN, which fails both comparisons
        if not (t.min() >= 0.0 and t.max() <= 1.0):
            raise ValueError("volume fraction t must lie in [0, 1]")
        # slices, not unpacking: for one t, out is the pair (mu, nu)
        mu, nu = out[:1], out[1:]
        rest = 1.0 - t
        np.multiply(t, alpha, out=mu)
        mu += np.multiply(rest, beta, out=nu)
        np.multiply(t, beta, out=nu)
        rest *= alpha
        nu += rest
        np.divide(alpha * beta, nu, out=nu)
        np.minimum(nu, mu, out=nu)

    mu, nu = _by_blocks(block, (np.empty((2,) + t.shape), 0), (t, 0))
    if t.ndim == 0:
        return float(mu), float(nu)
    return mu, nu


def fraction_from_harmonic(nu, alpha: float, beta: float):
    """Invert nu_t: the fraction t with harmonic mean nu, clipped to [0,1]."""
    _check_phases(alpha, beta)
    if np.any(np.isnan(nu)):
        raise ValueError("nu must not be NaN")
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


def _div(a: float, b: float) -> float:
    """a / b, with the IEEE (and NumPy) result at b = +-0, where Python
    raises: +-inf, or NaN for 0/0 and NaN/0."""
    if b:
        return a / b
    return a * math.copysign(math.inf, b) if a else math.nan


# NumPy's maximum and minimum on floats: a NaN in either argument wins
# (the builtins drop it unless it comes first), and a tie, which only
# +-0 can tell apart, returns the second argument
def _max(a: float, b: float) -> float:
    return a if a > b or a != a else b


def _min(a: float, b: float) -> float:
    return a if a < b or a != a else b


def _violation(t: float, alpha: float, beta: float, d: int, s_a: float,
               s_b: float, lam_min: float, lam_max: float) -> float:
    """Max constraint violation of the d+2 system at the fraction t.

    s_a = sum 1/(lam_i - alpha), s_b = sum 1/(beta - lam_i), lam_min and
    lam_max describe one spectrum.  Decreasing-in-t constraints (the
    alpha trace bound, nu_t <= lam_min) and increasing ones (the beta
    trace bound, lam_max <= mu_t) are both folded into one envelope,
    which is therefore quasiconvex in t.  At t = 1 (t = 0) the closed
    form of the alpha (beta) trace bound divides by zero and its term
    reads -inf.
    """
    s = beta - alpha
    ts = t * s
    # 1/(nu_t - alpha) + (d-1)/(mu_t - alpha) and the same at beta, in
    # closed form: nu_t - alpha computed from nu_t cancels near t = 1
    r_a = _div(d + ts / alpha, s * (1.0 - t))
    r_b = _div(alpha / beta + d - 1 + ts / beta, ts)
    v = _max(s_a - r_a, s_b - r_b)
    v = _max(v, alpha * beta / (alpha + ts) - lam_min)
    return _max(v, lam_max - (beta - ts))


def _admissible(lams: list, alpha: float, beta: float, tol: float):
    """(ok, t) of one spectrum, a list of Python floats, with float
    phases and tol; t is NaN when not ok."""
    if any(x != x for x in lams):
        return False, math.nan
    lams = sorted(lams)
    if not (lams[0] >= alpha - tol and lams[-1] <= beta + tol):
        return False, math.nan
    lams = [min(max(x, alpha), beta) for x in lams]
    lo, hi = lams[0], lams[-1]
    if lo <= alpha or hi >= beta:
        # a pure phase: t = 1 at alpha, t = 0 at beta
        if hi <= alpha + tol:
            return True, 1.0
        if lo >= beta - tol:
            return True, 0.0
        return False, math.nan
    d = len(lams)
    s = beta - alpha
    # left to right, the order in which NumPy sums fewer than 8 terms
    s_a = s_b = 0.0
    for x in lams:
        s_a += 1.0 / (x - alpha)
        s_b += 1.0 / (beta - x)
    # lo * s underflows to 0 when both are below about 1e-162; the other
    # denominators are at least about 1
    t_lo = _max(_div(alpha * (beta - lo), lo * s),
                (s_a * s - d) / (s * (s_a + 1.0 / alpha)))
    t_hi = _min((beta - hi) / s,
                (alpha / beta + d - 1) / (s * (s_b - 1.0 / beta)))
    # t_lo and t_hi are nonnegative and finite, or NaN, where math.ulp
    # is np.spacing
    t_mid = _min(_max(0.5 * (t_lo + t_hi), 0.0), 1.0)
    t_lo = _min(_max(t_lo + 4.0 * math.ulp(t_lo), 0.0), 1.0)
    t_hi = _min(_max(t_hi - 4.0 * math.ulp(t_hi), 0.0), 1.0)
    v_mid = _violation(t_mid, alpha, beta, d, s_a, s_b, lo, hi)
    v_lo = _violation(t_lo, alpha, beta, d, s_a, s_b, lo, hi)
    v_hi = _violation(t_hi, alpha, beta, d, s_a, s_b, lo, hi)
    if not _min(_min(v_mid, v_lo), v_hi) <= tol:
        return False, math.nan
    if v_mid <= tol:
        return True, t_mid
    return True, t_lo if v_lo <= v_hi else t_hi


def is_admissible(eigs, alpha: float, beta: float, tol: float = 1e-9):
    """Whether eigenvalues are realizable by a two-phase mixture.

    Returns (admissible, t) with a witnessing volume fraction t when
    admissible, else (False, None).  A stack of spectra, shape (n, d),
    returns (ok, t) as arrays, t NaN where inadmissible; it is a Python
    loop over its rows.  One spectrum is a few dozen float operations
    with no NumPy call past reading eigs: about 4 us in CPython 3.11 on
    a 2-core Xeon VM.

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

    Eigenvalues more than tol outside [alpha, beta] are inadmissible,
    and so is a spectrum with a NaN; the others are clipped into it.
    An eigenvalue at alpha (resp. beta), where the trace inequalities
    degenerate, forces the pure phase t = 1 (resp. t = 0): the spectrum
    is then admissible iff all its eigenvalues lie within tol of that
    phase value.  tol must be finite and nonnegative.

    The answers and witnesses are those of the same formulas evaluated
    in NumPy arrays, bit for bit, for d <= 7: the sums S_a and S_b run
    left to right, which is NumPy's order below 8 terms.  Every caller
    passes d <= 4.
    """
    _check_phases(alpha, beta)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    lams = np.asarray(eigs, dtype=float)
    if lams.ndim not in (1, 2) or lams.shape[-1] < 2:
        raise ValueError("need at least two eigenvalues (or a stack (n, d))")
    alpha, beta, tol = float(alpha), float(beta), float(tol)
    if lams.ndim == 2:
        rows = [_admissible(row, alpha, beta, tol) for row in lams.tolist()]
        return (np.array([ok for ok, _ in rows], dtype=bool),
                np.array([t for _, t in rows], dtype=float))
    ok, t = _admissible(lams.tolist(), alpha, beta, tol)
    return (True, t) if ok else (False, None)


def eig_sym_2x2(tcols: np.ndarray):
    """Eigenvalues (lam1, lam2), lam1 <= lam2, of symmetric 2x2 tensors
    in column storage: m -+ hypot(dd, a12), with m = (a11 + a22) / 2
    and dd = (a11 - a22) / 2, so no sum cancels in the spread."""
    tcols = np.asarray(tcols, dtype=float)
    a11, a12, a22 = tcols[..., 0], tcols[..., 1], tcols[..., 2]
    m = 0.5 * (a11 + a22)
    r = np.hypot(0.5 * (a11 - a22), a12)
    return m - r, m + r


def clamp_spectrum(tcols: np.ndarray, lo, hi):
    """Clip tensor eigenvalues into [lo, hi], keeping the eigenvectors.

    Works on one tensor (shape (3,)) or a stack (n, 3); lo/hi may be
    scalars or per-tensor arrays.  Rotation-equivariant by construction:
    with A = m I + D, D traceless and |D| = r (so the eigenvalues are
    m -+ r), the clipped eigenvalues m' -+ k give m' I + (k / r) D, with
    no eigenvector and no trigonometry: about 23 ns a tensor on a 2-core
    Xeon VM (10^6 tensors, min of 15 calls), most of it in np.hypot.
    Where r = 0 both eigenvalues clip alike, k = 0 and A stays
    isotropic.  A tensor or bound that is not finite, or lo > hi, raises
    ValueError.
    """
    tcols = np.asarray(tcols, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def block(out, tcols, lo, hi):
        # min and max propagate NaN, which fails both comparisons; an
        # infinite bound gives an infinite or NaN width
        width = hi - lo
        if not (width.min() >= 0.0 and width.max() < np.inf):
            raise ValueError("clamp bounds must be finite and satisfy "
                             "lo <= hi")
        a11, a12, a22 = tcols[..., 0], tcols[..., 1], tcols[..., 2]
        m = a11 + a22
        m *= 0.5
        dd = a11 - a22
        dd *= 0.5
        r = np.hypot(dd, a12)
        l1 = np.clip(m - r, lo, hi)
        # m + r is finite iff the tensor is (short of overflow), and
        # can be +inf or NaN but not -inf: an infinite a11 or a22 makes
        # r infinite too
        m += r
        if not m.max() < np.inf:
            raise ValueError("tensors must be finite")
        l2 = np.clip(m, lo, hi)
        r *= 2.0
        q = l2 - l1
        q /= np.maximum(r, _TINY, out=r)  # k / r
        l1 += l2
        l1 *= 0.5  # m'
        np.multiply(q, a12, out=out[..., 1])
        q *= dd
        np.add(l1, q, out=out[..., 0])
        np.subtract(l1, q, out=out[..., 2])

    out = np.empty(np.broadcast_shapes(tcols.shape[:-1], lo.shape, hi.shape)
                   + (3,))
    # an infinite tensor gives inf - inf before its check raises
    with np.errstate(invalid="ignore"):
        return _by_blocks(block, (out, 1), (tcols, 1), (lo, 0), (hi, 0))


def optimal_laminate(grad_u, grad_p, mu, nu):
    """Maximizer of A grad_u . grad_p over the box nu <= spec(A) <= mu.

    Generic gradients get the rank-one laminate with eigenvalue mu
    along the bisector of the unit gradients and nu across it.  With m,
    d = (mu +- nu) / 2 and theta the bisector's angle, that laminate is

        m I + d [[cos 2 theta, sin 2 theta], [sin 2 theta, -cos 2 theta]],

    and the doubled angle is the sum of the gradients' angles:
    cos 2 theta = (u_x p_x - u_y p_y) / (|u||p|) and sin 2 theta =
    (u_x p_y + u_y p_x) / (|u||p|).  No vector is normalized and no sum
    of unit vectors is formed, so nothing cancels near antiparallel
    gradients: a box of width 1 is within 1e-15 of an extended-precision
    reference there, where the normalized bisector w1 + w2 lost up to
    4e-12.  Where the box pins only the eigenvalue along the gradients
    the free one is completed isotropically: parallel gradients (c =
    u . p / (|u||p|) within ALIGNMENT_TOL of 1) give mu I, antiparallel
    ones (within it of -1) nu I.  A vanishing gradient gives nu I; a
    gradient shorter than sqrt(tiny) (about 1.5e-154) counts as
    vanishing: its squared components are subnormal, so its computed
    norm is inexact.  Two gradients past that floor have |u||p| >= tiny,
    so no quotient goes subnormal.

    Gradients are single vectors (shape (2,)) or stacks (..., 2); mu
    and nu broadcast against their leading shape and may carry extra
    leading axes, such as one box per slice: the gradient geometry is
    computed once for all of them.  Returns tensors in (a11, a12, a22)
    storage, shape broadcast(leading shapes of the inputs) + (3,).  A
    gradient component or box value that is not finite, a gradient
    whose squared norm overflows (norm above about 1e154), or nu > mu
    raises ValueError.
    """
    gu = np.asarray(grad_u, dtype=float)
    gp = np.asarray(grad_p, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)

    def block(out, gu, gp, mu, nu):
        d = mu - nu
        d *= 0.5
        # an infinite or NaN mu or nu leaves d infinite or NaN, and min
        # and max propagate NaN, which fails both comparisons
        if not (d.min() >= 0.0 and d.max() < np.inf):
            raise ValueError("the box must be finite, with nu <= mu")
        m = mu + nu
        m *= 0.5
        ux, uy, px, py = gu[..., 0], gu[..., 1], gp[..., 0], gp[..., 1]
        norm_u = ux * ux
        norm_u += uy * uy
        np.sqrt(norm_u, out=norm_u)
        norm_p = px * px
        norm_p += py * py
        np.sqrt(norm_p, out=norm_p)
        prod = norm_u * norm_p
        # NaN or +inf iff a component is not finite or a square
        # overflows, and max propagates NaN
        if not prod.max() < np.inf:
            raise ValueError("gradients must be finite, with norms below "
                             "about 1e154")
        ok = np.minimum(norm_u, norm_p) >= _NORM_FLOOR
        c = ux * px
        yy = uy * py
        cos2 = c - yy
        c += yy
        sin2 = ux * py
        sin2 += uy * px
        c /= prod
        cos2 /= prod
        sin2 /= prod
        generic = np.abs(c) < 1.0 - ALIGNMENT_TOL
        generic &= ok
        dc = d * cos2
        np.add(m, dc, out=out[..., 0])
        np.subtract(m, dc, out=out[..., 2])
        np.multiply(d, sin2, out=out[..., 1])
        if generic.all():
            return
        # parallel: mu I; antiparallel or vanishing: nu I
        flat = ~generic
        parallel = ok & (c >= 1.0 - ALIGNMENT_TOL)
        for col in (out[..., 0], out[..., 2]):
            np.copyto(col, nu, where=flat)
            np.copyto(col, mu, where=parallel)
        np.copyto(out[..., 1], 0.0, where=flat)

    out = np.empty(np.broadcast_shapes(mu.shape, nu.shape, gu.shape[:-1],
                                       gp.shape[:-1]) + (3,))
    # a vanishing gradient's quotients (0/0, x/0, an overflow) are
    # discarded, and a bad input (inf - inf, inf * 0) raises
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _by_blocks(block, (out, 1), (gu, 1), (gp, 1), (mu, 0),
                          (nu, 0))


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
    N+ or N- below -1e-15, or an input that is not finite, raises
    ValueError.
    """
    _check_phases(alpha, beta)
    n_plus = np.asarray(n_plus, dtype=float)
    n_minus = np.asarray(n_minus, dtype=float)
    g = np.asarray(g, dtype=float)

    def block(out, n_plus, n_minus, g):
        # min and max propagate NaN, which fails the comparisons
        if not (n_plus.min() >= -1e-15 and n_minus.min() >= -1e-15):
            raise ValueError("N+ and N- must be nonnegative")
        if not (n_plus.max() < np.inf and n_minus.max() < np.inf
                and -np.inf < g.min() and g.max() < np.inf):
            raise ValueError("N+, N- and g must be finite")
        n_plus = np.maximum(n_plus, 0.0)
        n_minus = np.maximum(n_minus, 0.0)
        b_lo = n_plus - (beta / alpha) * n_minus
        b_hi = n_plus - (alpha / beta) * n_minus
        denom = n_plus - g
        n_minus *= alpha * beta
        np.divide(n_minus, denom, out=out)
        np.sqrt(out, out=out)
        out -= alpha
        out /= beta - alpha
        # the three selects as bounds on the clipped middle value, at
        # half the cost of np.where: out is NaN only where denom <= 0
        # (a square root of a negative, or 0/0), fmax drops a NaN, and
        # g < b_lo and g > b_hi exclude each other (b_lo <= b_hi)
        np.clip(out, 0.0, 1.0, out=out)
        np.fmax(out, (denom <= 0.0) | (g > b_hi), out=out)
        np.minimum(out, g >= b_lo, out=out)

    out = np.empty(np.broadcast_shapes(n_plus.shape, n_minus.shape, g.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _by_blocks(block, (out, 0), (n_plus, 0), (n_minus, 0), (g, 0))
    return float(t) if t.ndim == 0 else t
