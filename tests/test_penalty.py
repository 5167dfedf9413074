import math

import numpy as np
import pytest

from coeffopt.penalty import (
    PROJECTION_FLOOR,
    RECOVERY_CAP,
    VARIANTS,
    PenaltySpec,
    counterexample_penalty,
    phi_eval,
    phi_prime,
    project_to_domain,
    psi_conjugate,
    psi_eval,
    psi_prime,
    recover_coefficient,
    recover_from_flux,
)


def make(variant, **kw):
    if variant in ("linear-box", "affine-box"):
        kw.setdefault("gamma", 0.5)
    return PenaltySpec(variant, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec("cubic")
    with pytest.raises(ValueError):
        PenaltySpec("linear-box", alpha=2.0, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        PenaltySpec("linear-box", alpha=0.0, beta=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        PenaltySpec("linear-box")  # gamma required
    with pytest.raises(ValueError):
        PenaltySpec("affine-box", gamma=-0.1)
    # infinite weights were accepted
    with pytest.raises(ValueError, match="gamma"):
        PenaltySpec("linear-box", gamma=np.inf)
    with pytest.raises(ValueError, match="alpha < beta"):
        PenaltySpec("linear-box", beta=np.inf, gamma=0.5)
    with pytest.raises(ValueError, match="alpha < beta"):
        PenaltySpec("affine-box", alpha=np.inf, beta=np.inf, gamma=0.5)


def test_is_box_property():
    assert not make("quadratic").is_box
    assert not make("inverse-square").is_box
    assert make("linear-box").is_box
    assert make("affine-box").is_box


def test_psi_values():
    assert psi_eval(make("quadratic"), 3.0) == 4.5
    assert psi_eval(make("inverse-square"), 2.0) == 0.125
    assert psi_eval(make("linear-box", gamma=0.5), 1.5) == 0.75
    assert psi_eval(make("affine-box", gamma=0.5), 1.5) == 0.25


def test_psi_domain_handling():
    box = make("linear-box")
    with pytest.raises(ValueError):
        psi_eval(box, 2.5)
    vals = psi_eval(box, np.array([1.5, 2.5]), strict=False)
    assert math.isinf(vals[1])
    with pytest.raises(ValueError):
        psi_eval(make("inverse-square"), 0.0)
    with pytest.raises(ValueError):
        psi_eval(make("quadratic"), -1.0)


def test_scalar_in_scalar_out():
    for variant in VARIANTS:
        v = psi_eval(make(variant), 1.5)
        assert isinstance(v, float)
        assert isinstance(psi_prime(make(variant), 1.5), float)


def test_psi_prime_is_derivative():
    h = 1e-7
    for variant in VARIANTS:
        spec = make(variant)
        for a in (1.2, 1.5, 1.9):
            fd = (psi_eval(spec, a + h) - psi_eval(spec, a - h)) / (2 * h)
            assert abs(psi_prime(spec, a) - fd) < 1e-6


def test_conjugate_frozen_values():
    assert psi_conjugate(make("quadratic"), 3.0) == 4.5
    assert abs(psi_conjugate(make("inverse-square"), -1.0) + 1.5) < 1e-15
    assert math.isinf(psi_conjugate(make("inverse-square"), 1.0))
    lin = make("linear-box", gamma=0.5)
    assert abs(psi_conjugate(lin, 0.2) + 0.3) < 1e-15
    assert abs(psi_conjugate(lin, 0.9) - 0.8) < 1e-15
    aff = make("affine-box", gamma=0.5)
    assert abs(psi_conjugate(aff, -0.2) + 0.4) < 1e-15
    assert abs(psi_conjugate(aff, -0.8) + 1.3) < 1e-15


def young_gap(spec, a, s):
    return psi_eval(spec, a) + psi_conjugate(spec, s) - a * s


def test_young_inequality_random():
    rng = np.random.default_rng(42)
    for variant in VARIANTS:
        spec = make(variant)
        lo, hi = (spec.alpha, spec.beta) if spec.is_box else (0.05, 10.0)
        a = rng.uniform(lo, hi, 2000)
        if variant == "inverse-square":
            s = -rng.uniform(0.01, 10.0, 2000)
        elif variant == "affine-box":
            s = -rng.uniform(0.0, 10.0, 2000)
        else:
            s = rng.uniform(0.0, 10.0, 2000)
        gaps = np.array([young_gap(spec, ai, si) for ai, si in zip(a, s)])
        assert gaps.min() > -1e-12


def test_young_equality_at_recovery():
    # a = argmax(a s - psi(a)) turns Young's inequality into an equality
    rng = np.random.default_rng(7)
    g = rng.uniform(0.0, 4.0, 500)
    for variant in VARIANTS:
        spec = make(variant, gamma=0.5) if "box" in variant else make(variant)
        sign = -1.0 if variant in ("inverse-square", "affine-box") else 1.0
        for gi in g:
            if spec.is_box:
                band = (spec.alpha / spec.beta * spec.gamma,
                        spec.beta / spec.alpha * spec.gamma)
                if band[0] < gi < band[1] and not math.isclose(gi, spec.gamma):
                    # inside the two-phase band the recovery follows the
                    # convex hull, not psi, so pointwise equality fails
                    continue
            a = recover_coefficient(spec, gi)
            s = sign * gi if variant != "inverse-square" else -gi
            if variant == "quadratic":
                s = gi
            if not np.isfinite(psi_eval(spec, a, strict=False)):
                continue
            assert abs(young_gap(spec, a, s)) < 1e-10


def test_recover_quadratic():
    spec = make("quadratic")
    assert recover_coefficient(spec, 4.0) == 4.0
    assert recover_coefficient(spec, 0.0) == 0.0


def test_recover_inverse_square():
    spec = make("inverse-square")
    assert abs(recover_coefficient(spec, 8.0) - 0.5) < 1e-15
    assert recover_coefficient(spec, 0.0) == RECOVERY_CAP


def test_recover_linear_box_threshold():
    spec = make("linear-box", alpha=1.0, beta=2.0, gamma=0.02)
    assert recover_coefficient(spec, 0.01) == 1.0
    assert recover_coefficient(spec, 0.05) == 2.0
    # ties resolve to the lower phase
    assert recover_coefficient(spec, 0.02) == 1.0
    # NaN compares false both ways, so it must fail the range check
    with pytest.raises(ValueError):
        recover_coefficient(spec, np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        recover_coefficient(spec, -0.01)


def test_recover_affine_box():
    spec = make("affine-box", alpha=1.0, beta=2.0, gamma=0.02)
    assert recover_coefficient(spec, 0.0) == 2.0
    g = np.array([0.005, 0.02, 0.08])
    a = recover_coefficient(spec, g)
    assert np.all(a >= 1.0) and np.all(a <= 2.0)
    # interior solutions satisfy phi'(sqrt g) = 2 a sqrt g
    mid = (a > 1.0) & (a < 2.0)
    s = np.sqrt(g[mid])
    assert np.allclose(phi_prime(s, 1.0, 2.0, 0.02), 2.0 * a[mid] * s,
                       atol=1e-12)


def test_recover_from_flux():
    lin = make("linear-box", alpha=1.0, beta=2.0, gamma=0.04)
    # a = clip(|q| / sqrt(gamma), alpha, beta)
    assert recover_from_flux(lin, 0.1) == 1.0
    assert abs(recover_from_flux(lin, 0.3) - 1.5) < 1e-12
    assert recover_from_flux(lin, 0.9) == 2.0
    quad = make("quadratic")
    assert abs(recover_from_flux(quad, 8.0) - 4.0) < 1e-15
    with pytest.raises(ValueError):
        recover_from_flux(make("inverse-square"), 1.0)
    with pytest.raises(ValueError):
        recover_from_flux(lin, np.array([0.3, np.nan]))
    with pytest.raises(ValueError):
        recover_from_flux(lin, -0.1)


def test_phi_frozen_value():
    assert abs(phi_eval(math.sqrt(0.02), 1.0, 2.0, 0.02)
               - 0.0365685424949238) < 1e-15


@pytest.mark.parametrize("fn", [phi_eval, phi_prime])
def test_phi_validates_parameters(fn):
    # swapped phases gave 1.9, a NaN gamma nan and a negative gamma a
    # bare math domain error
    with pytest.raises(ValueError, match="alpha < beta"):
        fn(1.0, 2.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="alpha < beta"):
        fn(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="alpha < beta"):
        fn(1.0, np.nan, 2.0, 0.1)
    for gamma in (np.nan, -0.1, 0.0, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            fn(1.0, 1.0, 2.0, gamma)


def test_phi_piecewise_structure():
    alpha, beta, gamma = 1.0, 2.0, 0.02
    lo = math.sqrt(alpha / beta * gamma)
    hi = math.sqrt(beta / alpha * gamma)
    s = np.linspace(0.0, 2.0 * hi, 4001)
    v = phi_eval(s, alpha, beta, gamma)
    assert np.allclose(v[s <= lo], beta * s[s <= lo] ** 2, atol=1e-15)
    band = (s > lo) & (s < hi)
    assert np.allclose(v[band],
                       2.0 * math.sqrt(alpha * beta * gamma) * s[band]
                       - alpha * gamma, atol=1e-15)
    top = s >= hi
    assert np.allclose(v[top], alpha * s[top] ** 2 + gamma * (beta - alpha),
                       atol=1e-14)


def test_phi_is_c1_and_convex():
    alpha, beta, gamma = 1.0, 2.0, 0.02
    s = np.linspace(1e-4, 0.6, 3001)
    d = phi_prime(s, alpha, beta, gamma)
    # derivative consistent with finite differences
    h = 1e-7
    fd = (phi_eval(s + h, alpha, beta, gamma)
          - phi_eval(s - h, alpha, beta, gamma)) / (2 * h)
    assert np.abs(d - fd).max() < 1e-5
    # convexity: derivative monotone
    assert np.all(np.diff(d) >= -1e-12)


def test_phi_dominated_by_both_branches():
    alpha, beta, gamma = 1.0, 2.0, 0.02
    s = np.linspace(0.0, 1.0, 2001)
    hull = phi_eval(s, alpha, beta, gamma)
    lower = np.minimum(alpha * s ** 2 + gamma * (beta - alpha), beta * s ** 2)
    assert np.all(hull <= lower + 1e-14)


def test_project_to_domain():
    # unbounded variants keep a strictly positive floor for ellipticity
    assert project_to_domain(make("quadratic"), -3.0) == PROJECTION_FLOOR
    assert project_to_domain(make("inverse-square"), 0.0) == PROJECTION_FLOOR
    box = make("linear-box", alpha=1.0, beta=2.0, gamma=0.1)
    out = project_to_domain(box, np.array([0.5, 1.5, 9.0]))
    assert np.array_equal(out, [1.0, 1.5, 2.0])


def test_counterexample_penalty():
    spec = counterexample_penalty(0.23539)
    assert spec.variant == "linear-box"
    assert spec.alpha == 1.0 and spec.beta == 2.0
    assert abs(spec.gamma - 0.23539 ** 2) < 1e-18
    with pytest.raises(ValueError):
        counterexample_penalty(0.0)
    with pytest.raises(ValueError):
        counterexample_penalty(0.5)
