"""Property tests for the penalty family.

Young's inequality psi(a) + psi*(s) >= a s for every variant, over the
coefficient and slope domains of ``test_young_inequality_random``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from coeffopt.penalty import VARIANTS, PenaltySpec, psi_conjugate, psi_eval

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def young_cases(draw):
    """A variant, a coefficient in its domain and a slope where psi* is
    finite."""
    variant = draw(st.sampled_from(VARIANTS))
    spec = (PenaltySpec(variant, gamma=0.5)
            if variant in ("linear-box", "affine-box") else PenaltySpec(variant))
    lo, hi = (spec.alpha, spec.beta) if spec.is_box else (0.05, 10.0)
    a = draw(st.floats(lo, hi))
    if variant == "inverse-square":
        s = -draw(st.floats(0.01, 10.0))
    elif variant == "affine-box":
        s = -draw(st.floats(0.0, 10.0))
    else:
        s = draw(st.floats(0.0, 10.0))
    return spec, a, s


@SETTINGS
@given(young_cases())
def test_young_inequality(case):
    spec, a, s = case
    assert psi_eval(spec, a) + psi_conjugate(spec, s) - a * s > -1e-12
