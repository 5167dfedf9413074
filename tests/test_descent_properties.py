"""Property tests for the descent drivers.

Every step the line search accepts strictly lowers the cost, so the
cost history of ``compliance_descent`` (any penalty variant, any
initial coefficient) and of the laminate descent (any cost tilt) is
strictly decreasing on any mesh, with one step and one ratio per
accepted update and every step in (0, 1].  Each ratio is the relative
change the stop test reads, so every one but the last is at least tol.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coeffopt.mesh import build_unit_disk_mesh, build_unit_square_mesh
from coeffopt.optimize import (
    DescentConfig,
    compliance_descent,
    general_relaxed_optimize,
)
from coeffopt.penalty import VARIANTS, PenaltySpec

SETTINGS = settings(max_examples=50, deadline=None)

meshes = st.one_of(
    st.integers(2, 6).map(build_unit_square_mesh),
    st.floats(0.25, 0.5).map(build_unit_disk_mesh),
)


def check_history(rep):
    assert np.all(np.diff(rep.costs) < 0.0)
    assert rep.iterations == len(rep.steps) == len(rep.ratios)
    assert len(rep.costs) == rep.iterations + 1
    assert all(0.0 < s <= 1.0 for s in rep.steps)
    c = rep.costs
    scale = max(abs(c[0]), 1e-300)
    assert rep.ratios == [abs(c[k + 1] - c[k]) / scale
                          for k in range(rep.iterations)]
    assert all(r >= DescentConfig().tol for r in rep.ratios[:-1])


@st.composite
def compliance_cases(draw):
    """A mesh, a load, a penalty and an initial coefficient per cell
    (projected onto the penalty domain by the driver)."""
    mesh = draw(meshes)
    variant = draw(st.sampled_from(VARIANTS))
    half = draw(st.booleans())
    if variant in ("linear-box", "affine-box"):
        beta = draw(st.floats(1.2, 4.0))
        spec = PenaltySpec(variant, alpha=1.0, beta=beta,
                           gamma=draw(st.floats(0.001, 0.5)), half=half)
        lo, hi = 0.5, beta + 0.5
    else:
        spec = PenaltySpec(variant, half=half)
        lo, hi = 0.05, 4.0
    a0 = draw(arrays(float, mesh.n_cells, elements=st.floats(lo, hi)))
    return mesh, draw(st.floats(0.0, 2.0)), spec, a0


@SETTINGS
@given(compliance_cases())
def test_compliance_cost_history_strictly_decreases(case):
    mesh, f, spec, a0 = case
    rep = compliance_descent(mesh, f, spec,
                             DescentConfig(a0=a0, max_iters=25))[2]
    check_history(rep)


@SETTINGS
@given(meshes, st.floats(-0.9, 0.9), st.floats(0.1, 0.4))
def test_laminate_cost_history_strictly_decreases(mesh, tilt, tau):
    weight = 1.0 + tilt * mesh.vertices[:, 0]
    rep = general_relaxed_optimize(mesh, 1.0, weight, tau ** 2,
                                   1.0, 2.0, DescentConfig(max_iters=15))[4]
    check_history(rep)
