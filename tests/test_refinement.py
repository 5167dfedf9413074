"""Designs converge as the mesh is refined (order-of-accuracy checks).

``compliance_descent`` with the quadratic penalty on the unit disk at
h = 1/16, 1/32 and 1/64, against two closed-form optima: ``ex11_ball``
(f = 1, run to tol 1e-10) and ``ex11_dirac`` (a unit point load at the
origin, default stop, errors on the cells with r > 0.2, away from the
singularity).  Each halving of h must cut the error by a factor of at
least the stated ratio, set a margin below the measured one.
"""

import numpy as np
import pytest

from coeffopt.fem import PointLoad
from coeffopt.mesh import build_unit_disk_mesh
from coeffopt.oracles import ex11_ball, ex11_dirac
from coeffopt.optimize import compliance_descent
from coeffopt.penalty import PenaltySpec

H = (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)


def relative_l2(weights, x, ref):
    return float(np.sqrt(weights @ (x - ref) ** 2 / (weights @ ref ** 2)))


def ratios(errors):
    return [coarse / fine for coarse, fine in zip(errors, errors[1:])]


def cell_radii(mesh):
    return np.hypot(*mesh.cell_centroids().T)


@pytest.fixture(scope="module")
def meshes():
    return [build_unit_disk_mesh(h) for h in H]


def test_uniform_load_design_converges(meshes):
    # measured: L2(a) 1.580e-2, 6.536e-3, 2.937e-3 (ratios 2.42, 2.23);
    # rms u error 1.13e-4, 2.90e-5, 7.84e-6 (ratios 3.91, 3.70)
    err_a, err_u = [], []
    for m in meshes:
        a, u, rep = compliance_descent(m, 1.0, PenaltySpec("quadratic"),
                                       tol=1e-10)
        assert rep.converged
        err_a.append(relative_l2(m.cell_areas, a, ex11_ball(cell_radii(m))[1]))
        u_ref = ex11_ball(np.hypot(*m.vertices.T))[0]
        err_u.append(float(np.sqrt(np.mean((u - u_ref) ** 2))))
    assert min(ratios(err_a)) >= 2.0, err_a
    assert min(ratios(err_u)) >= 3.3, err_u


def test_point_load_design_converges_away_from_the_source(meshes):
    # measured: L2(a) 4.55e-2, 2.23e-2, 1.13e-2 (ratios 2.04, 1.98)
    err_a = []
    for m in meshes:
        a, _, rep = compliance_descent(m, PointLoad((0.0, 0.0)),
                                       PenaltySpec("quadratic"))
        assert rep.converged
        r = cell_radii(m)
        far = r > 0.2
        err_a.append(relative_l2(m.cell_areas[far], a[far],
                                 ex11_dirac(r[far])[1]))
    assert min(ratios(err_a)) >= 1.8, err_a
