"""Property test for the VTK writer.

``write_vtk`` writes binary legacy VTK: for any mesh, any field values
(NaN payloads, signed zeros, infinities and subnormals included) and any
valid field names, the points, cells and fields read back bit for bit,
and a second write of the same input gives the same bytes.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from legacy_vtk import bits, read_vtk

from coeffopt import mesh as meshes

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
           -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
           0.1, -123456789.123456789]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64),
                   st.integers(0, 2**64 - 1).map(
                       lambda b: np.uint64(b).view(np.float64)))
# printable ASCII but the space: what a legacy reader takes as one word
NAMES = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=8)
MESHES = st.one_of(st.integers(1, 12).map(meshes.build_unit_square_mesh),
                   st.floats(0.15, 0.95).map(meshes.build_unit_disk_mesh))


def draw_fields(draw, size):
    names = draw(st.lists(NAMES, max_size=3, unique=True))
    return {name: np.array(draw(st.lists(VALUES, min_size=size,
                                         max_size=size)), dtype=float)
            for name in names}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_write_vtk_reads_back_exactly(data):
    mesh = data.draw(MESHES)
    point_data = draw_fields(data.draw, mesh.n_vertices)
    cell_data = draw_fields(data.draw, mesh.n_cells)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "out.vtk"), Path(tmp, "again.vtk")
        meshes.write_vtk(path, mesh, point_data=point_data,
                         cell_data=cell_data)
        vtk = read_vtk(path)
        meshes.write_vtk(again, mesh, point_data=point_data,
                         cell_data=cell_data)
        assert again.read_bytes() == path.read_bytes()

    assert np.array_equal(bits(vtk.points[:, :2]), bits(mesh.vertices))
    assert not bits(vtk.points[:, 2]).any()
    assert np.array_equal(vtk.cells, np.column_stack(
        [np.full(mesh.n_cells, 3), mesh.triangles]))
    assert np.array_equal(vtk.cell_types, np.full(mesh.n_cells, 5))
    for got, want in ((vtk.point_data, point_data),
                      (vtk.cell_data, cell_data)):
        assert list(got) == list(want)
        for name, values in want.items():
            assert np.array_equal(bits(got[name]), bits(values))
