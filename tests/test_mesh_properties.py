"""Property test for the VTK writer.

``write_vtk`` formats its arrays a block of rows at a time; its bytes
must equal those of a plain per-row writer for any field values, any
number of fields and any block size, including blocks that split a
section.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffopt import mesh as meshes

MESHES = [meshes.build_unit_square_mesh(1), meshes.build_unit_square_mesh(3),
          meshes.build_unit_disk_mesh(0.6)]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072014e-308 / 3, 1e308, -1e308,
           1.7976931348623157e308, 0.1, -123456789.123456789]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
NAMES = ["u", "p", "a", "t", "ratio"]


def reference_write_vtk(path, mesh, point_data, cell_data):
    """The writer as one f-string per row."""
    nv, nt = mesh.n_vertices, mesh.n_cells
    lines = ["# vtk DataFile Version 2.0", "coeffopt fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} float"]
    lines += [f"{x:.12e} {y:.12e} 0.0" for x, y in mesh.vertices]
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    for kind, fields, size in (("POINT", point_data, nv),
                               ("CELL", cell_data, nt)):
        if fields:
            lines.append(f"{kind}_DATA {size}")
        for name, values in fields.items():
            lines += [f"SCALARS {name} float 1", "LOOKUP_TABLE default"]
            lines += [f"{v:.12e}" for v in np.asarray(values, dtype=float)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def draw_fields(draw, size):
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    return {name: np.array(draw(st.lists(VALUES, min_size=size,
                                         max_size=size)))
            for name in names}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_write_vtk_matches_per_row_writer(data):
    mesh = data.draw(st.sampled_from(MESHES))
    block = data.draw(st.integers(1, 9))
    point_data = draw_fields(data.draw, mesh.n_vertices)
    cell_data = draw_fields(data.draw, mesh.n_cells)
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshes, "_VTK_BLOCK_ROWS", block)
        got, want = Path(tmp, "got.vtk"), Path(tmp, "want.vtk")
        meshes.write_vtk(got, mesh, point_data=point_data,
                         cell_data=cell_data)
        reference_write_vtk(want, mesh, point_data, cell_data)
        assert got.read_bytes() == want.read_bytes()


def test_write_vtk_matches_per_row_writer_at_default_block(tmp_path):
    # more rows than one block, so sections end inside a later block
    mesh = meshes.build_unit_square_mesh(70)
    rng = np.random.default_rng(7)
    assert mesh.n_cells > meshes._VTK_BLOCK_ROWS
    point_data = {"u": rng.standard_normal(mesh.n_vertices)}
    cell_data = {"a": rng.uniform(1.0, 2.0, mesh.n_cells),
                 "t": rng.random(mesh.n_cells)}
    meshes.write_vtk(tmp_path / "got.vtk", mesh, point_data=point_data,
                     cell_data=cell_data)
    reference_write_vtk(tmp_path / "want.vtk", mesh, point_data, cell_data)
    assert ((tmp_path / "got.vtk").read_bytes()
            == (tmp_path / "want.vtk").read_bytes())
