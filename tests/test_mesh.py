import math

import numpy as np
import pytest

from coeffopt.mesh import (
    Mesh,
    MeshCorruptionError,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    cell_geometry,
    write_vtk,
)
from legacy_vtk import bits, read_vtk


def edge_set(triangles):
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def test_square_counts():
    n = 7
    m = build_unit_square_mesh(n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_cells == 2 * n * n
    assert int(m.boundary.sum()) == 4 * n


def test_square_areas_uniform():
    n = 6
    m = build_unit_square_mesh(n)
    # every criss-cross half-quad has area 1/(2 n^2)
    assert np.allclose(m.cell_areas, 1.0 / (2 * n * n), rtol=0, atol=1e-15)
    assert abs(m.cell_areas.sum() - 1.0) < 1e-13


def test_square_rejects_bad_n():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)
    with pytest.raises(ValueError):
        build_unit_square_mesh(2.5)
    # bool is an int subclass, but True is not a subdivision count
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError):
            build_unit_square_mesh(flag)


def test_disk_polygon_area():
    for h in (0.3, 0.11):
        m = build_unit_disk_mesh(h)
        n = max(1, math.ceil(1.0 / h))
        # inscribed polygon of 6n boundary vertices
        expected = 3.0 * n * math.sin(math.pi / (3.0 * n))
        assert abs(m.cell_areas.sum() - expected) < 1e-12


def test_disk_structure():
    h = 0.2
    m = build_unit_disk_mesh(h)
    n = math.ceil(1.0 / h)
    assert np.allclose(m.vertices[0], 0.0)
    r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
    assert r.max() <= 1.0 + 1e-12
    # boundary = outer ring only
    assert int(m.boundary.sum()) == 6 * n
    assert np.allclose(r[m.boundary], 1.0, atol=1e-12)
    assert not m.boundary[0]


def test_disk_euler_characteristic():
    m = build_unit_disk_mesh(0.15)
    v = m.n_vertices
    e = edge_set(m.triangles).shape[0]
    f = m.n_cells
    assert v - e + f == 1  # disk topology


def test_disk_rejects_bad_h():
    for h in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            build_unit_disk_mesh(h)


def test_cell_geometry_rejects_clockwise():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshCorruptionError):
        cell_geometry(verts, np.array([[0, 2, 1]]))


def test_basis_gradients_partition_of_unity():
    m = build_unit_disk_mesh(0.3)
    # hat functions sum to 1, so their gradients sum to 0 per cell
    s = m.cell_basis_gradients.sum(axis=1)
    assert np.abs(s).max() < 1e-12


def test_basis_gradients_reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    areas, grads = cell_geometry(verts, np.array([[0, 1, 2]]))
    assert abs(areas[0] - 0.5) < 1e-15
    assert np.allclose(grads[0, 0], [-1.0, -1.0])
    assert np.allclose(grads[0, 1], [1.0, 0.0])
    assert np.allclose(grads[0, 2], [0.0, 1.0])


def test_mesh_validates_indices():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 3]])
    with pytest.raises(MeshCorruptionError):
        Mesh(verts, tris, np.zeros(3, dtype=bool), np.array([0.5]),
             np.zeros((1, 3, 2)))


def test_mesh_validates_boundary_and_areas():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    grads = np.zeros((1, 3, 2))
    for boundary in (np.zeros(2, dtype=bool), np.zeros((3, 1), dtype=bool)):
        with pytest.raises(MeshCorruptionError, match="wrong length"):
            Mesh(verts, tris, boundary, np.array([0.5]), grads)
    for area in (0.0, -0.5):
        with pytest.raises(MeshCorruptionError, match="nonpositive area"):
            Mesh(verts, tris, np.zeros(3, dtype=bool), np.array([area]),
                 grads)


def test_mesh_arrays_read_only():
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 9.0
    with pytest.raises(ValueError):
        m.cell_areas[0] = 1.0


def test_builds_deterministic():
    for build, size in ((build_unit_disk_mesh, 0.17),
                        (build_unit_square_mesh, 9)):
        a = build(size)
        b = build(size)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.cell_areas, b.cell_areas)


# Reference builders: the original quad-by-quad and step-by-step loops.
# The library builds the same arrays column-wise; these pin them down.

def reference_square(n):
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    i_idx = np.tile(np.arange(n + 1), n + 1)
    j_idx = np.repeat(np.arange(n + 1), n + 1)
    boundary = (i_idx == 0) | (i_idx == n) | (j_idx == 0) | (j_idx == n)
    return vertices, np.array(tris, dtype=np.int64), boundary


def reference_disk(h):
    n = max(1, math.ceil(1.0 / h))
    verts = [(0.0, 0.0)]
    for k in range(1, n + 1):
        m = 6 * k
        r = k / n
        ang = 2.0 * np.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        verts.extend(map(tuple, ring))
    vertices = np.array(verts)

    def ring_start(k):
        return 1 + 3 * k * (k - 1)

    s1 = ring_start(1)
    tris = [(0, s1 + j, s1 + (j + 1) % 6) for j in range(6)]
    for k in range(2, n + 1):
        so, si = ring_start(k), ring_start(k - 1)
        mo, mi = 6 * k, 6 * (k - 1)
        for s in range(6):
            def outer(t):
                return so + (s * k + t) % mo

            def inner(t):
                return si + (s * (k - 1) + t) % mi

            po, pi = 0, 0
            while po < k or pi < k - 1:
                if po == k:
                    step_outer = False
                elif pi == k - 1:
                    step_outer = True
                else:
                    step_outer = (s * k + po + 1) * (k - 1) <= (
                        s * (k - 1) + pi + 1
                    ) * k
                if step_outer:
                    tris.append((outer(po), outer(po + 1), inner(pi)))
                    po += 1
                else:
                    tris.append((outer(po), inner(pi + 1), inner(pi)))
                    pi += 1
    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[ring_start(n):] = True
    return vertices, np.array(tris, dtype=np.int64), boundary


def assert_mesh_equals(mesh, reference):
    vertices, triangles, boundary = reference
    assert mesh.vertices.dtype == np.float64
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.triangles, triangles)
    assert np.array_equal(mesh.boundary, boundary)


def test_square_matches_reference_loop():
    for n in [*range(1, 41), 255, 256]:
        assert_mesh_equals(build_unit_square_mesh(n), reference_square(n))


def test_disk_matches_reference_loop():
    # values next to 1/k change the ring count, so they sit on both sides
    near = [1.0 / k * f for k in (2, 3, 5, 7, 16, 50)
            for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)]
    for h in [0.9, 0.45, 0.3, 0.17, 0.11, 0.05, 0.02, 1 / 64, 1 / 200,
              *near]:
        assert_mesh_equals(build_unit_disk_mesh(h), reference_disk(h))


def test_centroids():
    m = build_unit_square_mesh(1)
    c = m.cell_centroids()
    assert c.shape == (2, 2)
    assert np.allclose(c.mean(axis=0), [0.5, 0.5])


def test_write_vtk_roundtrip(tmp_path):
    m = build_unit_square_mesh(2)
    path = tmp_path / "out.vtk"
    u = np.linspace(0.0, 1.0, m.n_vertices)
    # a NaN with a payload, a signed zero, infinities and a subnormal
    u[:6] = [np.uint64(0x7FF8_0000_DEAD_BEEF).view(float), -0.0, np.inf,
             -np.inf, 5e-324, 0.1]
    a = np.arange(m.n_cells, dtype=float)
    write_vtk(path, m, point_data={"u": u}, cell_data={"a": a})
    vtk = read_vtk(path)
    lines = vtk.lines
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "BINARY"
    assert f"POINTS {m.n_vertices} double" in lines
    assert f"CELLS {m.n_cells} {4 * m.n_cells}" in lines
    assert f"POINT_DATA {m.n_vertices}" in lines
    assert f"CELL_DATA {m.n_cells}" in lines
    assert "SCALARS u double 1" in lines
    assert "SCALARS a double 1" in lines
    assert np.array_equal(bits(vtk.points[:, :2]), bits(m.vertices))
    assert not bits(vtk.points[:, 2]).any()
    assert np.array_equal(vtk.cells[:, 0], np.full(m.n_cells, 3))
    assert np.array_equal(vtk.cells[:, 1:], m.triangles)
    assert np.array_equal(vtk.cell_types, np.full(m.n_cells, 5))
    assert list(vtk.point_data) == ["u"] and list(vtk.cell_data) == ["a"]
    assert np.array_equal(bits(vtk.point_data["u"]), bits(u))
    # the last cell value ends the file
    assert np.array_equal(bits(vtk.cell_data["a"]), bits(a))

    write_vtk(tmp_path / "again.vtk", m, point_data={"u": u},
              cell_data={"a": a})
    assert (tmp_path / "again.vtk").read_bytes() == path.read_bytes()


def test_write_vtk_rejects_bad_shapes(tmp_path):
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", m, point_data={"u": np.zeros(3)})
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", m, cell_data={"a": np.zeros(3)})


@pytest.mark.parametrize("name", ["", " ", "a b", "u\n", "\tt", "p\x0b"])
def test_write_vtk_rejects_bad_field_names(tmp_path, name):
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError, match="whitespace"):
        write_vtk(tmp_path / "bad.vtk", m,
                  point_data={name: np.zeros(m.n_vertices)})
    with pytest.raises(ValueError, match="whitespace"):
        write_vtk(tmp_path / "bad.vtk", m,
                  cell_data={name: np.zeros(m.n_cells)})
    assert not (tmp_path / "bad.vtk").exists()
