"""Triangular meshes of the unit square and the unit disk.

Both builders are structured and fully deterministic: the square uses an
alternating-diagonal (criss-cross) pattern, the disk concentric vertex
rings with six azimuthal sectors.  Cell areas and P1 hat-function
gradients are precomputed at construction time since every assembly and
gradient-recovery routine consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "MeshCorruptionError",
    "build_unit_square_mesh",
    "build_unit_disk_mesh",
    "cell_geometry",
    "write_vtk",
]


class MeshCorruptionError(RuntimeError):
    """A mesh failed its construction-time sanity checks."""


def cell_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Areas and P1 basis gradients of every triangle.

    Parameters
    ----------
    vertices : (n_vertices, 2) float array
    triangles : (n_cells, 3) int array
        Vertex indices, counter-clockwise order.

    Returns
    -------
    areas : (n_cells,) float array
        Signed areas; all must come out positive.
    grads : (n_cells, 3, 2) float array
        ``grads[c, i]`` is the (constant) gradient of the hat function
        attached to local vertex ``i`` of cell ``c``.

    Raises
    ------
    MeshCorruptionError
        If any triangle has nonpositive signed area (degenerate or
        clockwise cell).
    """
    p = vertices[triangles]  # (n_cells, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    bad = np.flatnonzero(signed <= 0.0)
    if bad.size:
        c = int(bad[0])
        raise MeshCorruptionError(
            f"cell {c} has nonpositive signed area {signed[c]:.3e}"
        )
    # grad of hat_i is the inward normal of the opposite edge over 2*area
    x, y = p[..., 0], p[..., 1]
    grads = np.empty((triangles.shape[0], 3, 2))
    inv2a = 1.0 / (2.0 * signed)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (y[:, j] - y[:, k]) * inv2a
        grads[:, i, 1] = (x[:, k] - x[:, j]) * inv2a
    return signed, grads


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with precomputed P1 geometry.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    triangles : (n_cells, 3) int array
        Counter-clockwise vertex indices.
    boundary : (n_vertices,) bool array
        True on Dirichlet-boundary vertices.
    cell_areas : (n_cells,) float array
    cell_basis_gradients : (n_cells, 3, 2) float array

    Arrays are frozen (read-only) after construction; the mesh is safe
    to share between concurrent runs.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    cell_areas: np.ndarray
    cell_basis_gradients: np.ndarray

    def __post_init__(self):
        nv = self.vertices.shape[0]
        tri = self.triangles
        if tri.min() < 0 or tri.max() >= nv:
            raise MeshCorruptionError("triangle refers to a nonexistent vertex")
        if self.boundary.shape != (nv,):
            raise MeshCorruptionError("boundary flag array has wrong length")
        if not np.all(self.cell_areas > 0.0):
            c = int(np.flatnonzero(self.cell_areas <= 0.0)[0])
            raise MeshCorruptionError(f"cell {c} has nonpositive area")
        for arr in (
            self.vertices,
            self.triangles,
            self.boundary,
            self.cell_areas,
            self.cell_basis_gradients,
        ):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.triangles.shape[0]

    def cell_centroids(self) -> np.ndarray:
        """(n_cells, 2) centroid coordinates."""
        return self.vertices[self.triangles].mean(axis=1)


def _finish(vertices, triangles, boundary) -> Mesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    boundary = np.ascontiguousarray(boundary, dtype=bool)
    areas, grads = cell_geometry(vertices, triangles)
    return Mesh(vertices, triangles, boundary, areas, grads)


def _check_n(n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def _check_h(h) -> None:
    if not (0.0 < h < 1.0):
        raise ValueError(f"h must lie in (0, 1), got {h!r}")


def build_unit_square_mesh(n: int) -> Mesh:
    """Criss-cross triangulation of [0,1]^2 with n x n quads.

    Each quad is split along a diagonal whose direction alternates in a
    checkerboard pattern, which keeps the mesh free of a preferred
    direction.  (n+1)^2 vertices, 2 n^2 cells.

    Parameters
    ----------
    n : int
        Subdivisions per side, n >= 1.
    """
    _check_n(n)
    n = int(n)
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # quad (i, j) in row-major order owns rows 2q and 2q + 1 of the
    # triangle array; its lower-left vertex is j (n + 1) + i
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v01 = v00 + (n + 1)
    even = (i + j) % 2 == 0
    triangles = np.empty((n * n, 2, 3), dtype=np.int64)
    triangles[:, 0, 0] = v00
    triangles[:, 0, 1] = v00 + 1
    triangles[:, 0, 2] = np.where(even, v01 + 1, v01)
    triangles[:, 1, 0] = np.where(even, v00, v00 + 1)
    triangles[:, 1, 1] = v01 + 1
    triangles[:, 1, 2] = v01
    triangles = triangles.reshape(-1, 3)

    i_idx = np.tile(np.arange(n + 1), n + 1)
    j_idx = np.repeat(np.arange(n + 1), n + 1)
    boundary = (i_idx == 0) | (i_idx == n) | (j_idx == 0) | (j_idx == n)
    return _finish(vertices, triangles, boundary)


def build_unit_disk_mesh(h: float) -> Mesh:
    """Concentric-ring triangulation of the unit disk.

    Ring k of ceil(1/h) rings carries 6k equally spaced vertices at
    radius k/n, so both the radial and azimuthal spacings stay at or
    below h and every edge is shorter than 2h.  The construction is
    deterministic; the origin is vertex 0 and the outermost ring is
    flagged as boundary.

    Parameters
    ----------
    h : float
        Target edge length, 0 < h < 1.
    """
    _check_h(h)
    n = max(1, math.ceil(1.0 / h))

    rings = [np.zeros((1, 2))]
    for k in range(1, n + 1):
        m = 6 * k
        r = k / n
        ang = 2.0 * np.pi * np.arange(m) / m
        rings.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    vertices = np.concatenate(rings)

    def ring_start(k):
        # center is vertex 0; ring k >= 1 starts after 6*(1+...+(k-1))
        return 1 + 3 * k * (k - 1)

    # innermost fan around the center vertex
    s1 = ring_start(1)
    fan = np.arange(6, dtype=np.int64)
    strips = [np.column_stack([np.zeros(6, dtype=np.int64), s1 + fan,
                               s1 + (fan + 1) % 6])]
    # annulus strip between rings k-1 and k: one triangle per step along
    # either ring, always advancing the ring whose next vertex trails in
    # angle.  Outer step q ends at angle (q+1)/(6k), inner step r at
    # (r+1)/(6(k-1)); scaled by 6k(k-1) these are the integer keys
    # (q+1)(k-1) and (r+1)k, and the outer step goes first on a tie.
    for k in range(2, n + 1):
        so, si = ring_start(k), ring_start(k - 1)
        mo, mi = 6 * k, 6 * (k - 1)
        keys = np.concatenate([np.arange(1, mo + 1, dtype=np.int64) * (k - 1),
                               np.arange(1, mi + 1, dtype=np.int64) * k])
        # merge both rings' steps by key; False (outer) sorts first
        inner = np.arange(mo + mi) >= mo
        inner = inner[np.lexsort((inner, keys))]
        # po, pi: outer and inner steps taken before each step
        pi = np.cumsum(inner) - inner
        po = np.arange(mo + mi) - pi
        strips.append(np.column_stack([
            so + po % mo,
            np.where(inner, si + (pi + 1) % mi, so + (po + 1) % mo),
            si + pi % mi,
        ]))
    triangles = np.concatenate(strips)

    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[ring_start(n):] = True
    return _finish(vertices, triangles, boundary)


# the title line of every file write_vtk writes
_VTK_TITLE = "coeffopt fields"


def write_vtk(path, mesh: Mesh, point_data=None, cell_data=None) -> None:
    """Write the mesh and named fields as a binary legacy VTK file.

    Parameters
    ----------
    path : str or pathlib.Path
    mesh : Mesh
    point_data : dict[str, array] or None
        Per-vertex scalar fields (POINT_DATA section).
    cell_data : dict[str, array] or None
        Per-cell scalar fields (CELL_DATA section).

    Raises
    ------
    ValueError
        If a field has the wrong shape, or its name is empty or holds
        whitespace (a legacy reader splits the SCALARS line on it).

    The file is the legacy format's BINARY variant: text keyword lines,
    each followed by its values in big-endian binary and one newline.
    Points (x, y, 0) and fields are float64 (``double``: a binary
    ``float`` is 4 bytes), cells and cell types int32.  Every value
    reads back bit for bit, NaN included, and identical inputs give
    identical bytes.
    """
    nv, nt = mesh.n_vertices, mesh.n_cells
    points = np.zeros((nv, 3), dtype=">f8")
    points[:, :2] = mesh.vertices
    cells = np.full((nt, 4), 3, dtype=">i4")
    cells[:, 1:] = mesh.triangles
    blocks = [(f"POINTS {nv} double", points),
              (f"CELLS {nt} {4 * nt}", cells),
              (f"CELL_TYPES {nt}", np.full(nt, 5, dtype=">i4"))]  # triangles
    for kind, fields, size in (("POINT", point_data or {}, nv),
                               ("CELL", cell_data or {}, nt)):
        section = f"{kind}_DATA {size}\n"
        for name, values in fields.items():
            if not isinstance(name, str) or name.split() != [name]:
                raise ValueError(f"{kind.lower()} field name {name!r} must "
                                 "be a nonempty string without whitespace")
            values = np.asarray(values, dtype=">f8")
            if values.shape != (size,):
                raise ValueError(
                    f"{kind.lower()} field {name!r} has shape {values.shape}"
                )
            blocks.append((f"{section}SCALARS {name} double 1\n"
                           "LOOKUP_TABLE default", values))
            section = ""

    with open(path, "wb") as fh:
        fh.write(f"# vtk DataFile Version 2.0\n{_VTK_TITLE}\nBINARY\n"
                 "DATASET UNSTRUCTURED_GRID\n".encode())
        for header, values in blocks:
            fh.write(f"{header}\n".encode())
            fh.write(values.tobytes())
            fh.write(b"\n")
