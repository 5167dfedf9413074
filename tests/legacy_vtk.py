"""A strict reader for the binary legacy VTK files ``write_vtk`` writes.

It accepts one layout only: the five header lines, a triangle
UNSTRUCTURED_GRID with ``double`` points and ``int`` cells, then
POINT_DATA and CELL_DATA sections of ``SCALARS name double 1`` fields
with the default lookup table.  Every binary block is big-endian and
followed by one newline, and the file ends after the last block.  Any
other byte fails an assertion, so a test that reads a file back also
checks its layout.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class LegacyVTK:
    """The text lines and the arrays (native byte order) of one file."""

    lines: list
    points: np.ndarray
    cells: np.ndarray
    cell_types: np.ndarray
    point_data: dict = field(default_factory=dict)
    cell_data: dict = field(default_factory=dict)


class _Cursor:
    def __init__(self, data: bytes):
        self.data, self.pos, self.lines = data, 0, []

    def line(self) -> list:
        end = self.data.index(b"\n", self.pos)
        text = self.data[self.pos:end].decode()
        self.pos = end + 1
        self.lines.append(text)
        return text.split()

    def block(self, dtype: str, count: int) -> np.ndarray:
        values = np.frombuffer(self.data, dtype=dtype, count=count,
                               offset=self.pos)
        self.pos += values.nbytes
        assert self.data[self.pos:self.pos + 1] == b"\n", "no newline"
        self.pos += 1
        return values.astype(values.dtype.newbyteorder("="))


def bits(values) -> np.ndarray:
    """The float64 values as their 64-bit patterns, to compare exactly."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def read_vtk(path) -> LegacyVTK:
    cur = _Cursor(Path(path).read_bytes())
    assert cur.data.startswith(b"# vtk DataFile Version 2.0\n")
    cur.line()
    cur.line()  # title
    assert cur.line() == ["BINARY"]
    assert cur.line() == ["DATASET", "UNSTRUCTURED_GRID"]
    kw, nv, kind = cur.line()
    assert (kw, kind) == ("POINTS", "double")
    points = cur.block(">f8", 3 * int(nv)).reshape(-1, 3)
    kw, nt, size = cur.line()
    assert (kw, int(size)) == ("CELLS", 4 * int(nt))
    cells = cur.block(">i4", int(size)).reshape(-1, 4)
    assert cur.line() == ["CELL_TYPES", nt]
    cell_types = cur.block(">i4", int(nt))
    out = LegacyVTK(cur.lines, points, cells, cell_types)

    sections = {"POINT_DATA": (out.point_data, int(nv)),
                "CELL_DATA": (out.cell_data, int(nt))}
    fields = None
    while cur.pos < len(cur.data):
        words = cur.line()
        if words[0] in sections:
            fields, count = sections.pop(words[0])
            assert words == [words[0], str(count)]
            continue
        assert fields is not None and len(words) == 4, words
        assert (words[0], words[2:]) == ("SCALARS", ["double", "1"]), words
        assert cur.line() == ["LOOKUP_TABLE", "default"]
        assert words[1] not in fields, f"repeated field {words[1]}"
        fields[words[1]] = cur.block(">f8", count)
    return out
