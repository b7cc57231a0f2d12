"""STL ingestion, per-triangle centroids, and z-axis slicing.

Input geometry is a triangulated surface in STL format (binary or ASCII),
with coordinates interpreted as millimeters.  The mesh is reduced to the
cloud of triangle centers of gravity, an (n, 3) array, which is then
binned into thin z-slices of xy points for the downstream per-slice
ellipse fits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from earcanal.config import readonly_view

_BINARY_HEADER_LEN = 80
_FACET_DTYPE = np.dtype([
    ("normal", "<f4", (3,)),
    ("vertices", "<f4", (3, 3)),
    ("attr", "<u2"),
])


class StlParseError(ValueError):
    """Malformed STL content: truncated, inconsistent, or unparseable."""


@dataclass(frozen=True)
class TriangleMesh:
    """Triangulated surface: ``vertices`` is (n, 3, 3) in mm, one row of
    three 3D corners per triangle.  Stored normals are kept for round-trip
    fidelity but never used in computation (centroids depend only on the
    vertices, and file normals are frequently wrong in the wild)."""

    vertices: np.ndarray
    normals: np.ndarray
    source_format: str

    def __post_init__(self) -> None:
        v = readonly_view(self.vertices)
        n = readonly_view(self.normals)
        if v.ndim != 3 or v.shape[1:] != (3, 3):
            raise ValueError(f"vertices must have shape (n, 3, 3), got {v.shape}")
        if n.shape != (v.shape[0], 3):
            raise ValueError(f"normals must have shape ({v.shape[0]}, 3), got {n.shape}")
        if v.shape[0] < 1:
            raise ValueError("mesh must contain at least one triangle")
        if not np.isfinite(v).all():
            raise ValueError("mesh contains non-finite vertex coordinates")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", n)

    @property
    def n_triangles(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class SliceSet:
    """Contiguous z-slices of a centroid cloud.

    ``bins[n]`` is a read-only (k, 2) array of the xy coordinates of
    exactly the points with ``n*delta_z < z - z_origin <= (n+1)*delta_z``;
    bin 0 additionally includes points exactly at the origin (closed
    below), so the ear-entrance boundary point is never dropped.  Empty
    interior bins are retained so the index n maps linearly to depth.
    """

    delta_z: float
    z_origin: float
    bins: tuple


def _parse_ascii_stl(data: bytes) -> TriangleMesh:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise StlParseError(f"ASCII STL contains non-ASCII bytes: {exc}") from None
    tokens = text.split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise StlParseError("truncated ASCII STL: unexpected end of file")
        tok = tokens[pos]
        pos += 1
        return tok

    def take_float() -> float:
        tok = take()
        try:
            return float(tok)
        except ValueError:
            raise StlParseError(f"expected a number in ASCII STL, got {tok!r}") from None

    def expect(*words: str) -> None:
        for w in words:
            tok = take()
            if tok.lower() != w:
                raise StlParseError(f"expected {w!r} in ASCII STL, got {tok!r}")

    expect("solid")
    # solid name: arbitrary tokens up to the first facet (or endsolid)
    while pos < len(tokens) and tokens[pos].lower() not in ("facet", "endsolid"):
        pos += 1

    tris = []
    norms = []
    while True:
        tok = take().lower()
        if tok == "endsolid":
            break
        if tok != "facet":
            raise StlParseError(f"expected 'facet' or 'endsolid', got {tok!r}")
        expect("normal")
        norms.append([take_float() for _ in range(3)])
        expect("outer", "loop")
        tri = []
        for _ in range(3):
            expect("vertex")
            tri.append([take_float() for _ in range(3)])
        tris.append(tri)
        expect("endloop", "endfacet")

    if not tris:
        raise StlParseError("ASCII STL contains no facets")
    return TriangleMesh(np.asarray(tris), np.asarray(norms), "ascii_stl")


def _parse_binary_stl(data: bytes) -> TriangleMesh:
    if len(data) < _BINARY_HEADER_LEN + 4:
        raise StlParseError(
            f"truncated binary STL: {len(data)} bytes, need at least {_BINARY_HEADER_LEN + 4}"
        )
    (count,) = struct.unpack_from("<I", data, _BINARY_HEADER_LEN)
    expected = _BINARY_HEADER_LEN + 4 + _FACET_DTYPE.itemsize * count
    if len(data) != expected:
        raise StlParseError(
            f"binary STL declares {count} triangles ({expected} bytes) "
            f"but file holds {len(data)} bytes"
        )
    if count == 0:
        raise StlParseError("binary STL contains no facets")
    rec = np.frombuffer(data, dtype=_FACET_DTYPE, count=count, offset=_BINARY_HEADER_LEN + 4)
    return TriangleMesh(rec["vertices"], rec["normal"], "binary_stl")


def parse_stl(data: bytes) -> TriangleMesh:
    """Parse STL file content, auto-detecting binary vs ASCII.

    Coordinates are taken as millimeters with no rescaling.  Binary and
    ASCII encodings of the same geometry parse to the same triangle set.
    Raises :class:`StlParseError` on truncation, a triangle count that
    disagrees with the payload length, or non-numeric ASCII tokens.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_stl expects raw file bytes")
    data = bytes(data)
    head = data.lstrip()[:5].lower()
    # binary files may legally start with 'solid' inside the 80-byte header,
    # so 'solid' alone is not enough -- require ASCII structure words too.
    if head == b"solid" and (b"facet" in data or b"endsolid" in data):
        return _parse_ascii_stl(data)
    return _parse_binary_stl(data)


def write_binary_stl(mesh: TriangleMesh, header: bytes = b"earcanal binary STL") -> bytes:
    """Serialize a mesh as binary STL (little-endian, 50-byte facets).

    Parsing the output yields a triangle multiset identical to ``mesh``
    up to float32 storage precision (exact round trip for meshes that
    were themselves parsed from binary STL).
    """
    if header[:5].lower() == b"solid":
        raise ValueError("binary STL header must not start with 'solid'")
    rec = np.zeros(mesh.n_triangles, dtype=_FACET_DTYPE)
    rec["normal"] = mesh.normals.astype("<f4")
    rec["vertices"] = mesh.vertices.astype("<f4")
    return header.ljust(_BINARY_HEADER_LEN, b"\0") + struct.pack("<I", mesh.n_triangles) + rec.tobytes()


def triangle_centroids(mesh: TriangleMesh) -> np.ndarray:
    """Arithmetic mean of each triangle's three vertices: a read-only
    (n, 3) array with one (x, y, z) point per triangle."""
    return readonly_view(mesh.vertices.mean(axis=1))


def slice_centroids(points, delta_z: float, z_origin: float | None = None) -> SliceSet:
    """Bin (n, 3) centroid points into thin z-slices of width ``delta_z``.

    Each point lands in the bin ``n`` with ``n*delta_z < z - z_origin <=
    (n+1)*delta_z`` (bin 0 is closed below).  ``z_origin`` defaults to the
    minimum z of the cloud, the ear-entrance end; an explicit value must
    not exceed that minimum, since slicing indexes depth from the entrance.
    """
    if delta_z <= 0:
        raise ValueError(f"delta_z must be positive, got {delta_z}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("cannot slice an empty centroid cloud")
    if not np.isfinite(points).all():
        raise ValueError("centroid cloud contains non-finite coordinates")
    z = points[:, 2]
    zmin = float(z.min())
    if z_origin is None:
        z_origin = zmin
    elif z_origin > zmin:
        raise ValueError(
            f"z_origin {z_origin} exceeds the minimum cloud z {zmin}; "
            "slicing must start at the ear-entrance end"
        )
    rel = z - z_origin
    idx = np.ceil(rel / delta_z).astype(np.int64) - 1
    idx[idx < 0] = 0  # points exactly at the origin belong to bin 0
    # one stable sort groups the points by bin in their original order,
    # so the work is O(points log points) however many bins there are
    order = np.argsort(idx, kind="stable")
    cuts = np.searchsorted(idx[order], np.arange(1, int(idx.max()) + 1))
    bins = tuple(readonly_view(xy) for xy in np.split(points[order, :2], cuts))
    return SliceSet(float(delta_z), float(z_origin), bins)
