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
_MAX_SLICES = 2**20  # most slices of one cloud: 105 m of canal at delta_z 0.1
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


# A facet is 21 tokens: "facet normal" and 3 numbers, "outer loop",
# three times "vertex" and 3 numbers, then "endloop endfacet".  Keyword
# and number columns are counted from the facet's first token.
_FACET_TOKENS = 21
_FACET_WORDS = {1: b"normal", 5: b"outer", 6: b"loop", 7: b"vertex", 11: b"vertex",
                15: b"vertex", 19: b"endloop", 20: b"endfacet"}
_FACET_NUMBERS = (2, 3, 4, 8, 9, 10, 12, 13, 14, 16, 17, 18)
_LOWER_BLOCK = 1 << 16  # bytes parse_stl lower-cases at a time to find a structure word
# str.split also splits at the ASCII separators 0x1c-0x1f; bytes.split does not
_SEPARATORS_TO_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")


def _first_other_word(column: list, word: bytes) -> int | None:
    """Index of the first token in ``column`` that is not ``word`` in
    any letter case, or None."""
    if column == [word] * len(column):
        return None
    return next((i for i, tok in enumerate(column) if tok.lower() != word), None)


def _is_number(tok: bytes) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _parse_ascii_stl(data: bytes) -> TriangleMesh:
    """Parse ASCII STL a column at a time.

    The bytes, not a decoded copy, are split once, where ``str.split``
    splits.  Each facet is exactly 21 tokens, so facet k begins 21k
    tokens after the solid's name, and each keyword or number of every
    facet is one list slice with step 21.  The solid ends at the first
    facet position that does not hold ``facet``; anything after its
    ``endsolid`` is ignored.  On malformed input the error is the one
    found first in token order, as a token-by-token reader reports it.
    """
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise StlParseError(f"ASCII STL contains non-ASCII bytes: {exc}") from None
    tokens = data.translate(_SEPARATORS_TO_SPACE).split()
    if not tokens:
        raise StlParseError("truncated ASCII STL: unexpected end of file")
    if tokens[0].lower() != b"solid":
        raise StlParseError(f"expected 'solid' in ASCII STL, got {tokens[0].decode()!r}")
    # solid name: arbitrary tokens up to the first facet (or endsolid)
    first = 1
    while first < len(tokens) and tokens[first].lower() not in (b"facet", b"endsolid"):
        first += 1
    heads = tokens[first::_FACET_TOKENS]
    n = _first_other_word(heads, b"facet")
    n = len(heads) if n is None else n
    end = first + _FACET_TOKENS * n  # the token that closes the solid

    errors = {}  # token position -> message
    if end >= len(tokens):
        errors[len(tokens)] = "truncated ASCII STL: unexpected end of file"
    elif tokens[end].lower() != b"endsolid":
        errors[end] = f"expected 'facet' or 'endsolid', got {tokens[end].lower().decode()!r}"
    for col, word in _FACET_WORDS.items():
        column = tokens[first + col : end : _FACET_TOKENS]
        bad = _first_other_word(column, word)
        if bad is not None:
            errors[first + col + _FACET_TOKENS * bad] = (
                f"expected {word.decode()!r} in ASCII STL, got {column[bad].decode()!r}"
            )
    values = np.empty((len(_FACET_NUMBERS), n))
    for row, col in enumerate(_FACET_NUMBERS):
        column = tokens[first + col : end : _FACET_TOKENS]
        try:
            values[row, : len(column)] = list(map(float, column))
        except ValueError:
            bad = next(i for i, tok in enumerate(column) if not _is_number(tok))
            errors[first + col + _FACET_TOKENS * bad] = (
                f"expected a number in ASCII STL, got {column[bad].decode()!r}"
            )
    if errors:
        raise StlParseError(errors[min(errors)])
    if n == 0:
        raise StlParseError("ASCII STL contains no facets")
    return TriangleMesh(values[3:].T.reshape(n, 3, 3), values[:3].T, "ascii_stl")


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
    # so 'solid' alone is not enough -- require an ASCII structure word too,
    # in any letter case.  Blocks overlap by 7 bytes, so no word is split.
    blocks = (data[i : i + _LOWER_BLOCK + 7].lower() for i in range(0, len(data), _LOWER_BLOCK))
    if head == b"solid" and any(b"facet" in b or b"endsolid" in b for b in blocks):
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
    # bitwise vertices.mean(axis=1), in place: its sum (0 + v0 + v1 + v2)
    # starts from 0, which only turns -0.0 + -0.0 + -0.0 into 0.0
    c = mesh.vertices[:, 0] + mesh.vertices[:, 1]
    c += mesh.vertices[:, 2]
    c += 0.0
    c /= 3
    return readonly_view(c)


def slice_centroids(points, delta_z: float, z_origin: float | None = None) -> SliceSet:
    """Bin (n, 3) centroid points into thin z-slices of width ``delta_z``.

    Each point lands in the bin ``n`` with ``n*delta_z < z - z_origin <=
    (n+1)*delta_z`` (bin 0 is closed below).  ``z_origin`` defaults to the
    minimum z of the cloud, the ear-entrance end; an explicit value must
    not exceed that minimum, since slicing indexes depth from the entrance.
    More than ``_MAX_SLICES`` slices raise ValueError before any is made.
    Every bin is a read-only view into one gathered array of the points.
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
    zmin, zmax = float(z.min()), float(z.max())
    if z_origin is None:
        z_origin = zmin
    elif z_origin > zmin:
        raise ValueError(
            f"z_origin {z_origin} exceeds the minimum cloud z {zmin}; "
            "slicing must start at the ear-entrance end"
        )
    count = np.ceil((zmax - z_origin) / delta_z)
    if not count <= _MAX_SLICES:
        raise ValueError(f"{count:g} slices of delta_z {delta_z} for z from {z_origin} to "
                         f"{zmax}; at most {_MAX_SLICES} are allowed")
    idx = np.ceil((z - z_origin) / delta_z).astype(np.int64) - 1
    idx[idx < 0] = 0  # points exactly at the origin belong to bin 0
    # one stable sort groups the points by bin in their original order,
    # so the work is O(points log points) however many bins there are
    order = np.argsort(idx, kind="stable")
    xy = np.take(points, order, axis=0)[:, :2]
    xy.flags.writeable = False
    ends = np.cumsum(np.bincount(idx)).tolist()
    bins = tuple(xy[a:b] for a, b in zip([0] + ends[:-1], ends))
    return SliceSet(float(delta_z), float(z_origin), bins)
