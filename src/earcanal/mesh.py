"""STL ingestion, per-triangle centroids, and z-axis slicing.

Input geometry is a triangulated surface in STL format (binary or ASCII),
with coordinates interpreted as millimeters.  The mesh is reduced to the
cloud of triangle centers of gravity, an (n, 3) array, which is then
binned into thin z-slices of xy points for the downstream per-slice
ellipse fits.
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import dataclass

import numpy as np

from earcanal.config import readonly_view

_BINARY_HEADER_LEN = 80
_HEADER = b"earcanal binary STL".ljust(_BINARY_HEADER_LEN, b"\0")
_MAX_SLICES = 2**20  # most slices of one cloud: 105 m of canal at delta_z 0.1
_FACET_DTYPE = np.dtype([
    ("normal", "<f4", (3,)),
    ("vertices", "<f4", (3, 3)),
    ("attr", "<u2"),
])


class StlParseError(ValueError):
    """Malformed STL content: truncated, inconsistent, or unparseable."""


def _source_precision(a) -> np.ndarray:
    """A read-only view of ``a``: float32 as it is, else as :func:`readonly_view`."""
    a = np.asarray(a)
    if a.dtype != np.float32:
        return readonly_view(a)
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class TriangleMesh:
    """Triangulated surface: ``vertices`` is (n, 3, 3) in mm, one row of
    three 3D corners per triangle.  Stored normals are kept for round-trip
    fidelity but never used in computation (centroids depend only on the
    vertices, and file normals are frequently wrong in the wild).

    Each array keeps the precision of its source: float32 arrays, such as
    those of a binary STL, stay float32 read-only views, which may be
    strided views of the file bytes; any other array is held as
    contiguous float64, as ASCII STL and the synthetic meshes are."""

    vertices: np.ndarray
    normals: np.ndarray

    def __post_init__(self) -> None:
        v, n = _source_precision(self.vertices), _source_precision(self.normals)
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
    """Contiguous z-slices of a centroid cloud: ``xy``, the read-only
    (n, 2) xy coordinates in slice order, and ``bins``, the read-only
    int64 point count of each slice.  Slice n is the ``bins[n]`` rows of
    ``xy`` after slice n-1's: exactly the points with ``n*delta_z < z -
    z_origin <= (n+1)*delta_z``, ``z_origin`` being where
    :func:`slice_centroids` started; slice 0 additionally includes points
    exactly at the origin (closed below), so the ear-entrance boundary
    point is never dropped.  Empty interior slices are retained, with
    count 0, so the index n maps linearly to depth.
    """

    delta_z: float
    xy: np.ndarray
    bins: np.ndarray


# A facet is 21 tokens: "facet normal" and 3 numbers, "outer loop",
# three times "vertex" and 3 numbers, then "endloop endfacet".  Keyword
# and number columns are counted from the facet's first token.
_FACET_TOKENS = 21
_FACET_WORDS = {1: b"normal", 5: b"outer", 6: b"loop", 7: b"vertex", 11: b"vertex",
                15: b"vertex", 19: b"endloop", 20: b"endfacet"}
_FACET_NUMBERS = (2, 3, 4, 8, 9, 10, 12, 13, 14, 16, 17, 18)
_LOWER_BLOCK = 1 << 14  # bytes of STL text lower-cased or split at a time
_ASCII_BLOCK = 1024  # facets the ASCII parser checks and reads at a time
# str.split also splits at the ASCII separators 0x1c-0x1f; bytes.split does not
_SEPARATORS_TO_SPACE = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_SEPARATOR = re.compile(rb"[\t\n\x0b\x0c\r \x1c-\x1f]")  # a byte str.split splits at
_LEADING_SPACE = re.compile(rb"[\t\n\x0b\x0c\r ]*")  # what bytes.lstrip strips, found uncopied


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


def _count_word(data: bytes, word: bytes) -> int:
    """Occurrences of ``word``, which must not overlap itself, in any letter case."""
    return sum(data[i : i + _LOWER_BLOCK + len(word) - 1].lower().count(word)
               for i in range(0, len(data), _LOWER_BLOCK))


def _token_ranges(data: bytes):
    """The tokens of ``data``, split where ``str.split`` splits, one list
    per byte range of ``_LOWER_BLOCK`` bytes or more.  Each range ends
    just past a separator, so no token spans two ranges."""
    start = 0
    while start < len(data):
        sep = _SEPARATOR.search(data, start + _LOWER_BLOCK)
        stop = sep.end() if sep else len(data)
        yield data[start:stop].translate(_SEPARATORS_TO_SPACE).split()
        start = stop


def _facet_blocks(data: bytes):
    """Yield (tokens, last): the tokens of an ASCII STL from its first
    facet (or endsolid) on, ``_ASCII_BLOCK`` whole facets at a time, and
    with ``last`` set, the rest.  The solid's name, any number of tokens
    after 'solid', is dropped a range at a time."""
    ranges = filter(None, _token_ranges(data))
    tokens = next(ranges, None)
    if tokens is None:
        raise StlParseError("truncated ASCII STL: unexpected end of file")
    if tokens[0].lower() != b"solid":
        raise StlParseError(f"expected 'solid' in ASCII STL, got {tokens[0].decode()!r}")
    parts = itertools.chain([tokens], ranges)
    for part in parts:
        first = next((i for i, tok in enumerate(part) if tok.lower() in (b"facet", b"endsolid")),
                     None)
        if first is not None:
            parts = itertools.chain([part[first:]], parts)
            break
    size = _FACET_TOKENS * _ASCII_BLOCK
    tokens = []
    for part in parts:
        tokens += part
        while len(tokens) >= size:
            yield tokens[:size], False
            del tokens[:size]
    yield tokens, True


def _parse_facets(tokens: list, last: bool) -> tuple:
    """The (k, 12) numbers of the k facets ``tokens`` starts with, and
    whether the solid ends in it: at the first facet position that does
    not hold ``facet``, or, if ``last``, at the end of ``tokens``.

    A facet is exactly 21 tokens, so each keyword or number of every
    facet is one list slice with step 21.  Raises the fault found first
    in token order.
    """
    heads = tokens[::_FACET_TOKENS]
    k = _first_other_word(heads, b"facet")
    ended = last or k is not None
    k = len(heads) if k is None else k
    end = _FACET_TOKENS * k  # the token that closes the solid, if it ends here

    errors = {}  # token position -> message
    if ended and end >= len(tokens):
        errors[len(tokens)] = "truncated ASCII STL: unexpected end of file"
    elif ended and tokens[end].lower() != b"endsolid":
        errors[end] = f"expected 'facet' or 'endsolid', got {tokens[end].lower().decode()!r}"
    for col, word in _FACET_WORDS.items():
        column = tokens[col:end:_FACET_TOKENS]
        bad = _first_other_word(column, word)
        if bad is not None:
            errors[col + _FACET_TOKENS * bad] = (
                f"expected {word.decode()!r} in ASCII STL, got {column[bad].decode()!r}"
            )
    values = np.empty((k, len(_FACET_NUMBERS)))
    for row, col in enumerate(_FACET_NUMBERS):
        column = tokens[col:end:_FACET_TOKENS]
        try:
            values[: len(column), row] = list(map(float, column))
        except ValueError:
            bad = next(i for i, tok in enumerate(column) if not _is_number(tok))
            errors[col + _FACET_TOKENS * bad] = (
                f"expected a number in ASCII STL, got {column[bad].decode()!r}"
            )
    if errors:
        raise StlParseError(errors[min(errors)])
    return values, ended


def _parse_ascii_stl(data: bytes) -> TriangleMesh:
    """Parse ASCII STL a block of facets at a time, so memory is the
    file, one block of tokens and the output.  The bytes, not a decoded
    copy, are split where ``str.split`` splits.  Anything after the
    solid's ``endsolid`` is ignored.  On malformed input the error is
    the one a token-by-token reader meets first: the first block with a
    fault holds the earliest.
    """
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise StlParseError(f"ASCII STL contains non-ASCII bytes: {exc}") from None
    # Every facet that passes its checks holds one 'endloop', so a block
    # that would run past this many facets has a fault and raises first.
    cap = _count_word(data, b"endloop")
    vertices, normals = np.empty((cap, 3, 3)), np.empty((cap, 3))
    n = 0
    for tokens, last in _facet_blocks(data):
        values, ended = _parse_facets(tokens, last)
        vertices[n : n + len(values)] = values[:, 3:].reshape(-1, 3, 3)
        normals[n : n + len(values)] = values[:, :3]
        n += len(values)
        if ended:
            break
    if n == 0:
        raise StlParseError("ASCII STL contains no facets")
    return TriangleMesh(vertices[:n], normals[:n])


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
    return TriangleMesh(rec["vertices"], rec["normal"])


def parse_stl(data: bytes) -> TriangleMesh:
    """Parse STL file content: binary when it is exactly 84 + 50·n bytes,
    n the triangle count at byte 80, whatever its header says; else ASCII
    when it starts with ``solid`` (after whitespace, in any letter case).
    Coordinates are millimeters, not rescaled; binary and ASCII copies of
    one geometry parse to the same triangles.  Raises
    :class:`StlParseError` on truncation, a triangle count that disagrees
    with the file's size, or non-numeric ASCII tokens.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_stl expects raw file bytes")
    data = bytes(data)
    facets = len(data) - _BINARY_HEADER_LEN - 4  # bytes after the header and the count
    if facets >= 0 and facets == _FACET_DTYPE.itemsize * int.from_bytes(data[80:84], "little"):
        return _parse_binary_stl(data)
    start = _LEADING_SPACE.match(data).end()
    if data[start : start + 5].lower() == b"solid":
        return _parse_ascii_stl(data)
    return _parse_binary_stl(data)


def write_binary_stl(mesh: TriangleMesh) -> bytes:
    """Serialize a mesh as binary STL (little-endian, 50-byte facets).

    Parsing the output yields a triangle multiset identical to ``mesh``
    up to float32 storage precision (exact round trip for meshes that
    were themselves parsed from binary STL).  The header is fixed and
    does not start with ``solid``.
    """
    rec = np.zeros(mesh.n_triangles, dtype=_FACET_DTYPE)
    rec["normal"] = mesh.normals.astype("<f4")
    rec["vertices"] = mesh.vertices.astype("<f4")
    return _HEADER + struct.pack("<I", mesh.n_triangles) + rec.tobytes()


def triangle_centroids(mesh: TriangleMesh) -> np.ndarray:
    """Arithmetic mean of each triangle's three vertices: a read-only
    float64 (n, 3) array with one (x, y, z) point per triangle, whether
    the vertices are float32 or float64."""
    # bitwise vertices.astype(float64).mean(axis=1), in place: its sum
    # (0 + v0 + v1 + v2) starts from 0, which only turns -0.0 + -0.0 +
    # -0.0 into 0.0; float32 vertices widen exactly as they are added
    v = mesh.vertices
    c = np.add(v[:, 0], v[:, 1], dtype=np.float64)
    c += v[:, 2]
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
    The xy points are gathered once, in slice order, each slice in cloud order.
    """
    if delta_z <= 0:
        raise ValueError(f"delta_z must be positive, got {delta_z}")
    points = np.ascontiguousarray(points, dtype=np.float64)
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
    # each xy pair gathered as one 16-byte complex item, a plain copy:
    # z is not gathered, and the pairs move at whole-row speed
    xy = points[:, :2].view(np.complex128)[order].view(np.float64)
    bins = np.bincount(idx)
    xy.flags.writeable = bins.flags.writeable = False
    return SliceSet(float(delta_z), xy, bins)
