"""STL parsing, centroid extraction, and z-slice binning."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earcanal.mesh import (
    StlParseError,
    TriangleMesh,
    _parse_ascii_stl,
    parse_stl,
    slice_centroids,
    triangle_centroids,
    write_binary_stl,
)

ASCII_TETRA = """\
solid unit tetra example
  facet normal 0 0 -1
    outer loop
      vertex 0 0 0
      vertex 1.0e+00 0 0
      vertex 0 1 0
    endloop
  endfacet
  facet normal 0 -1 0
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 0 1
    endloop
  endfacet
  facet normal -1 0 0
    outer loop
      vertex 0 0 0
      vertex 0 1 0
      vertex 0 0 1
    endloop
  endfacet
  facet normal 0.5 0.5 0.5
    outer loop
      vertex 1 0 0
      vertex 0 1 0
      vertex 0 0 1
    endloop
  endfacet
endsolid unit tetra example
""".encode()

# face centroids of the unit tetrahedron, one per facet above
TETRA_CENTROIDS = np.array([
    [1 / 3, 1 / 3, 0.0],
    [1 / 3, 0.0, 1 / 3],
    [0.0, 1 / 3, 1 / 3],
    [1 / 3, 1 / 3, 1 / 3],
])


def random_mesh(n, seed=0):
    rng = np.random.default_rng(seed)
    # float32 grid so binary STL storage is exact
    verts = rng.normal(size=(n, 3, 3)).astype(np.float32).astype(np.float64)
    norms = rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
    return TriangleMesh(verts, norms, "binary_stl")


def test_ascii_parse_tetrahedron():
    mesh = parse_stl(ASCII_TETRA)
    assert mesh.n_triangles == 4
    assert mesh.source_format == "ascii_stl"
    assert mesh.vertices[0, 1, 0] == 1.0  # scientific notation token
    np.testing.assert_allclose(
        triangle_centroids(mesh), TETRA_CENTROIDS, rtol=0, atol=0)


def test_binary_matches_ascii():
    ascii_mesh = parse_stl(ASCII_TETRA)
    data = write_binary_stl(ascii_mesh)
    binary_mesh = parse_stl(data)
    assert binary_mesh.source_format == "binary_stl"
    np.testing.assert_array_equal(binary_mesh.vertices, ascii_mesh.vertices)
    np.testing.assert_array_equal(binary_mesh.normals, ascii_mesh.normals)


def test_binary_round_trip_exact():
    mesh = random_mesh(57)
    again = parse_stl(write_binary_stl(mesh))
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.normals, mesh.normals)


def test_binary_header_starting_with_solid_is_still_binary():
    mesh = random_mesh(3)
    # craft the header by hand; the writer itself refuses 'solid' headers
    body = write_binary_stl(mesh)
    data = b"solid-ish binary header".ljust(80, b"\0") + body[80:]
    parsed = parse_stl(data)
    assert parsed.source_format == "binary_stl"
    np.testing.assert_array_equal(parsed.vertices, mesh.vertices)


def test_writer_rejects_solid_header():
    with pytest.raises(ValueError):
        write_binary_stl(random_mesh(1), header=b"solid oops")


def test_truncated_binary_rejected():
    data = write_binary_stl(random_mesh(5))
    with pytest.raises(StlParseError):
        parse_stl(data[:-7])


def test_binary_count_mismatch_rejected():
    data = write_binary_stl(random_mesh(5))
    bad = data[:80] + struct.pack("<I", 6) + data[84:]
    with pytest.raises(StlParseError):
        parse_stl(bad)


def test_ascii_bad_token_rejected():
    with pytest.raises(StlParseError):
        parse_stl(ASCII_TETRA.replace(b"vertex 0 0 0", b"vertex 0 zero 0", 1))


def test_ascii_truncation_rejected():
    with pytest.raises(StlParseError):
        parse_stl(ASCII_TETRA[:200])


def test_empty_solid_rejected():
    with pytest.raises(StlParseError):
        parse_stl(b"solid nothing\nendsolid nothing\n")


def reference_parse_ascii(data: bytes) -> TriangleMesh:
    """The token-by-token ASCII reader the column parser replaced."""
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


def ascii_text(mesh: TriangleMesh) -> bytes:
    """ASCII STL with every value written as the shortest repr of its
    float64, the style of a file exported from float32 data."""
    facets = []
    for normal, tri in zip(mesh.normals, mesh.vertices):
        vertices = "".join(f"      vertex {x!r} {y!r} {z!r}\n" for x, y, z in tri.tolist())
        facets.append(f"  facet normal {' '.join(map(repr, normal.tolist()))}\n"
                      f"    outer loop\n{vertices}    endloop\n  endfacet\n")
    return ("solid scan\n" + "".join(facets) + "endsolid scan\n").encode()


def outcome(parse, data: bytes):
    try:
        mesh = parse(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return mesh.vertices, mesh.normals


MUTATION_WORDS = ["facet", "normal", "outer", "loop", "vertex", "endloop", "endfacet",
                  "endsolid", "solid", "zero", "1e5", "-0.25", "nan", "inf", "1_0", "x"]


@st.composite
def mutated_stl(draw):
    """A valid ASCII STL with up to three edits, joined by a drawn separator."""
    base = draw(st.sampled_from([ASCII_TETRA, ascii_text(random_mesh(12, seed=4))]))
    tokens = base.decode().split()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "insert", "replace", "case", "name", "junk",
                                     "cut"]))
        # the leading 'solid' stays: without it the file is not ASCII STL
        i = draw(st.integers(1, max(1, len(tokens) - 1)))
        if edit == "delete":
            del tokens[i:i + 1]
        elif edit == "insert":
            tokens.insert(i, draw(st.sampled_from(MUTATION_WORDS)))
        elif edit == "replace":
            tokens[i:i + 1] = [draw(st.sampled_from(MUTATION_WORDS))]
        elif edit == "case" and i < len(tokens):
            tokens[i] = draw(st.sampled_from([str.upper, str.capitalize, str.swapcase]))(tokens[i])
        elif edit == "name":
            tokens[1:1] = ["multi", "token", "facetted", "name"]
        elif edit == "junk":
            tokens += ["trailing", "junk", "facet", "1", "zero"]
        elif edit == "cut":
            del tokens[i:]
    sep = draw(st.sampled_from([" ", "\n", "\r\n  ", "\x1c", "\t\x1f"]))
    return sep.join(tokens).encode()


@settings(max_examples=300, deadline=None)
@given(data=mutated_stl())
def test_column_parser_matches_the_token_reader(data):
    got, want = outcome(_parse_ascii_stl, data), outcome(reference_parse_ascii, data)
    if isinstance(want[0], type):
        assert got == want
    else:
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_scanner_style_ascii_is_exact():
    mesh = random_mesh(200, seed=9)
    data = ascii_text(mesh)
    parsed = parse_stl(data)
    np.testing.assert_array_equal(parsed.vertices, reference_parse_ascii(data).vertices)
    np.testing.assert_array_equal(parsed.vertices, mesh.vertices)
    np.testing.assert_array_equal(parsed.normals, mesh.normals)


@pytest.mark.parametrize("old, new, message", [
    (b"vertex 0 0 0", b"vertex 0 zero 0", "expected a number in ASCII STL, got 'zero'"),
    (b"vertex 0 1 0", b"vortex 0 1 0", "expected 'vertex' in ASCII STL, got 'vortex'"),
    (b"facet normal 0 -1 0", b"Zacet normal 0 -1 0", "expected 'facet' or 'endsolid', got 'zacet'"),
    (b"endsolid unit tetra example", b"", "truncated ASCII STL: unexpected end of file"),
    # two faults: the first in file order is reported, whichever column
    (b"outer loop\n      vertex 0 0 0\n      vertex 1.0e+00",
     b"outer lop\n      vertex 0 0 0\n      vertex one",
     "expected 'loop' in ASCII STL, got 'lop'"),
    (b"vertex 0 0 1\n    endloop\n  endfacet\nendsolid",
     b"vertex 0 0 one\n    endloop\n  endfacets\nendsolid",
     "expected a number in ASCII STL, got 'one'"),
], ids=["number", "keyword", "facet", "truncated", "keyword_first", "number_first"])
def test_ascii_error_names_the_first_bad_token(old, new, message):
    with pytest.raises(StlParseError) as exc:
        parse_stl(ASCII_TETRA.replace(old, new, 1))
    assert str(exc.value) == message


def test_anything_after_endsolid_is_ignored():
    data = ASCII_TETRA + b"solid again\n  facet zero\n"
    np.testing.assert_array_equal(parse_stl(data).vertices, parse_stl(ASCII_TETRA).vertices)


def test_centroids_are_vertex_means():
    mesh = random_mesh(23, seed=5)
    cloud = triangle_centroids(mesh)
    expected = np.stack([mesh.vertices[i].mean(axis=0) for i in range(23)])
    np.testing.assert_allclose(cloud, expected, rtol=1e-15)
    assert not cloud.flags.writeable


def test_translated_shifts_centroids():
    mesh = random_mesh(11, seed=2)
    offset = np.array([1.0, -2.0, 0.5])
    moved = triangle_centroids(TriangleMesh(mesh.vertices + offset, mesh.normals, mesh.source_format))
    base = triangle_centroids(mesh)
    np.testing.assert_allclose(moved - base - np.array([1.0, -2.0, 0.5]),
                               np.zeros_like(base), rtol=0, atol=1e-12)


def cloud_at_z(zs):
    zs = np.asarray(zs, dtype=np.float64)
    pts = np.zeros((len(zs), 3))
    pts[:, 2] = zs
    pts[:, 0] = np.arange(len(zs))  # distinct x so points stay identifiable
    return pts


def test_boundary_points_fall_in_lower_bin():
    # delta_z 0.5 is exactly representable, so the edges are exact floats
    s = slice_centroids(cloud_at_z([0.0, 0.25, 0.5, 0.5 + 1e-9, 1.0, 1.2]), 0.5)
    counts = [len(b) for b in s.bins]
    assert counts == [3, 2, 1]  # {0, .25, .5}, {.5+eps, 1.0}, {1.2}
    assert s.bins[0][:, 0].tolist() == [0.0, 1.0, 2.0]
    assert all(b.shape[1] == 2 and not b.flags.writeable for b in s.bins)


def test_origin_point_kept_in_bin_zero():
    s = slice_centroids(cloud_at_z([2.0, 2.7]), 0.5)
    assert s.z_origin == 2.0
    assert len(s.bins[0]) == 1


def test_empty_interior_bins_retained():
    s = slice_centroids(cloud_at_z([0.1, 1.9]), 0.5)
    assert [b.shape for b in s.bins] == [(1, 2), (0, 2), (0, 2), (1, 2)]


def test_explicit_origin_below_minimum():
    s = slice_centroids(cloud_at_z([1.0, 1.4]), 0.5, z_origin=0.0)
    assert [len(b) for b in s.bins] == [0, 1, 1]


def test_origin_above_minimum_rejected():
    with pytest.raises(ValueError):
        slice_centroids(cloud_at_z([1.0, 2.0]), 0.5, z_origin=1.5)


def test_nonpositive_delta_rejected():
    with pytest.raises(ValueError):
        slice_centroids(cloud_at_z([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("points, message", [
    (np.zeros((4, 2)), r"shape \(n, 3\)"),
    (np.zeros(3), r"shape \(n, 3\)"),
    (np.zeros((0, 3)), "empty"),
    (cloud_at_z([0.0, np.nan]), "non-finite"),
    (cloud_at_z([0.0, np.inf]), "non-finite"),
], ids=["two_columns", "flat", "empty", "nan", "inf"])
def test_malformed_points_rejected(points, message):
    with pytest.raises(ValueError, match=message):
        slice_centroids(points, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    zs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=60),
    delta=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
)
def test_binning_partitions_the_cloud(zs, delta):
    s = slice_centroids(cloud_at_z(zs), delta)
    assert sum(len(b) for b in s.bins) == len(zs)
    z0 = s.z_origin
    z_by_x = {float(i): z for i, z in enumerate(zs)}
    for n, b in enumerate(s.bins):
        for x, _ in b:
            rel = z_by_x[float(x)] - z0
            # interval membership up to one representation ulp at the edges
            assert rel <= (n + 1) * delta * (1 + 1e-12) + 1e-300
            if n > 0:
                assert rel > n * delta * (1 - 1e-12) - 1e-300
    # each bin holds its points in cloud order, as a boolean mask picks them
    cloud = cloud_at_z(zs)
    rel = cloud[:, 2] - z0
    idx = np.maximum(np.ceil(rel / delta).astype(np.int64) - 1, 0)
    for n, b in enumerate(s.bins):
        np.testing.assert_array_equal(b, cloud[idx == n, :2])
