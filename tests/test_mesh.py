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
    return TriangleMesh(verts, norms)


def test_ascii_parse_tetrahedron():
    mesh = parse_stl(ASCII_TETRA)
    assert mesh.n_triangles == 4
    assert mesh.vertices[0, 1, 0] == 1.0  # scientific notation token
    np.testing.assert_allclose(
        triangle_centroids(mesh), TETRA_CENTROIDS, rtol=0, atol=0)


def test_binary_matches_ascii():
    ascii_mesh = parse_stl(ASCII_TETRA)
    data = write_binary_stl(ascii_mesh)
    binary_mesh = parse_stl(data)
    np.testing.assert_array_equal(binary_mesh.vertices, ascii_mesh.vertices)
    np.testing.assert_array_equal(binary_mesh.normals, ascii_mesh.normals)


def test_binary_round_trip_exact():
    mesh = random_mesh(57)
    again = parse_stl(write_binary_stl(mesh))
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.normals, mesh.normals)


def test_binary_header_starting_with_solid_is_still_binary():
    mesh = random_mesh(3)
    # craft the header by hand; the writer's own header is not 'solid'
    body = write_binary_stl(mesh)
    data = b"solid-ish binary header".ljust(80, b"\0") + body[80:]
    parsed = parse_stl(data)
    np.testing.assert_array_equal(parsed.vertices, mesh.vertices)


@pytest.mark.parametrize("header", [b"SOLID binary header", b"Solid"])
def test_binary_header_starting_with_solid_in_any_case_is_still_binary(header):
    mesh = random_mesh(40, seed=2)
    data = header.ljust(80, b"\0") + write_binary_stl(mesh)[80:]
    parsed = parse_stl(data)
    np.testing.assert_array_equal(parsed.vertices, mesh.vertices)


@pytest.mark.parametrize("case", [bytes.upper, lambda w: w[:-2] + w[-2:].upper()],
                         ids=["capitals", "mixed"])
def test_ascii_detection_ignores_letter_case(case):
    for base in (ASCII_TETRA, ascii_text(random_mesh(30, seed=6))):
        want = parse_stl(base)
        got = parse_stl(spelled(base, b"\n", case))
        np.testing.assert_array_equal(got.vertices, want.vertices)
        np.testing.assert_array_equal(got.normals, want.normals)


@pytest.mark.parametrize("start", [65529, 65532, 65535, 65536])
def test_a_structure_word_across_a_lower_case_block_boundary_is_found(start):
    # the word's only occurrence starts at byte ``start``, next to a 64 KiB boundary
    data = b"solid " + b"n" * (start - 7) + b" EndSolid"
    with pytest.raises(StlParseError, match="ASCII STL contains no facets"):
        parse_stl(data)


def test_writer_header_does_not_start_with_solid():
    assert write_binary_stl(random_mesh(1))[:5].lower() != b"solid"


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
    return TriangleMesh(np.asarray(tris), np.asarray(norms))


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


def str_column_parse_ascii(data: bytes) -> TriangleMesh:
    """The column parser on the ``str`` tokens of a decoded copy, as it
    was before it split the bytes themselves."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise StlParseError(f"ASCII STL contains non-ASCII bytes: {exc}") from None
    tokens = text.split()
    words = {1: "normal", 5: "outer", 6: "loop", 7: "vertex", 11: "vertex",
             15: "vertex", 19: "endloop", 20: "endfacet"}
    numbers = (2, 3, 4, 8, 9, 10, 12, 13, 14, 16, 17, 18)

    def first_other_word(column, word):
        return next((i for i, tok in enumerate(column) if tok.lower() != word), None)

    if not tokens:
        raise StlParseError("truncated ASCII STL: unexpected end of file")
    if tokens[0].lower() != "solid":
        raise StlParseError(f"expected 'solid' in ASCII STL, got {tokens[0]!r}")
    first = 1
    while first < len(tokens) and tokens[first].lower() not in ("facet", "endsolid"):
        first += 1
    heads = tokens[first::21]
    n = first_other_word(heads, "facet")
    n = len(heads) if n is None else n
    end = first + 21 * n
    errors = {}
    if end >= len(tokens):
        errors[len(tokens)] = "truncated ASCII STL: unexpected end of file"
    elif tokens[end].lower() != "endsolid":
        errors[end] = f"expected 'facet' or 'endsolid', got {tokens[end].lower()!r}"
    for col, word in words.items():
        column = tokens[first + col : end : 21]
        bad = first_other_word(column, word)
        if bad is not None:
            errors[first + col + 21 * bad] = f"expected {word!r} in ASCII STL, got {column[bad]!r}"
    values = np.empty((len(numbers), n))
    for row, col in enumerate(numbers):
        column = tokens[first + col : end : 21]
        for i, tok in enumerate(column):
            try:
                values[row, i] = float(tok)
            except ValueError:
                errors[first + col + 21 * i] = f"expected a number in ASCII STL, got {tok!r}"
                break
    if errors:
        raise StlParseError(errors[min(errors)])
    if n == 0:
        raise StlParseError("ASCII STL contains no facets")
    return TriangleMesh(values[3:].T.reshape(n, 3, 3), values[:3].T)


def assert_same_outcome(got, want):
    """Equal error type and message, or bitwise-equal arrays."""
    if isinstance(want[0], type):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=mutated_stl())
def test_bytes_tokens_match_the_str_tokens(data):
    assert_same_outcome(outcome(_parse_ascii_stl, data), outcome(str_column_parse_ascii, data))


def spelled(data: bytes, sep: bytes, case) -> bytes:
    """``data`` with its tokens joined by ``sep`` and its keywords in the
    letter case ``case`` gives them, the solid name left as it is."""
    tokens = data.split()
    keywords = {b"solid", b"facet", b"normal", b"outer", b"loop", b"vertex", b"endloop",
                b"endfacet", b"endsolid"}
    return sep.join(case(t) if t.lower() in keywords else t for t in tokens)


@pytest.mark.parametrize("sep", [b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\t", b"\r",
                                 b"\r\n\t", b" \x1c\x1f\n"])
@pytest.mark.parametrize("case", [bytes.upper, bytes.capitalize, bytes.swapcase])
def test_valid_files_parse_as_the_str_tokens_do(sep, case):
    for base in (ASCII_TETRA, ascii_text(random_mesh(30, seed=6))):
        data = spelled(base.replace(b"solid scan", b"solid  multi token scan name"), sep, case)
        want = outcome(str_column_parse_ascii, data)
        assert not isinstance(want[0], type)
        assert_same_outcome(outcome(_parse_ascii_stl, data), want)


@pytest.mark.parametrize("data", [
    ASCII_TETRA.replace(b"unit tetra", "unit t\u00e9tra".encode()),
    ASCII_TETRA.replace(b"vertex 0 1 0", "vertex 0 1 \u2212".encode(), 1),
    ASCII_TETRA.replace(b"solid", b"SOLID\x1c", 1),
    b"solid\x1d",
    b"\x1fsolid x facet",
], ids=["non_ascii_name", "non_ascii_number", "separator_after_solid", "empty_solid",
        "leading_separator"])
def test_odd_bytes_give_the_str_token_message(data):
    assert_same_outcome(outcome(_parse_ascii_stl, data), outcome(str_column_parse_ascii, data))


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
    moved = triangle_centroids(TriangleMesh(mesh.vertices + offset, mesh.normals))
    base = triangle_centroids(mesh)
    np.testing.assert_allclose(moved - base - np.array([1.0, -2.0, 0.5]),
                               np.zeros_like(base), rtol=0, atol=1e-12)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", range(4))
def test_centroids_are_bitwise_the_vertex_mean(seed):
    rng = np.random.default_rng(seed)
    n = 5000
    # magnitudes from subnormal to 1e300, signed zeros, and sums that round
    verts = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.integers(-310, 301, size=(n, 3, 3))
    verts[rng.random((n, 3, 3)) < 0.05] = -0.0
    verts[:50] = rng.integers(-3, 4, size=(50, 3, 3)) * 0.1
    mesh = TriangleMesh(verts, np.zeros((n, 3)))
    np.testing.assert_array_equal(bits(triangle_centroids(mesh)), bits(verts.mean(axis=1)))


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
    assert [len(b) for b in s.bins] == [1, 1]  # bins from z 2.0, not 0


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
    z0 = min(zs)  # the default origin
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


def split_slices(points, delta_z, z_origin=None):
    """The bins as the argsort and ``np.split`` slicer made them."""
    z = points[:, 2]
    z_origin = float(z.min()) if z_origin is None else z_origin
    idx = np.ceil((z - z_origin) / delta_z).astype(np.int64) - 1
    idx[idx < 0] = 0
    order = np.argsort(idx, kind="stable")
    cuts = np.searchsorted(idx[order], np.arange(1, int(idx.max()) + 1))
    return np.split(points[order, :2], cuts)


@pytest.mark.parametrize("seed", range(6))
def test_bins_are_bitwise_the_split_bins(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    # clustered depths leave empty interior bins; some points sit on edges
    zs = rng.choice(rng.uniform(-5, 40, 12), n) + rng.normal(scale=0.3, size=n)
    zs[: n // 10] = np.round(zs[: n // 10], 1)
    points = np.column_stack([rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-5, 5, (n, 2)), zs])
    for delta_z, z_origin in [(0.1, None), (0.5, None), (0.1, zs.min() - 3.05), (0.25, -7.0)]:
        s = slice_centroids(points, delta_z, z_origin)
        want = split_slices(points, delta_z, z_origin)
        assert len(s.bins) == len(want)
        assert any(len(b) == 0 for b in want[1:-1]) or delta_z == 0.5
        for got, ref in zip(s.bins, want):
            assert got.shape == ref.shape and not got.flags.writeable
            np.testing.assert_array_equal(bits(got), bits(ref))


@pytest.mark.parametrize("zs", [[0.0, 1.0, 1e300], [0.0, 1e17]], ids=["overflow", "huge"])
def test_slice_count_is_bounded(zs):
    # 1e300 / 0.1 overflows the old int64 index into one slice of all points,
    # and 1e17 / 0.1 slices asked for exbibytes
    with pytest.raises(ValueError, match=r"slices of delta_z 0.1 for z from 0.0 to .*at most 1048576"):
        slice_centroids(cloud_at_z(zs), 0.1)


def test_slice_bound_counts_from_an_explicit_origin():
    s = slice_centroids(cloud_at_z([0.0, 1.0]), 0.5)
    assert len(s.bins) == 2
    with pytest.raises(ValueError, match="1.04858e\\+06 slices"):
        slice_centroids(cloud_at_z([0.0, 1.0]), 1.0, z_origin=-(2.0**20))
    with pytest.raises(ValueError, match="inf slices"):
        slice_centroids(cloud_at_z([0.0, 1.0]), 0.5, z_origin=-np.inf)
    with pytest.raises(ValueError, match="nan slices"):
        slice_centroids(cloud_at_z([0.0, 1.0]), 0.5, z_origin=np.nan)
