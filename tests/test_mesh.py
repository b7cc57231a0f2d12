"""STL parsing, centroid extraction, and z-slice binning."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earcanal import mesh as mesh_module
from earcanal.mesh import (
    StlParseError,
    TriangleMesh,
    _parse_ascii_stl,
    parse_stl,
    slice_centroids,
    triangle_centroids,
    write_binary_stl,
)
from stl_cases import ASCII_TETRA, ascii_text, mutated_stl, random_mesh

# face centroids of the unit tetrahedron, one per facet of ASCII_TETRA
TETRA_CENTROIDS = np.array([
    [1 / 3, 1 / 3, 0.0],
    [1 / 3, 0.0, 1 / 3],
    [0.0, 1 / 3, 1 / 3],
    [1 / 3, 1 / 3, 1 / 3],
])


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
    want = parse_stl(body)
    printable = np.random.default_rng(4).integers(0x20, 0x7F, 75, dtype=np.uint8).tobytes()
    # a binary file is its size, whatever structure words its header holds
    for header in (b"solid-ish binary header", b"solid part, 4800 facets",
                   b"SOLID exported FACET by FACET endsolid", b"solid" + printable):
        parsed = parse_stl(header.ljust(80, b"\0") + body[80:])
        assert parsed.vertices.tobytes() == want.vertices.tobytes(), header
        assert parsed.normals.tobytes() == want.normals.tobytes(), header


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
    # the file is not 84 + 50·n bytes long and starts with 'solid', so it
    # is ASCII; its one structure word starts at byte ``start``, next to a
    # 64 KiB boundary
    data = b"solid " + b"n" * (start - 7) + b" EndSolid"
    with pytest.raises(StlParseError, match="ASCII STL contains no facets"):
        parse_stl(data)


def test_short_solid_files_are_ascii_at_every_length():
    # below 84 bytes no file is binary by its size, and from 84 on these
    # spaces declare 0x20202020 facets, so each is an empty ASCII solid
    for n in range(19, 121):
        with pytest.raises(StlParseError, match="^ASCII STL contains no facets$"):
            parse_stl(b"solid a\nendsolid a\n".ljust(n))


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


def outcome(parse, data: bytes):
    try:
        mesh = parse(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return mesh.vertices, mesh.normals


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


def parse_in_blocks(data: bytes, byte_range: int):
    """The outcome of the ASCII parser splitting ``byte_range`` bytes at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "_LOWER_BLOCK", byte_range)
        return outcome(_parse_ascii_stl, data)


# a one-byte range is shorter than any token but one-letter ones, so
# nearly every range ends at the separator after a single token
BLOCKINGS = [1, 2, 3, 5, 7, 40, 1 << 16]


@pytest.mark.parametrize("byte_range", BLOCKINGS)
@settings(max_examples=100, deadline=None)
@given(data=mutated_stl())
def test_blocks_match_the_token_reader(byte_range, data):
    assert_same_outcome(parse_in_blocks(data, byte_range), outcome(reference_parse_ascii, data))


def test_block_edges_change_nothing():
    # a name over many ranges, separators 0x1c-0x1f, endsolid right at a
    # range edge, junk after endsolid, names holding 'facet' in longer
    # tokens, a name that ends at a separator 0x1c, and a first 'facet'
    # at byte 64, a range edge
    base = ascii_text(random_mesh(12, seed=8))
    named = base.replace(b"solid scan", b"solid " + b" ".join([b"long", b"name"] * 30))
    body = ASCII_TETRA[ASCII_TETRA.index(b"facet"):]
    for data in (ASCII_TETRA, ASCII_TETRA + b"solid junk facet zero", named,
                 spelled(named, b"\x1c\n\x1f", bytes.upper), b"solid x endsolid x",
                 b"solid x FACETS xfacet " + body, b"solid\x1c" + body,
                 b"solid " + b"n" * 57 + b" " + body):
        want = outcome(reference_parse_ascii, data)
        for byte_range in (1, 2, 3, 5, 7, 40, 64, 1 << 16):
            assert_same_outcome(parse_in_blocks(data, byte_range), want)


@pytest.mark.parametrize("byte_range", BLOCKINGS)
def test_truncation_at_every_byte_in_blocks(byte_range):
    for cut in range(len(ASCII_TETRA)):
        data = ASCII_TETRA[:cut]
        assert_same_outcome(parse_in_blocks(data, byte_range), outcome(reference_parse_ascii, data))


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


@pytest.mark.parametrize("seed", range(3))
def test_float32_centroids_are_bitwise_the_float64_mean(seed):
    rng = np.random.default_rng(seed)
    n = 4000
    big = np.finfo(np.float32).max
    tiny = np.finfo(np.float32).smallest_subnormal
    verts = (rng.normal(size=(n, 3, 3)) * 10.0 ** rng.integers(-45, 38, size=(n, 3, 3)))
    verts = verts.astype(np.float32)
    verts[rng.random((n, 3, 3)) < 0.05] = -0.0
    verts[:10] = -0.0  # all-negative-zero triangles
    verts[10:20] = rng.choice([big, -big], size=(10, 3, 3))  # float32 sums overflow here
    verts[20:30] = tiny * rng.integers(-40, 40, size=(10, 3, 3))  # float32 subnormals
    verts[30:40] = rng.integers(-3, 4, size=(10, 3, 3)) * np.float32(0.1)
    mesh = TriangleMesh(verts, np.zeros((n, 3), dtype=np.float32))
    assert mesh.vertices.dtype == np.float32
    cloud = triangle_centroids(mesh)
    assert cloud.dtype == np.float64 and np.isfinite(cloud).all()
    np.testing.assert_array_equal(bits(cloud), bits(verts.astype(np.float64).mean(axis=1)))


def test_binary_mesh_is_float32_views_of_the_file():
    data = write_binary_stl(random_mesh(30, seed=3))
    mesh = parse_stl(data)
    for a in (mesh.vertices, mesh.normals):
        assert a.dtype == np.float32 and not a.flags.writeable and not a.flags.owndata
    assert mesh.vertices.base is not None
    ascii_mesh = parse_stl(ASCII_TETRA)
    assert ascii_mesh.vertices.dtype == ascii_mesh.normals.dtype == np.float64


def test_binary_parse_and_centroids_hold_no_float64_mesh(tmp_path):
    n = 50_000
    path = tmp_path / "scan.stl"
    path.write_bytes(write_binary_stl(random_mesh(n, seed=1)))
    tracemalloc.start()
    try:
        cloud = triangle_centroids(parse_stl(path.read_bytes()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes and the centroids: a float64 copy of the
    # vertices alone would add 72 bytes a facet
    assert peak < 1.1 * (path.stat().st_size + cloud.nbytes)


def test_ascii_parse_memory_grows_only_by_its_output():
    peaks, sizes = [], []
    for n in (4096, 4 * 4096):
        data = b"\n" + ascii_text(random_mesh(n, seed=2))  # a blank line first, as is common
        tracemalloc.start()
        try:
            mesh = parse_stl(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(mesh.vertices.nbytes + mesh.normals.nbytes)
        del mesh
    # every token of the file at once would add about 1 KB a facet
    assert peaks[1] - peaks[0] < 1.1 * (sizes[1] - sizes[0])


def cloud_at_z(zs):
    zs = np.asarray(zs, dtype=np.float64)
    pts = np.zeros((len(zs), 3))
    pts[:, 2] = zs
    pts[:, 0] = np.arange(len(zs))  # distinct x so points stay identifiable
    return pts


def test_boundary_points_fall_in_lower_bin():
    # delta_z 0.5 is exactly representable, so the edges are exact floats
    s = slice_centroids(cloud_at_z([0.0, 0.25, 0.5, 0.5 + 1e-9, 1.0, 1.2]), 0.5)
    assert s.bins.tolist() == [3, 2, 1]  # {0, .25, .5}, {.5+eps, 1.0}, {1.2}
    assert s.xy[:3, 0].tolist() == [0.0, 1.0, 2.0]
    assert s.xy.shape == (6, 2) and s.bins.dtype == np.int64
    assert not s.xy.flags.writeable and not s.bins.flags.writeable


def test_origin_point_kept_in_bin_zero():
    s = slice_centroids(cloud_at_z([2.0, 2.7]), 0.5)
    assert s.bins.tolist() == [1, 1]  # bins from z 2.0, not 0


def test_empty_interior_bins_retained():
    s = slice_centroids(cloud_at_z([0.1, 1.9]), 0.5)
    assert s.bins.tolist() == [1, 0, 0, 1]
    assert s.xy.shape == (2, 2)


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
    assert s.bins.sum() == len(s.xy) == len(zs)
    z0 = min(zs)  # the default origin
    z_by_x = {float(i): z for i, z in enumerate(zs)}
    for n, b in enumerate(per_slice(s)):
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
    for n, b in enumerate(per_slice(s)):
        np.testing.assert_array_equal(b, cloud[idx == n, :2])


def per_slice(s):
    """Each slice of ``s`` as its own (k, 2) view of ``s.xy``."""
    return np.split(s.xy, np.cumsum(s.bins)[:-1])


def split_slices(points, delta_z):
    """The bins as the argsort and ``np.split`` slicer made them."""
    z = points[:, 2]
    idx = np.ceil((z - z.min()) / delta_z).astype(np.int64) - 1
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
    for delta_z in (0.1, 0.5):
        s = slice_centroids(points, delta_z)
        want = split_slices(points, delta_z)
        assert s.bins.tolist() == [len(b) for b in want]
        assert any(len(b) == 0 for b in want[1:-1]) or delta_z == 0.5
        assert not s.xy.flags.writeable and not s.bins.flags.writeable
        np.testing.assert_array_equal(bits(s.xy), bits(np.concatenate(want)))


def test_any_memory_layout_slices_alike():
    rng = np.random.default_rng(4)
    points = np.column_stack([rng.normal(size=(500, 2)), rng.uniform(0, 5, 500)])
    want = slice_centroids(points, 0.25)
    for layout in (np.asfortranarray(points), np.repeat(points, 2, axis=0)[::2]):
        got = slice_centroids(layout, 0.25)
        np.testing.assert_array_equal(got.bins, want.bins)
        np.testing.assert_array_equal(bits(got.xy), bits(want.xy))


@pytest.mark.parametrize("zs", [[0.0, 1.0, 1e300], [0.0, 1e17]], ids=["overflow", "huge"])
def test_slice_count_is_bounded(zs):
    # 1e300 / 0.1 overflows the old int64 index into one slice of all points,
    # and 1e17 / 0.1 slices asked for exbibytes
    with pytest.raises(ValueError, match=r"slices of delta_z 0.1 for z from 0.0 to .*at most 1048576"):
        slice_centroids(cloud_at_z(zs), 0.1)


def test_slice_bound_names_the_count():
    s = slice_centroids(cloud_at_z([0.0, 1.0]), 0.5)
    assert len(s.bins) == 2
    with pytest.raises(ValueError, match="1.04858e\\+06 slices"):
        slice_centroids(cloud_at_z([0.0, 2.0**20 + 1]), 1.0)
    with pytest.raises(ValueError, match="inf slices"):
        slice_centroids(cloud_at_z([0.0, 1.0]), 5e-324)
    with pytest.raises(ValueError, match="nan slices"):
        slice_centroids(cloud_at_z([0.0, 1.0]), np.nan)
