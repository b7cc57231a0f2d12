"""STL inputs shared by the tests: fixed meshes and a strategy of
mutated ASCII STL files."""

import numpy as np
from hypothesis import strategies as st

from earcanal.mesh import TriangleMesh

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


def random_mesh(n, seed=0):
    rng = np.random.default_rng(seed)
    # float32 grid so binary STL storage is exact
    verts = rng.normal(size=(n, 3, 3)).astype(np.float32).astype(np.float64)
    norms = rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
    return TriangleMesh(verts, norms)


def ascii_text(mesh: TriangleMesh) -> bytes:
    """ASCII STL with every value written as the shortest repr of its
    float64, the style of a file exported from float32 data."""
    facets = []
    for normal, tri in zip(mesh.normals, mesh.vertices):
        vertices = "".join(f"      vertex {x!r} {y!r} {z!r}\n" for x, y, z in tri.tolist())
        facets.append(f"  facet normal {' '.join(map(repr, normal.tolist()))}\n"
                      f"    outer loop\n{vertices}    endloop\n  endfacet\n")
    return ("solid scan\n" + "".join(facets) + "endsolid scan\n").encode()


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
