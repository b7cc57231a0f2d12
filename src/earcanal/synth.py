"""Synthetic paired ground truth: canal meshes and matched acoustic plants.

Real canal geometry and in-ear recordings are not reproducible at desk
scale, so this module builds families of artificial subjects whose
geometry and acoustics are driven by one shared latent parameter vector
per subject.  A twin pair is a base subject plus a small perturbation of
the same latent vector; because both the canal centerline and the plant
resonances are functions of that vector, geometric closeness and
acoustic closeness rise and fall together, which is exactly the
structure the correlation pipeline is meant to detect.

The link is parametric, not physical: no wave equation is solved.  That
is sufficient to exercise the statistics end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from earcanal.config import DEFAULTS, Record
from earcanal.mesh import TriangleMesh

_DECAY_FLOOR = 1e-6


@dataclass(frozen=True)
class CanalGenerator(Record):
    """Parametric tube: a centerline curve swept with a radius profile.

    ``centerline`` is the spiral ``{"kind": "spiral", "drift_per_mm":
    mm/mm, "rate": rad/mm, "curl": rad/mm^2, "phase": rad}``, the curve
    ``drift_per_mm * z * exp(i*(phase + rate*z + curl*z^2))``: its
    direction relative to the entrance rotates linearly plus
    quadratically with depth, which makes the direction profile, the
    quantity shape similarity compares, an explicit two-parameter
    family.  A ``drift_per_mm`` of 0 is a straight tube.

    ``radius_coeffs`` is the tube radius polynomial in z, which must stay
    positive over [0, length].  ``rings`` counts quad bands along the
    tube, so the facet count is exactly 2 * facets_per_ring * rings.
    The seed only rotates the azimuthal sampling phase; it changes the
    mesh bytes but not the geometry's slice centers.
    """

    schema = "canal_generator/1"

    centerline: dict
    radius_coeffs: tuple
    length: float
    facets_per_ring: int = 30
    rings: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        kind = self.centerline.get("kind")
        if kind != "spiral":
            raise ValueError(f"centerline kind must be 'spiral', got {kind!r}")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.facets_per_ring < 3:
            raise ValueError("facets_per_ring must be at least 3")
        if self.rings < 1:
            raise ValueError("rings must be at least 1")

    def centerline_xy(self, z):
        """Centerline (x, y) at depth(s) z."""
        z = np.asarray(z, dtype=np.float64)
        c = self.centerline
        drift = float(c["drift_per_mm"])
        ang = float(c["phase"]) + float(c["rate"]) * z + float(c["curl"]) * z * z
        return drift * z * np.cos(ang), drift * z * np.sin(ang)

    def radius(self, z):
        z = np.asarray(z, dtype=np.float64)
        return np.polynomial.polynomial.polyval(z, np.asarray(self.radius_coeffs))


@dataclass(frozen=True)
class PlantGenerator(Record):
    """Parallel two-pole resonator bank plus an optional direct path.

    Tap n of the impulse response is
    ``direct_gain*delta[n] + sum_i gains[i] * r_i**n * sin(w_i n + phase_i)``
    with pole radius ``r_i = exp(-pi f_i / (Q_i fs))``, the classic
    bandwidth-Q relation.  Phases are drawn once from the seed, so a
    family of subjects can share its phase draw while differing in
    frequencies, Qs, and gains.
    """

    schema = "plant/1"

    resonance_frequencies: tuple
    q_factors: tuple
    gains: tuple
    tap_count: int = 2048
    seed: int = 0
    direct_gain: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        f, q = self.resonance_frequencies, self.q_factors
        if not (len(f) == len(q) == len(self.gains)):
            raise ValueError("frequencies, q_factors, and gains must have equal lengths")
        if any(v <= 0 for v in f) or any(v <= 0 for v in q):
            raise ValueError("resonance frequencies and Q factors must be positive")
        if self.tap_count < 1:
            raise ValueError("tap_count must be positive")


@dataclass(frozen=True)
class SubjectSpec:
    """One synthetic subject: an id with its linked generators."""

    subject_id: str
    canal: CanalGenerator
    plant: PlantGenerator


@dataclass(frozen=True)
class SubjectFamily:
    """A twin pair plus independent subjects, from one base seed."""

    subjects: tuple
    base_seed: int
    perturbation: float
    twin_pair: tuple

    def __iter__(self):
        return iter(self.subjects)

    def to_dict(self) -> dict:
        return {
            "schema": "subject_family/1",
            "base_seed": self.base_seed,
            "perturbation": self.perturbation,
            "twin_pair": list(self.twin_pair),
            "subjects": [
                {"subject_id": s.subject_id, "canal": s.canal.to_dict(), "plant": s.plant.to_dict()}
                for s in self.subjects
            ],
        }


def generate_canal_mesh(gen: CanalGenerator) -> TriangleMesh:
    """Triangulated open tube around the generator's centerline.

    Vertex rings are planar (constant z), evenly spaced along the depth
    axis, each with ``facets_per_ring`` vertices; consecutive rings are
    stitched with two triangles per quad, giving exactly
    ``2 * facets_per_ring * rings`` facets, all finite and watertight
    along the body.  Output is deterministic for a fixed generator.
    """
    z = np.linspace(0.0, gen.length, gen.rings + 1)
    r = gen.radius(z)
    if np.any(r <= 0):
        raise ValueError("radius profile must stay positive over the tube length")
    cx, cy = gen.centerline_xy(z)
    phase = np.random.default_rng(gen.seed).uniform(0.0, 2.0 * np.pi)
    ang = 2.0 * np.pi * np.arange(gen.facets_per_ring) / gen.facets_per_ring + phase
    # verts[k, j] = ring k, azimuth j
    verts = np.empty((gen.rings + 1, gen.facets_per_ring, 3))
    verts[:, :, 0] = cx[:, None] + r[:, None] * np.cos(ang)[None, :]
    verts[:, :, 1] = cy[:, None] + r[:, None] * np.sin(ang)[None, :]
    verts[:, :, 2] = z[:, None]

    lo = verts[:-1]
    hi = verts[1:]
    lo_next = np.roll(lo, -1, axis=1)
    hi_next = np.roll(hi, -1, axis=1)
    t1 = np.stack([lo, lo_next, hi], axis=2)
    t2 = np.stack([lo_next, hi_next, hi], axis=2)
    tris = np.concatenate([t1, t2], axis=2).reshape(-1, 3, 3)

    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return TriangleMesh(tris, normals / norms)


def generate_plant(gen: PlantGenerator, sample_rate: int = DEFAULTS.sample_rate) -> np.ndarray:
    """Impulse response of the resonator bank, truncated at tap_count.

    Every resonance must sit below Nyquist, every tap must be finite (huge
    gains overflow), and the response must have decayed below 1e-6 of its
    peak by the end of the window; a slow resonance with too few taps is
    an error rather than a silent truncation artifact.
    """
    nyq = sample_rate / 2.0
    for f in gen.resonance_frequencies:
        if f >= nyq:
            raise ValueError(f"resonance {f} Hz is at or beyond Nyquist ({nyq} Hz)")
    n = np.arange(gen.tap_count, dtype=np.float64)
    h = np.zeros(gen.tap_count)
    if gen.direct_gain:
        h[0] = gen.direct_gain
    phases = np.random.default_rng(gen.seed).uniform(
        0.0, 2.0 * np.pi, len(gen.resonance_frequencies)
    )
    # an overflowing sum is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for f, q, g, ph in zip(gen.resonance_frequencies, gen.q_factors, gen.gains, phases):
            radius = np.exp(-np.pi * f / (q * sample_rate))
            w = 2.0 * np.pi * f / sample_rate
            h = h + g * radius**n * np.sin(w * n + ph)
    if not np.isfinite(h).all():
        raise ValueError("plant generator produced non-finite taps; lower the gains")
    peak = np.abs(h).max()
    if peak == 0.0:
        raise ValueError("plant generator produced a zero response")
    tail = np.abs(h[-max(1, gen.tap_count // 64):]).max()
    if gen.resonance_frequencies and tail > _DECAY_FLOOR * peak:
        raise ValueError(
            f"response has not decayed below {_DECAY_FLOOR:g} of peak within "
            f"{gen.tap_count} taps; increase tap_count or lower the Q factors"
        )
    return h


def _latent_mixes(u: np.ndarray):
    """Two bounded scalar summaries of a latent vector.

    Both the canal map and the plant map are driven primarily by these
    same two mixes.  Shape similarity measures the direction profile
    (rate and curl below) and acoustic similarity measures resonance
    placement; sharing the drivers makes the two distances rise and
    fall together for every pair of subjects, not just for twins.
    """
    s1 = u.sum() / np.sqrt(6.0)
    s2 = (u * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])).sum() / np.sqrt(6.0)
    return np.tanh(s1 / 1.2), np.tanh(s2 / 1.2)


def _canal_from_latent(u: np.ndarray, seed: int) -> CanalGenerator:
    b1, b2 = _latent_mixes(u)
    # The spiral's rate and curl set how the drift direction rotates
    # with depth, which is the profile shape similarity compares; the
    # entrance phase and the drift magnitude are invisible to it (phase
    # is absorbed by the rotation search, magnitude by using angles).
    centerline = {
        "kind": "spiral",
        "drift_per_mm": 0.32 * np.exp(0.25 * np.tanh(u[1])),
        "rate": 0.18 + 0.12 * b1,
        "curl": 0.0073 * b2,
        "phase": 1.5 * u[2],
    }
    # radius stays in roughly 2.6..3.7 mm over the full length
    radius = (3.4 + 0.25 * np.tanh(u[4]), -0.045 + 0.02 * np.tanh(u[5]))
    return CanalGenerator(
        centerline=centerline,
        radius_coeffs=radius,
        length=8.0,
        facets_per_ring=30,
        rings=80,
        seed=seed,
    )


def _plant_from_latent(u: np.ndarray, phase_seed: int) -> PlantGenerator:
    b1, b2 = _latent_mixes(u)
    base_f = np.array([900.0, 1900.0, 3300.0, 5200.0])
    # b1 scales all resonances together, b2 spreads them in an
    # alternating pattern, and a small per-slot term keeps subjects
    # unique.  The b1:b2 weight ratio matches the canal map's rate:curl
    # dispersion ratio so pair orderings agree across the two domains.
    spread = np.array([1.0, -1.0, 1.0, -1.0])
    freqs = base_f * np.exp(0.14 * b1 + 0.07 * b2 * spread + 0.02 * np.tanh(u[:4]))
    qs = 5.5 + 1.5 * np.tanh(u[[4, 5, 0, 1]])
    gains = np.exp(0.3 * np.tanh(u[[2, 3, 4, 5]]))
    return PlantGenerator(
        resonance_frequencies=tuple(freqs),
        q_factors=tuple(qs),
        gains=tuple(gains),
        tap_count=2048,
        seed=phase_seed,
        direct_gain=0.0,
    )


def _letters(n: int) -> str:
    """Bijective base-26 letters: 1 -> a, 26 -> z, 27 -> aa, 28 -> ab."""
    out = ""
    while n > 0:
        n, r = divmod(n - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def make_subject_family(
    base_seed: int,
    perturbation: float = 0.02,
    n_independent: int = 2,
) -> SubjectFamily:
    """Twin pair plus independent subjects with linked geometry/acoustics.

    Each subject is a latent vector u mapped to both a canal generator
    and a plant generator.  The twins share one latent vector up to a
    perturbation of the given relative size; independents get fresh
    draws.  All plants in the family share one phase seed, so acoustic
    differences come only from the latent-driven resonance parameters.
    Independent subjects are named ``subject_c`` through ``subject_z``,
    then ``subject_aa``, ``subject_ab``, and so on.
    """
    if not (0.0 <= perturbation <= 0.5):
        raise ValueError(f"perturbation must be within [0, 0.5], got {perturbation}")
    if n_independent < 0:
        raise ValueError("n_independent must be nonnegative")
    ss = np.random.SeedSequence(base_seed)
    rng = np.random.default_rng(ss)
    phase_seed = int(ss.generate_state(1, dtype=np.uint32)[0])

    u_base = rng.normal(size=6)
    direction = rng.normal(size=6)
    latents = [("twin_a", u_base), ("twin_b", u_base + perturbation * direction)]
    for k in range(n_independent):
        latents.append((f"subject_{_letters(k + 3)}", rng.normal(size=6)))

    subjects = []
    for idx, (sid, u) in enumerate(latents):
        subjects.append(
            SubjectSpec(
                subject_id=sid,
                canal=_canal_from_latent(u, seed=base_seed * 1000 + idx),
                plant=_plant_from_latent(u, phase_seed=phase_seed),
            )
        )
    return SubjectFamily(tuple(subjects), int(base_seed), float(perturbation), ("twin_a", "twin_b"))
