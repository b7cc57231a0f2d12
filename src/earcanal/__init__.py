"""Ear-canal geometry and acoustics similarity pipeline.

Two measurement chains feed a correlation analysis:

* shape: STL mesh -> triangle centroids -> thin z-slices -> per-slice
  ellipse fits -> slice-center track -> rotation-maximized cosine
  similarity between canals.
* acoustics: maximum length sequence excitation -> impulse response
  recovery -> trimmed, minimum-phase, band-limited, unit-power response
  feature -> cosine similarity between responses.

``earcanal.analysis`` relates the two with per-subject least-squares
regressions; ``earcanal.synth`` generates linked synthetic canal/plant
families so the pipeline can be exercised end to end without scan or
audio data.
"""

from earcanal.mesh import (
    SliceSet,
    StlParseError,
    TriangleMesh,
    parse_stl,
    slice_centroids,
    triangle_centroids,
    write_binary_stl,
)
from earcanal.ellipse import Ellipse, EllipseFitError, conic_to_geometric, fit_ellipse
from earcanal.shape import (
    ShapeCenterFn,
    ShapeSimilarity,
    shape_center_fn,
    shape_similarity,
    shape_similarity_matrix,
)
from earcanal.acoustics import (
    AcousticFeature,
    ExcitationSignal,
    ImpulseResponse,
    acoustic_similarity,
    acoustic_similarity_matrix,
    applied_band,
    butterworth_bandpass,
    generate_mls,
    minimum_phase,
    normalize_power,
    recover_impulse_response,
    response_feature,
    simulate_measurement,
    trim_pre_rise,
)
from earcanal.analysis import (
    MatrixStatistics,
    RegressionResult,
    SimilarityMatrix,
    emit_report,
    linear_regression,
    matrix_statistics,
    regress_all_subjects,
)
from earcanal.synth import (
    CanalGenerator,
    PlantGenerator,
    SubjectFamily,
    SubjectSpec,
    generate_canal_mesh,
    generate_plant,
    make_subject_family,
)
from earcanal.config import PipelineConfig

__version__ = "0.1.0"

__all__ = [
    "AcousticFeature",
    "CanalGenerator",
    "Ellipse",
    "EllipseFitError",
    "ExcitationSignal",
    "ImpulseResponse",
    "MatrixStatistics",
    "PipelineConfig",
    "PlantGenerator",
    "RegressionResult",
    "ShapeCenterFn",
    "ShapeSimilarity",
    "SimilarityMatrix",
    "SliceSet",
    "StlParseError",
    "SubjectFamily",
    "SubjectSpec",
    "TriangleMesh",
    "acoustic_similarity",
    "acoustic_similarity_matrix",
    "applied_band",
    "butterworth_bandpass",
    "conic_to_geometric",
    "emit_report",
    "fit_ellipse",
    "generate_canal_mesh",
    "generate_mls",
    "generate_plant",
    "linear_regression",
    "make_subject_family",
    "matrix_statistics",
    "minimum_phase",
    "normalize_power",
    "parse_stl",
    "recover_impulse_response",
    "regress_all_subjects",
    "response_feature",
    "shape_center_fn",
    "shape_similarity",
    "shape_similarity_matrix",
    "simulate_measurement",
    "slice_centroids",
    "triangle_centroids",
    "trim_pre_rise",
    "write_binary_stl",
]
