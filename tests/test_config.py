"""Pipeline configuration: the one source of every default, typed fields."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from earcanal import acoustics, analysis, ellipse, mesh, shape, synth
from earcanal.config import PipelineConfig
from earcanal.synth import CanalGenerator, PlantGenerator

# stage keyword -> the PipelineConfig field whose default it mirrors
MIRRORS = {
    "sample_rate": "sample_rate",
    "repeats": "repeats",
    "threshold_fraction": "trim_threshold",
    "trim_threshold": "trim_threshold",
    "low_hz": "band_low_hz",
    "high_hz": "band_high_hz",
    "filter_order": "filter_order",
    "feature_length": "feature_length",
    "grid_size": "theta_samples",
    "min_points": "min_slice_points",
}


def test_stage_defaults_mirror_the_config():
    config = PipelineConfig()
    mirrored = set()
    for module in (acoustics, analysis, ellipse, mesh, shape, synth):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.name in MIRRORS and param.default is not param.empty:
                    assert param.default == getattr(config, MIRRORS[param.name]), (name, param.name)
                    mirrored.add(name)
    # the walk reaches every stage that has such a default
    assert mirrored == {
        "simulate_measurement", "recover_impulse_response", "trim_pre_rise",
        "butterworth_bandpass", "response_feature", "shape_center_fn",
        "shape_similarity", "shape_similarity_matrix", "generate_plant",
    }


def test_field_types_are_checked():
    assert PipelineConfig(delta_z=1, noise_rms=0).delta_z == 1  # JSON ints are numbers
    for field, value in (("takes", True), ("noise_rms", False), ("delta_z", "0.1"),
                         ("theta_samples", 3600.0)):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(**{field: value})


@pytest.mark.parametrize("record, schema", [
    (PipelineConfig(delta_z=0.25, noise_rms=0, seed=3), "pipeline_config/1"),
    (PlantGenerator((900.0, 1800.0), (5.0, 6.0), (1.0, 0.8),
                    tap_count=1024, seed=4, direct_gain=0.1), "plant/1"),
    (CanalGenerator(centerline={"kind": "spiral", "drift_per_mm": 0.3, "rate": 0.2,
                                "curl": 0.005, "phase": 1.0},
                    radius_coeffs=(3.2, -0.02), length=8.0, seed=7), "canal_generator/1"),
], ids=["config", "plant", "canal"])
def test_record_json_round_trip(record, schema):
    d = json.loads(json.dumps(record.to_dict()))
    assert d["schema"] == schema
    assert type(record).from_dict(d) == record


@pytest.mark.parametrize("make, arrays", [
    (lambda s: acoustics.ExcitationSignal(s, 2), [np.ones(3)]),
    (lambda v, n: mesh.TriangleMesh(v, n), [np.zeros((1, 3, 3)), np.zeros((1, 3))]),
    (lambda v, s: analysis.SimilarityMatrix(("a", "b"), v, s),
     [np.array([[np.nan, 0.5], [0.5, np.nan]]), np.zeros((2, 2))]),
    (lambda c, r, i: shape.ShapeCenterFn(0.1, c, r, i),
     [np.zeros((2, 2)), np.zeros((2, 2)), np.array([1], dtype=np.int64)]),
], ids=["excitation", "mesh", "matrix", "center_fn"])
def test_stored_arrays_are_frozen_views_of_the_callers(make, arrays):
    value = make(*arrays)
    stored = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
    assert len(stored) == len(arrays)
    for s, a in zip(stored, arrays):
        assert not s.flags.writeable and np.shares_memory(s, a)  # no copy
        a.flat[0] = 0.25  # the caller's array stays writeable
