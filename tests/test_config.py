"""Pipeline configuration: the one source of every default, typed fields."""

import dataclasses
import inspect

import pytest

from earcanal import acoustics, analysis, ellipse, mesh, shape, synth
from earcanal.config import PipelineConfig

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
    "mode": "similarity_mode",
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
        "ExcitationSignal", "ImpulseResponse", "AcousticFeature", "generate_mls",
        "simulate_measurement", "recover_impulse_response", "trim_pre_rise",
        "butterworth_bandpass", "response_feature", "acoustic_similarity",
        "acoustic_similarity_matrix", "shape_center_fn", "shape_similarity",
        "shape_similarity_matrix", "generate_plant",
    }


def test_field_types_are_checked():
    assert PipelineConfig(delta_z=1, noise_rms=0).delta_z == 1  # JSON ints are numbers
    for field, value in (("takes", True), ("noise_rms", False), ("delta_z", "0.1"),
                         ("theta_samples", 3600.0), ("similarity_mode", 1)):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(**{field: value})
