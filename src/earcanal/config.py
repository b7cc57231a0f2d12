"""Resolved pipeline configuration, shared by every CLI command.

One frozen dataclass holds every tunable of both measurement chains, so
a run can be reproduced from the config JSON it writes next to its
outputs.  The representation round-trips losslessly through
``to_dict``/``from_dict``.  Its field defaults are the only place a
default is written down: ``DEFAULTS`` carries them to the keyword
defaults of the stage functions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class PipelineConfig:
    # shape chain
    delta_z: float = 0.1
    theta_samples: int = 3600
    min_slice_points: int = 5
    # acoustic chain
    sample_rate: int = 44100
    mls_order: int = 16
    repeats: int = 5
    takes: int = 10
    noise_rms: float = 0.5
    trim_threshold: float = 0.05
    band_low_hz: float = 100.0
    band_high_hz: float = 22000.0
    filter_order: int = 4
    feature_length: int = 2048
    similarity_mode: str = "vector"
    # shared
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, expected = getattr(self, f.name), type(f.default)
            # a float field also takes an int (JSON has one number type);
            # a bool is never a number here, though Python counts it an int
            accepted = (int, float) if expected is float else expected
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise TypeError(
                    f"{f.name} must be {expected.__name__}, got {type(value).__name__} {value!r}"
                )
        if self.delta_z <= 0:
            raise ValueError("delta_z must be positive")
        if self.theta_samples < 4:
            raise ValueError("theta_samples must be at least 4")
        if self.min_slice_points < 5:
            raise ValueError("min_slice_points must be at least 5 (an ellipse needs 5 points)")
        if not (2 <= self.mls_order <= 24):
            raise ValueError("mls_order must be between 2 and 24")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.takes < 1:
            raise ValueError("takes must be at least 1")
        if self.noise_rms < 0:
            raise ValueError("noise_rms must be nonnegative")
        if not (0.0 < self.trim_threshold < 1.0):
            raise ValueError("trim_threshold must be in (0, 1)")
        if self.feature_length < 1:
            raise ValueError("feature_length must be positive")
        if self.similarity_mode not in ("vector", "per_sample"):
            raise ValueError("similarity_mode must be 'vector' or 'per_sample'")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def to_dict(self) -> dict:
        d = {"schema": "pipeline_config/1"}
        d.update(asdict(self))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        extra = set(d) - known - {"schema"}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**{k: v for k, v in d.items() if k in known})

    def dump(self, path, command: str | None = None) -> None:
        d = self.to_dict()
        if command is not None:
            d["command"] = command
        Path(path).write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")


DEFAULTS = PipelineConfig()
