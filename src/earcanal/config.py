"""Resolved pipeline configuration, shared by every CLI command.

One frozen dataclass holds every tunable of both measurement chains, so
a run can be reproduced from the config JSON it writes next to its
outputs.  Its field defaults are the only place a default is written
down: ``DEFAULTS`` carries them to the keyword defaults of the stage
functions.

The module also holds the rules the value types and writers share.
:class:`Record` is the JSON rule of the types read from JSON: the config
here, and the canal and plant generators of ``earcanal.synth``.
:func:`json_text` is the text of every JSON file written, and
:func:`check_subject_id` the one rule for a subject id, which names
files and heads a row of a similarity CSV.
:func:`readonly_view` is how a type that holds an array stores it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, get_type_hints

import numpy as np


# The largest absolute tap sum of a plant and the largest noise_rms.  At
# mls_order 24 (periods under 2**24 samples) every intermediate of the
# acoustic chain then stays finite: a recorded sample is under 2e101 (the
# taps' sum plus a noise tail under 10 * noise_rms); the Hadamard sums and
# the recovered response stay under 2**24 * 2e101 < 1e109; the
# minimum-phase spectrum under 2**24 * 1e109 < 1e117, and so its output;
# the bandpass multiplies by its own tap sum (2.8 for the default
# design); and the unit-power sum of squares of up to 1e70 such samples
# stays below 1e306.
MAX_LEVEL = 1e100

# The largest input file the CLI reads, in bytes, checked before the
# file is read.  A million-facet ASCII STL written at 17 significant
# digits is about 300 MB (the benchmark's 32k-facet one is 9.7 MB).
MAX_INPUT_BYTES = 2**30


def readonly_view(a, dtype=np.float64) -> np.ndarray:
    """A read-only ``dtype`` view of ``a``.  It copies only what is not
    already contiguous ``dtype``, and it never freezes the caller's array."""
    v = np.ascontiguousarray(a, dtype=dtype).view()
    v.flags.writeable = False
    return v


def check_subject_id(sid: str) -> None:
    """Raise ValueError unless the subject id ``sid`` can name output
    files inside one directory and head a row of a similarity CSV."""
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ValueError(
            f"subject id {sid!r} is not a plain file name "
            "(empty, '.', '..', or holding '/', '\\' or NUL)"
        )
    # a similarity CSV is split at ',' and line breaks, and skips lines
    # that start with '#'
    if "," in sid or sid.splitlines() != [sid] or sid.startswith("#"):
        raise ValueError(
            f"subject id {sid!r} cannot be a similarity CSV cell "
            "(holding ',' or a line break, or starting with '#')"
        )


def json_text(obj) -> str:
    """The text of a JSON output file: sorted keys, two-space indent and
    a final newline, so reruns write identical bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_a(value, types) -> bool:
    # a bool is never a number here, though Python counts it an int
    return isinstance(value, types) and not isinstance(value, bool)


# evaluating the annotations takes 20 times as long as the checks
_field_types = functools.cache(get_type_hints)


class Record:
    """Base of a frozen dataclass that round-trips through JSON.

    ``to_dict`` tags the fields with the class's ``schema``;
    ``from_dict`` skips the ``tags`` a written record carries beside its
    fields, rejects any other unknown key and reads JSON lists as tuples.
    Each field is checked against its annotation on construction: a
    float field also takes an int (JSON has one number type), a bool is
    never a number, a tuple field must hold numbers, and no float may be
    infinite or NaN, as ``json`` reads ``Infinity``, ``NaN`` and ``1e400``.
    """

    schema: ClassVar[str]
    tags: ClassVar[frozenset] = frozenset({"schema"})

    def __post_init__(self) -> None:
        hints = _field_types(type(self))
        for f in fields(self):
            value, expected = getattr(self, f.name), hints[f.name]
            if not _is_a(value, (int, float) if expected is float else expected):
                raise TypeError(
                    f"{f.name} must be {expected.__name__}, got {type(value).__name__} {value!r}"
                )
            if expected is tuple and not all(_is_a(v, (int, float)) for v in value):
                raise TypeError(f"{f.name} must hold numbers, got {value!r}")
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if expected is tuple else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return {"schema": self.schema, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict):
        # "pipeline_config/1" -> "config", "plant/1" -> "plant"
        noun = cls.schema.split("/")[0].split("_")[-1]
        if not isinstance(d, dict):
            raise TypeError(f"a {noun} must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        extra = set(d) - known - cls.tags
        if extra:
            raise ValueError(f"unknown {noun} fields: {sorted(extra)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in d.items() if k in known})


@dataclass(frozen=True)
class PipelineConfig(Record):
    schema = "pipeline_config/1"
    # a written config.json names the command that wrote it
    tags = frozenset({"schema", "command"})

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
    # shared
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
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
        if not (0 <= self.noise_rms <= MAX_LEVEL):
            raise ValueError(f"noise_rms must be in [0, {MAX_LEVEL:g}]")
        if not (0.0 < self.trim_threshold < 1.0):
            raise ValueError("trim_threshold must be in (0, 1)")
        if self.feature_length < 1:
            raise ValueError("feature_length must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


DEFAULTS = PipelineConfig()
