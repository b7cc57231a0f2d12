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

# Not re-exports: ``import earcanal`` loads the whole library and binds
# earcanal.mesh and the other stage modules, and the benchmark's set-up
# time (perfbench/build_inputs.py) counts numpy's import through it.
from earcanal import acoustics, analysis, config, ellipse, mesh, shape, synth  # noqa: F401

__version__ = "0.1.0"
