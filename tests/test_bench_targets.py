"""Every function the benchmark's tracer wraps is still where it looks.

``perfbench/spans.py`` replaces each traced function at a module or
class attribute; a rename or removal there would only show in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)
TARGETS = [(owner, attr) for owner, attr, _name, _count in
           spans.PASS_TARGETS + spans.SETUP_TARGETS]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_traced_name_exists(owner, attr):
    assert attr in owner.__dict__
