"""The benchmark's traced run wraps package functions by name.

``perfbench/spans.py`` lists every ``(module, attribute)`` it patches in
``PATCHES``; a name that moves or disappears breaks ``--trace 1`` runs only.
This test reads that list and checks each name is still where it points.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.PATCHES]


@pytest.mark.parametrize("module_name, attr", load_patches())
def test_patched_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
