"""Every function the benchmark's traced run wraps still exists.

``perfbench/spans.py`` names the traced functions by module and attribute
path in ``LAYERS``; a refactor that drops or renames one would otherwise
only show when the benchmark runs with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer,target", sorted(_layers().items()))
def test_traced_name_resolves(layer, target):
    module_name, path = target
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = vars(obj)[part]  # as spans.py resolves it: no inherited names
    assert callable(obj), layer
