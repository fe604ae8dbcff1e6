"""The benchmark's tracer wraps library functions by name.

Claim: every (module, attribute) that ``perfbench/tracing.py`` lists in
``TRACED`` and ``COUNTED`` resolves on the installed ``inblock``, so deleting
or renaming one of them fails here and not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attribute) for module, attribute, _name
            in (*tracing.TRACED, *tracing.COUNTED)]


@pytest.mark.parametrize("module, attribute", traced_names())
def test_traced_name_resolves(module, attribute):
    target = importlib.import_module(f"inblock.{module}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
