"""The benchmark's tracer wraps library functions by name.

Claim: every (module, attribute) that ``perfbench/tracing.py`` lists in
``TRACED`` and ``COUNTED`` resolves on the installed ``inblock``, so deleting
or renaming one of them fails here and not only in a traced benchmark run.
The tracer's ``model.trees`` counter adds ``len`` of what the enumerators
return, so those values must stay sized, the full spaces at the exact count.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from inblock import model

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


def test_enumerators_return_sized_spaces():
    node = model.NodeSpec(1, ((0, 1, 2), (0, 1)), ((0, 1), (0,)))
    count = model.code_function_count(node.inputs, node.outputs)
    assert count == 3 * 2 ** 2
    assert len(model.enumerate_maps(node.inputs, node.outputs, node=1)) == count
    assert len(model.enumerate_code_functions(node)) == count
    assert len(model.constant_code_functions(node.inputs, node.outputs, node=1)) == 3 * 2
