"""The benchmark's tracer wraps functions by module and attribute name
(``SPANNED`` and ``COUNTED`` in ``bench/spans.py``).  A refactor that renames
or removes one of them must fail here, not crash ``bench/run.py --trace 1``.
The tables are read from the file's source, without importing it."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced_names():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [entry for table in tables.values() for entry in table]


@pytest.mark.parametrize(
    "metric, module_name, path", _traced_names(), ids=lambda value: str(value)
)
def test_traced_attribute_resolves(metric, module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{metric}: {module_name}.{path} does not resolve"
        owner = getattr(owner, part)
    assert callable(owner)
