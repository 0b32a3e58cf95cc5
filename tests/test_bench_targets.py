"""The traced benchmark run (bench/spans.py) wraps package attributes by name.

A rename or removal of one of them only shows up as a failure of
``bench/run.py --trace 1``; this test reads the two target tables from
bench/spans.py without importing it and checks each name where it is patched.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tables():
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TARGETS", "H_FACTORIES"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
NAMES = [(owner, attr) for owner, attr, _ in TABLES["TARGETS"]] + list(TABLES["H_FACTORIES"])


@pytest.mark.parametrize("owner, attr", NAMES)
def test_traced_name_is_an_attribute_of_its_owner(owner, attr):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"nlevel_rabi.{module}")
    if cls:
        obj = getattr(obj, cls)
    assert attr in obj.__dict__
