"""The benchmark tracer wraps areafun names given as strings; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def layers():
    # read the file without writing a bytecode cache next to it
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = before
    return tracer.LAYERS


def test_every_layer_name_resolves(layers):
    # the lookups of Tracer.install: a module attribute, or the class's own
    # __dict__ entry for a method
    missing = []
    for module_name, names in layers.items():
        module = importlib.import_module(f"areafun.{module_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                found = attr in getattr(getattr(module, owner, None), "__dict__", {})
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{module_name}.{name}")
    assert not missing, missing
