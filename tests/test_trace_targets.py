"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
name. A refactor that drops or moves one of those names must fail here,
not only when the benchmark runs with `--trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


def test_function_targets_exist(tracing):
    for mod_name, attr, span, _ in tracing.FUNCTION_TARGETS:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr, span)


def test_method_targets_are_defined_on_their_class(tracing):
    for mod_name, cls_name, meth, span, _ in tracing.METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert meth in cls.__dict__, (cls_name, meth, span)


def test_every_mechanism_defines_sample(tracing):
    classes = tracing._mechanism_classes()
    assert classes
    for cls in classes:
        assert "sample" in cls.__dict__, cls.__name__
