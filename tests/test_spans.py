"""The traced benchmark wraps nullwave functions by name.

perfbench/spans.py replaces module attributes such as
``nullwave.picard.rhs_wave`` and ``nullwave.pipeline.march``, so renaming
or moving one of them breaks the traced run.  These checks load spans.py
by path, without writing to its directory, and resolve every name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(wrapped):
    return [getattr(importlib.import_module(module), attr)
            for module, attr, _ in wrapped]


def test_every_wrapped_name_resolves(spans):
    for (module, attr, _), fn in zip(spans.WRAPPED, _attributes(spans.WRAPPED)):
        assert callable(fn), f"{module}.{attr}"


def test_tracer_uninstall_restores_every_attribute(spans):
    before = _attributes(spans.WRAPPED)
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _attributes(spans.WRAPPED)
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(during, before))
    assert all(r is o for r, o in zip(_attributes(spans.WRAPPED), before))
