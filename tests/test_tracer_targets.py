"""The benchmark's tracer rebinds names in the solver modules
(``perfbench/spans.py``, ``_REBINDS``); a name that a simplification drops
must fail here, not only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    """``perfbench/spans.py`` as a module, loaded without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(spans):
    unbound = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans._REBINDS
               if not callable(getattr(owner, attr, None))]
    assert not unbound, f"the tracer rebinds names that are not bound: {unbound}"


def test_tracer_installs_and_restores_every_target(spans):
    before = [getattr(owner, attr) for owner, attr, _ in spans._REBINDS]
    with spans.Tracer().installed():
        during = [getattr(owner, attr) for owner, attr, _ in spans._REBINDS]
    after = [getattr(owner, attr) for owner, attr, _ in spans._REBINDS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
