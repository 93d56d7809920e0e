"""The names the benchmark tracer (perfbench/spans.py) wraps must stay bound in the package."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import onionclass
from onionclass.hyperdet import LiftResult

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_bindings(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, names in spans.SPANS.items():
        module = importlib.import_module(f"onionclass.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"onionclass.{mod}.{name}"
    # the tracer sums retries_used over every schlafli_lift result
    assert LiftResult(0).retries_used == 0
    for cls_name, attr, _ in spans.COUNTED:
        assert attr in vars(getattr(onionclass, cls_name)), f"{cls_name}.{attr}"
