"""The benchmark's tracer wraps library functions by name; a renamed or
deleted one would crash the traced run at getattr.  This catches it first."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing._TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
