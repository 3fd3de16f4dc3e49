"""The benchmark's tracer wraps library names; every one of them must exist.

perfbench/tracing.py is loaded as a plain module and only its tables are
read: nothing is wrapped, so the engine under test is untouched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_span_and_counter_resolves_in_mfcat():
    tracing = _load_tracing()
    names = {name for name, _, _ in tracing.SPANS}
    for name, mod_name, attr in tracing.SPANS:
        assert mod_name.startswith("mfcat."), name
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), name
        else:
            assert callable(getattr(mod, attr, None)), name
    homcat = importlib.import_module("mfcat.homcat")
    for name, attr, under in tracing.COUNTERS:
        assert callable(getattr(homcat, attr, None)), name
        assert under in names, name
