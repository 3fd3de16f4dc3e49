"""The benchmark's tracer wraps library names; every one of them must exist.

perfbench/tracing.py is loaded as a plain module and only its tables are
read: nothing is wrapped, so the engine under test is untouched.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from mfcat import homcat
from mfcat.catalog import get_catalog
from mfcat.mf import GradedMF, serre, tau

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


def test_tracer_extras_find_the_arguments_they_read():
    # _admissible reads (cat, k, kprime, c) and _pair (src, dst) by
    # position; _system_size reads the sizes of a built system
    def leading(fn, n):
        return list(inspect.signature(fn).parameters)[:n]

    assert leading(homcat.class_hom_dim, 4) == ["cat", "k", "kprime", "c"]
    assert leading(homcat.hom_space, 2) == ["src", "dst"]
    cat = get_catalog("A2")
    sizes = []
    for n in (-5, 1):  # an empty and a nonempty variable space
        system = homcat._System(cat.object(1, 0), cat.object(1, n))
        sizes.append((system.nvars, len(system.cocycle_rows),
                      len(system.boundary_rows)))
    assert sizes[0] == (0, 0, 0) and min(sizes[1]) > 0
    # the cached path: a memoized twist, which shares the blocks of M(1, 0),
    # and a twist of the memoized Serre image of vertex 1; each must size
    # up as its cache-free copy does
    X = cat.object(1, 0)
    twist = cat.object(1, 1)
    image = tau(homcat._vertex_serre(cat, 1), 1)
    assert twist._block_memo is X._block_memo
    assert image._block_memo is homcat._vertex_serre(cat, 1)._block_memo
    for dst, plain in ((twist, GradedMF(X.f, X.W, X.phi, X.psi, twist.S)),
                       (image, serre(twist))):
        cached = homcat._System(X, dst)
        fresh = homcat._System(X, plain)
        assert cached.nvars and cached.cocycle_rows and cached.boundary_rows
        assert (cached.nvars, cached.cocycle_rows, cached.boundary_rows) == (
            fresh.nvars, fresh.cocycle_rows, fresh.boundary_rows)
