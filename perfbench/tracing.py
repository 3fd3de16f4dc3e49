"""Outside-in tracing: spans recorded around library calls, from this side.

``install`` replaces each traced function on every ``mfcat`` module
attribute that binds it (a function imported by name is bound in the
importing module too) and each traced method on its class.  A span records
its name, its parent span, the item it ran for, and its start and end
times; spans stay in memory and ``derive`` turns them into per-layer
metrics when the pass ends.  ``Poly`` and ``GaussRat`` operators are not
traced: their call counts would make the wrapper cost swamp the run.
"""

import importlib
import sys
import time
from array import array

_perf = time.perf_counter

# (span name, module, attribute): the traced functions and methods.
SPANS = (
    ("catalog.build_base", "mfcat.catalog", "Catalog._build_base"),
    ("gring.monomial_basis", "mfcat.gring", "monomial_basis"),
    ("homcat.system", "mfcat.homcat", "_System.__init__"),
    ("kernel.rank_modp", "mfcat.kernel", "rank_modp"),
    ("kernel.rank", "mfcat.kernel", "rank"),
    ("kernel.nullspace", "mfcat.kernel", "nullspace"),
    ("kernel.select_independent", "mfcat.kernel", "select_independent"),
    ("kernel.solve", "mfcat.kernel", "solve"),
    ("kernel.echelon_insert", "mfcat.kernel", "Echelon.insert"),
    ("homcat.hom_dim", "mfcat.homcat", "hom_dim"),
    ("homcat.hom_space", "mfcat.homcat", "hom_space"),
    ("homcat.class_hom_dim", "mfcat.homcat", "class_hom_dim"),
    ("homcat.serre_rhs_dim", "mfcat.homcat", "serre_rhs_dim"),
    ("homcat.lift_idempotent", "mfcat.homcat", "lift_idempotent"),
    ("homcat.strict_split", "mfcat.homcat", "_strict_split"),
    ("homcat.rank_factor", "mfcat.homcat", "_rank_factor"),
    ("homcat.neumann_inverse", "mfcat.homcat", "_neumann_inverse"),
    ("homcat.scalar_mul", "mfcat.homcat", "_scalar_mul"),
    ("homcat.find_summand", "mfcat.homcat", "_find_summand"),
    ("homcat.decompose", "mfcat.homcat", "decompose"),
    ("mf.mat_mul", "mfcat.mf", "mat_mul"),
    ("mf.verify_morphism", "mfcat.mf", "verify_morphism"),
    ("mf.reduce", "mfcat.mf", "reduce"),
    ("stability.hn_filtration", "mfcat.stability", "hn_filtration"),
)

# Loop counters: (counter name, homcat attribute, enclosing span).  The
# attribute is called once per loop iteration of the enclosing function
# (the idempotence test of the Newton lift, the termination test of the
# Neumann series), so counting calls made directly under that span counts
# iterations.  Counters make no span; their time stays in the parent's.
COUNTERS = (
    ("homcat.lift_iterations", "morphism_eq", "homcat.lift_idempotent"),
    ("homcat.neumann_iterations", "mat_is_zero", "homcat.neumann_inverse"),
)

# Echelon.insert is also the inner loop of the kernel's own eliminations;
# inside a kernel span it is left to that span, so echelon_insert counts
# the direct calls from the engine.
_KERNEL_SPANS = ("kernel.rank", "kernel.nullspace", "kernel.select_independent",
                 "kernel.solve")

SPAN_FIELDS = ("name", "parent", "item", "start_s", "end_s", "extra")


class Tracer:
    """In-memory span store.  ``item`` tags the spans of the current item.

    Spans live in flat arrays indexed by span number, not in one object
    per span: hundreds of thousands of live container objects would make
    the garbage collector, not the engine, dominate a traced pass.
    """

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")  # span number of the caller, -1 for none
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}  # span number -> extra value of the span
        self.stack = [-1]
        self.item = -1
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self._pairs = {}
        self.t0 = _perf()

    def __len__(self):
        return len(self.start)

    def pair_id(self, src, dst):
        """Small integer naming an equal-valued (src, dst) pair."""
        return self._pairs.setdefault((src, dst), len(self._pairs))

    def _span(self, fn, name, extra=None, skip_under=()):
        stack, names, parents, items = self.stack, self.name, self.parent, self.item_of
        start, end, extras = self.start, self.end, self.extra
        nid = self.name_id[name]
        skip = {self.name_id[s] for s in skip_under}

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if skip and top >= 0 and names[top] in skip:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parents.append(top)
            items.append(self.item)
            end.append(0.0)
            stack.append(idx)
            start.append(_perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = _perf()
                stack.pop()
            if extra is not None:
                extras[idx] = extra(self, args)
            return out

        return wrapper

    def _counter(self, fn, name, under):
        stack, names, counts = self.stack, self.name, self.counts
        uid = self.name_id[under]

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == uid:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _system_size(tracer, args):
    system = args[0]
    return [system.nvars, len(system.cocycle_rows) + len(system.boundary_rows)]


def _pair(tracer, args):
    return tracer.pair_id(args[0], args[1])


def _admissible(tracer, args):
    cat, k, kprime, c = args[:4]
    return int((c - cat.sigma(kprime) + cat.sigma(k)) % 2 == 0)


_EXTRA = {
    "homcat.system": _system_size,
    "homcat.hom_space": _pair,
    "homcat.class_hom_dim": _admissible,
}


def _rebind(original, wrapper):
    """Point every mfcat module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mfcat" or mod_name.startswith("mfcat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap every traced function and counter; returns the tracer."""
    for name, mod_name, attr in SPANS:
        mod = importlib.import_module(mod_name)
        skip = _KERNEL_SPANS if name == "kernel.echelon_insert" else ()
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = vars(cls)[meth]
            setattr(cls, meth, tracer._span(fn, name, _EXTRA.get(name), skip))
        else:
            fn = getattr(mod, attr)
            _rebind(fn, tracer._span(fn, name, _EXTRA.get(name), skip))
    homcat = importlib.import_module("mfcat.homcat")
    for name, attr, under in COUNTERS:
        setattr(homcat, attr, tracer._counter(getattr(homcat, attr), name, under))
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


def derive(tracer, wall_s):
    """Per-layer metrics of one traced pass whose items took ``wall_s``.

    Layer metrics cover the whole pass: set-up, where
    ``catalog.build_base`` runs, and the items.  ``X.self_s`` is a span's
    duration minus that of its direct children (spans nest, one thread).
    ``unattributed_s`` is ``wall_s`` minus the self time of the spans opened
    while items ran: the benchmark loop, input building, checks and wrapper
    cost.
    """
    names, parents, items = tracer.names, tracer.parent, tracer.item_of
    start, end, extras = tracer.start, tracer.end, tracer.extra
    child_s = [0.0] * len(tracer)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_s[parent] += end[i] - start[i]
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    nvars = rows = 0
    hom_dim_flags = {}  # hom_dim span -> [nvars > 0, has a kernel.rank child]
    admissible = {}  # class_hom_dim span -> [admissible, has a hom_dim child]
    seen_pairs = set()
    repeats = 0
    item_self = 0.0
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        own = end[i] - start[i] - child_s[i]
        calls[name] += 1
        self_s[name] += own
        if items[i] >= 0:
            item_self += own
        parent = parents[i]
        if name == "homcat.hom_dim":
            hom_dim_flags[i] = [False, False]
            if parent in admissible:
                admissible[parent][1] = True
        elif name == "homcat.class_hom_dim":
            admissible[i] = [bool(extras.get(i)), False]
        elif name == "homcat.system" and i in extras:
            nvars += extras[i][0]
            rows += extras[i][1]
            if parent in hom_dim_flags:
                hom_dim_flags[parent][0] = extras[i][0] > 0
        elif name == "kernel.rank" and parent in hom_dim_flags:
            hom_dim_flags[parent][1] = True
        elif name == "homcat.hom_space":
            key = (items[i], extras.get(i))
            repeats += key in seen_pairs
            seen_pairs.add(key)

    out = {}
    for name in names:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out["homcat.system.nvars"] = nvars
    out["homcat.system.rows"] = rows
    solved = [flags for flags in hom_dim_flags.values() if flags[0]]
    out["kernel.modp_certified_ratio"] = _ratio(
        sum(1 for flags in solved if not flags[1]), len(solved))
    adm = [flags for flags in admissible.values() if flags[0]]
    out["homcat.class_hom_dim.hit_ratio"] = _ratio(
        sum(1 for flags in adm if not flags[1]), len(adm))
    out["homcat.hom_space.repeat_ratio"] = _ratio(repeats, calls["homcat.hom_space"])
    out.update(tracer.counts)
    out["unattributed_s"] = wall_s - item_self
    out["trace.wall_s"] = wall_s
    return out


def dump(tracer):
    """The spans as a JSON-able table; times in seconds from tracer start."""
    t0 = tracer.t0
    return {
        "fields": list(SPAN_FIELDS),
        "names": tracer.names,
        "counts": tracer.counts,
        "spans": [[tracer.name[i], tracer.parent[i], tracer.item_of[i],
                   round(tracer.start[i] - t0, 7), round(tracer.end[i] - t0, 7),
                   tracer.extra.get(i)] for i in range(len(tracer))],
    }
