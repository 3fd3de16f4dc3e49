"""Workload definitions: catalogs, seeded item lists, one item's run and check.

Every workload is a list of items built from the seed alone.  An item is
run by ``run_item``, which times only the library calls and returns
``(latency_s, result, error)``: ``result`` is a JSON-able record of what the
engine answered, ``error`` is None when the answer passed its check.  The
checksum of a pass hashes the sorted results, so it does not depend on the
item order the seed picked.
"""

import functools
import hashlib
import json
import random
import time
from fractions import Fraction

# Types per workload.  The full sizes are the benchmark; the smoke sizes run
# the same code on tiny types in a few seconds.
TYPES = {
    "hom_grid": {"full": ("E6", "E7", "E8"), "smoke": ("A3", "D4")},
    "serre_sweep": {"full": ("E7",), "smoke": ("D4",)},
    "hn_filtration": {"full": ("E6", "D6"), "smoke": ("A3", "D4")},
}

# serre_sweep: the classes of the heart window (0,1], 833 for E7.  The full
# (0,2] window of ``verify`` has 1715 classes and takes three times as long,
# which would leave room for only one pass per run.
SERRE_WINDOW = (0, 1)
# hn_filtration: the sums of one pass, per type, by summand count 1..4.  The
# cost of a sum grows steeply with its summand count, so small sums are the
# many and large sums the few: 106 items in about 8 s.
HN_WINDOW = (0, 2)
HN_MIX = {"full": (40, 10, 2, 1), "smoke": (1, 1, 1, 1)}


def catalogs(workload, size):
    """The catalogs a workload touches, with every base object built."""
    from mfcat.catalog import get_catalog

    out = []
    for type_str in TYPES[workload][size]:
        cat = get_catalog(type_str)
        for k in cat.diagram.vertices:
            cat.object(k, 0)
        out.append(cat)
    return out


def items(workload, cats, seed, size):
    """The seeded item list of one pass."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "hom_grid":
        out = [(cat.type_str, k, kp) for cat in cats
               for k in cat.diagram.vertices for kp in cat.diagram.vertices]
    elif workload == "serre_sweep":
        out = []
        for cat in cats:
            window = cat.objects_in_window(*SERRE_WINDOW)
            classes = {(kx, ky, int((py - px) * cat.h))
                       for px, kx, _ in window for py, ky, _ in window}
            out.extend((cat.type_str,) + cls for cls in sorted(classes))
    else:
        out = []
        for cat in cats:
            out.extend(_hn_sums(cat, rng, HN_MIX[size]))
    rng.shuffle(out)
    return out


def _hn_sums(cat, rng, mix):
    """Sums of 1..4 window objects: a fixed design, shifted by the seed.

    The design holds ``mix[c - 1]`` sums of ``c`` summands, with the
    summands cycling through the vertices, and twists drawn once from a
    fixed design seed.  Splitting cost moves twofold with the ranks and
    the relative phases that meet in one sum, so sums drawn afresh per seed
    would move ``wall_s`` by more than any bound.  The run seed shifts each
    sum by a common twist that keeps it in the window, which changes every
    grading the engine sees but no Hom system's size, and it orders the
    items.  Items are ``(type, picks, shift)``.
    """
    design = random.Random("hn_filtration/%s" % cat.type_str)
    window = cat.objects_in_window(*HN_WINDOW)
    twists = {}
    for _, k, n in window:
        twists.setdefault(k, []).append(n)
    counts = [c for c, n in enumerate(mix, 1) for _ in range(n)]
    vertices = sorted(twists)
    slots = [vertices[i % len(vertices)] for i in range(sum(counts))]
    design.shuffle(slots)
    out = []
    for count in counts:
        picks = [(k, design.choice(twists[k])) for k in slots[:count]]
        del slots[:count]
        shift = rng.randint(max(min(twists[k]) - n for k, n in picks),
                            min(max(twists[k]) - n for k, n in picks))
        out.append((cat.type_str, tuple((k, n + shift) for k, n in picks), shift))
    return out


def run_item(workload, cats, item):
    """Run one item; return (latency_s, result, error or None)."""
    cat = next(c for c in cats if c.type_str == item[0])
    if workload == "hom_grid":
        return _hom_cell(cat, item)
    if workload == "serre_sweep":
        return _serre_class(cat, item)
    return _hn_sum(cat, item)


def _hom_cell(cat, item):
    from mfcat.homcat import hom_multiset
    from mfcat.tables import golden_multiset

    _, k, kp = item
    t0 = time.perf_counter()
    got = hom_multiset(cat, k, kp)
    dt = time.perf_counter() - t0
    want = golden_multiset(cat.type_str, k, kp)
    error = None if got == want else "c(%d,%d) = %s, golden %s" % (k, kp, got, want)
    return dt, [cat.type_str, k, kp, [list(cd) for cd in got]], error


def _serre_class(cat, item):
    from mfcat.homcat import class_hom_dim, serre_rhs_dim

    _, kx, ky, c = item
    t0 = time.perf_counter()
    lhs = class_hom_dim(cat, kx, ky, c)
    rhs = serre_rhs_dim(cat, ky, kx, cat.h - 2 - c)
    dt = time.perf_counter() - t0
    error = None if lhs == rhs else "class (%d,%d,%d): %d != %d" % (kx, ky, c, lhs, rhs)
    return dt, [cat.type_str, kx, ky, c, lhs, rhs], error


def _hn_sum(cat, item):
    from mfcat import stability
    from mfcat.mf import direct_sum

    _, picks, shift = item
    g = functools.reduce(direct_sum, [cat.object(k, n) for k, n in picks])
    t0 = time.perf_counter()
    filt = stability.hn_filtration(g)
    dt = time.perf_counter() - t0
    pieces = [[phase, sorted(factors)] for phase, factors in filt.pieces]
    want = {}
    for k, n in picks:
        want.setdefault(cat.phase(k, n), []).append((k, n))
    expect = [[phase, sorted(want[phase])] for phase in sorted(want, reverse=True)]
    error = None if pieces == expect else "sum %s filtered as %s" % (picks, pieces)
    # Undo the seed's shift, so that the result, and the checksum, is the
    # same for every seed.
    dphase = Fraction(2 * shift, cat.h)
    result = [cat.type_str, sorted([k, n - shift] for k, n in picks),
              [[str(phase - dphase), [[k, n - shift] for k, n in factors]]
               for phase, factors in pieces]]
    return dt, result, error


def checksum(results):
    """Order-free digest of a pass's results."""
    lines = sorted(json.dumps(r, separators=(",", ":")) for r in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
