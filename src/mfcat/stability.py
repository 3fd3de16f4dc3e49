"""Central charges, the slicing by phase, HN filtrations, and
exceptional collections for arbitrary orientations.

The central charge of a graded object is the trace of e^{i*pi*S}.  For
a phase-pure object the slot multiset is symmetric about its phase, so
the charge factors as mass * e^{i*pi*phase} with the mass a finite sum
of cosines of rational multiples of pi; positivity of that sum is
certified with interval arithmetic, never by float comparison.
"""

from __future__ import annotations

import cmath
import random
from collections import Counter
from fractions import Fraction
from functools import reduce as _freduce

import mpmath

from .catalog import get_catalog, window_bounds
from .gring import GaussRat, Poly, PolyError
from .homcat import _per_catalog, class_hom_dim, decompose, t_image
from .mf import GradedMF, Morphism, _expect, direct_sum, verify_morphism
from .quiver import DynkinQuiver, path_hom_dims

__all__ = [
    "CentralCharge",
    "HNFiltration",
    "central_charge",
    "check_stability_axioms",
    "hn_filtration",
    "heart_objects",
    "projectivity_check",
    "exceptional_collection",
    "strong_exceptionality_check",
]


class CentralCharge:
    """Trace of e^{i*pi*S}: float value, exact phase, exact mass terms.

    mass_terms is the multiset of slot offsets s - phase; the mass is
    the sum of cos(pi * offset) over them (offsets come in +/- pairs
    for phase-pure objects, which keeps the trace on the phase ray).
    """

    __slots__ = ("value", "phase", "mass_terms")

    def __init__(self, value, phase, mass_terms):
        self.value = value
        self.phase = phase
        self.mass_terms = mass_terms

    def mass_float(self):
        return float(sum(mpmath.cos(mpmath.pi * mpmath.mpf(o.numerator) / o.denominator)
                         for o in self.mass_terms))

    def mass_interval(self):
        """Interval guaranteed to contain the exact mass."""
        with mpmath.workprec(80):
            total = mpmath.iv.mpf(0)
            for o in self.mass_terms:
                arg = mpmath.iv.pi * mpmath.iv.mpf(o.numerator) / o.denominator
                total += mpmath.iv.cos(arg)
            return total

    def mass_positive(self):
        return self.mass_interval().a > 0

    def consistent(self):
        """True when the charge lies on the phase ray, decided exactly.

        The charge is e^{i*pi*phase} times the sum of e^{i*pi*o} over the
        offsets o; offsets closed under negation cancel the sines, leaving
        the mass on the ray.  The zero object has no offsets.
        """
        if self.phase is None:
            return not self.mass_terms
        return Counter(self.mass_terms) == Counter(-o for o in self.mass_terms)


@_per_catalog
def mass_certified(cat, offsets):
    """Interval-certified positivity of the mass over a sorted offset tuple.

    Offsets do not move under tau, so one certificate per vertex serves
    every twist.
    """
    return CentralCharge(None, None, offsets).mass_positive()


class HNFiltration:
    """Pieces (phase, factors) in strictly decreasing phase order.

    factors are catalog classes (k, n) with repetition; triangles holds
    one (inclusion, projection) witness pair per piece on the canonical
    direct-sum model, both verified strict morphisms.
    """

    __slots__ = ("object", "pieces", "triangles")

    def __init__(self, obj, pieces, triangles):
        self.object = obj
        self.pieces = pieces
        self.triangles = triangles


def central_charge(g):
    """Z(g) = Tr e^{i*pi*S} with exact mean phase and exact offsets."""
    _expect(GradedMF, g)
    if g.r == 0:
        return CentralCharge(complex(0), None, ())
    value = sum(cmath.exp(1j * cmath.pi * float(s)) for s in g.S)
    phase = Fraction(sum(g.S), 2 * g.r)
    offsets = tuple(sorted(s - phase for s in g.S))
    return CentralCharge(complex(value), phase, offsets)


def _empty_object(cat):
    return GradedMF(cat.f, cat.W, (), (), (), label="0")


def _sum_object(cat, classes):
    parts = [cat.object(k, n) for (k, n) in classes]
    if not parts:
        return _empty_object(cat)
    return _freduce(direct_sum, parts)


def _block_inclusion(src, dst):
    """src = leading block of dst (direct-sum layout): strict inclusion."""
    f0 = tuple(tuple(_const_entry(i == j) for j in range(src.r))
               for i in range(dst.r))
    f1 = f0
    return Morphism(src, dst, f0, f1)


def _block_projection(dst, tail):
    """tail = trailing block of dst: strict projection onto it."""
    off = dst.r - tail.r
    f0 = tuple(tuple(_const_entry(j == off + i) for j in range(dst.r))
               for i in range(tail.r))
    return Morphism(dst, tail, f0, f0)


def _const_entry(flag):
    return Poly.const(GaussRat(1 if flag else 0))


def _catalog_for(g):
    """Recover the ADE catalog a graded object belongs to from (W, f)."""
    _expect(GradedMF, g)
    a, b, c, h = g.W.a, g.W.b, g.W.c, g.W.h
    cat = None
    if (a, c) == (1, h - b):
        cat = get_catalog("A%d" % (h - 1), b)
    elif h % 2 == 0:
        l = h // 2 + 1
        if (a, b, c) == (l - 2, 2, l - 1):
            cat = get_catalog("D%d" % l)
    if cat is None:
        for le in (6, 7, 8):
            cand = get_catalog("E%d" % le)
            if (cand.W.a, cand.W.b, cand.W.c, cand.W.h) == (a, b, c, h):
                cat = cand
                break
    if cat is None or cat.f != g.f:
        raise PolyError("object does not belong to an ADE catalog")
    return cat


def hn_filtration(g):
    """Split g into catalog factors and group them by descending phase."""
    cat = _catalog_for(g)
    classes = decompose(cat, g)
    pieces = []
    for k, n in classes:
        phase = cat.phase(k, n)
        if pieces and pieces[-1][0] == phase:
            pieces[-1][1].append((k, n))
        else:
            pieces.append((phase, [(k, n)]))
    phases = [p for p, _ in pieces]
    if any(phases[i] <= phases[i + 1] for i in range(len(phases) - 1)):
        raise ArithmeticError("piece phases are not strictly decreasing")
    triangles = []
    below = []
    for phase, factors in pieces:
        piece_obj = _sum_object(cat, factors)
        prev_obj = _sum_object(cat, below)
        below.extend(factors)
        cur_obj = _sum_object(cat, below)
        incl = _block_inclusion(prev_obj, cur_obj)
        proj = _block_projection(cur_obj, piece_obj)
        for m in (incl, proj):
            errs = verify_morphism(m)
            if errs:
                raise ArithmeticError("filtration witness not strict: %s" % errs[0])
        triangles.append((incl, proj))
    frozen = tuple((phase, tuple(factors)) for phase, factors in pieces)
    return HNFiltration(g, frozen, tuple(triangles))


def heart_objects(type_str, b=None):
    """Objects of the abelian slice (0, 1] as (phase, k, n) triples."""
    return get_catalog(type_str, b).objects_in_window(0, 1)


# ---------------------------------------------------------------------------
# axioms on a window
# ---------------------------------------------------------------------------


def check_stability_axioms(type_str, b=None, window=(0, 2), trials=100,
                           max_summands=4, seed=0):
    """Verify the four slicing axioms; returns a list of violations.

    (1) every window object has Z = mass * e^{i*pi*phase} with mass
        certified positive; (2) the phase-(p+1) slice is the shift of
        the phase-p slice, class by class; (3) no morphisms backward in
        phase, exhaustively over window class pairs; (4) random direct
        sums filter with strictly decreasing phases and the original
        factor multiset.

    A window that is not an (lo, hi) pair of rationals or holds no object,
    a trial count that is not an int >= 0, or a summand bound that is not
    an int >= 1 raises PolyError.
    """
    if not (isinstance(trials, int) and isinstance(max_summands, int)
            and trials >= 0 and max_summands >= 1):
        raise PolyError("need ints trials >= 0 and max_summands >= 1, "
                        "got %r and %r" % (trials, max_summands))
    if not isinstance(window, (tuple, list)) or len(window) != 2:
        raise PolyError("window must be a pair (lo, hi), got %r" % (window,))
    cat = get_catalog(type_str, b)
    lo, hi = window_bounds(*window)
    objs = cat.objects_in_window(lo, hi)
    if not objs:
        raise PolyError("window (%s, %s] holds no catalog object" % (lo, hi))
    bad = []

    for phase, k, n in objs:
        cc = central_charge(cat.object(k, n))
        if cc.phase != phase:
            bad.append("axiom1: phase of (%d,%d) is %s" % (k, n, cc.phase))
        if not mass_certified(cat, cc.mass_terms):
            bad.append("axiom1: mass of (%d,%d) not certified positive" % (k, n))
        if not cc.consistent():
            bad.append("axiom1: charge of (%d,%d) off the phase ray" % (k, n))

    shifted = {}
    for phase, k, n in objs:
        kT, n0 = t_image(cat, k)
        shifted.setdefault(phase + 1, set()).add((kT, n + n0))
    upper = cat.objects_in_window(lo + 1, hi + 1)
    actual = {}
    for phase, k, n in upper:
        actual.setdefault(phase, set()).add((k, n))
    if shifted != actual:
        bad.append("axiom2: shifted slices differ from the phase+1 slices")

    coords = [(cat.coord(k, n), k, n) for _, k, n in objs]
    seen = set()
    for c1, k1, n1 in coords:
        for c2, k2, n2 in coords:
            if c1 <= c2:
                continue
            c = c2 - c1
            key = (k1, k2, c)
            if key in seen:
                continue
            seen.add(key)
            if class_hom_dim(cat, k1, k2, c):
                bad.append("axiom3: Hom((%d,%d),(%d,%d)) nonzero backward"
                           % (k1, n1, k2, n2))

    rng = random.Random(seed)
    for trial in range(trials):
        count = 1 + rng.randrange(max_summands)
        picks = [rng.choice(objs) for _ in range(count)]
        g = _sum_object(cat, [(k, n) for (_, k, n) in picks])
        filt = hn_filtration(g)
        got = sorted(kn for _, factors in filt.pieces for kn in factors)
        want = sorted((k, n) for (_, k, n) in picks)
        if got != want:
            bad.append("axiom4: trial %d factors %s != input %s"
                       % (trial, got, want))
            continue
        grouped = {}
        for _, k, n in picks:
            grouped.setdefault(cat.phase(k, n), []).append((k, n))
        for phase, factors in filt.pieces:
            if sorted(grouped.get(phase, [])) != sorted(factors):
                bad.append("axiom4: trial %d phase %s group mismatch"
                           % (trial, phase))
    return bad


def projectivity_check(type_str, b=None):
    """The vertex objects at twist 0 are projective in the (0,1] slice."""
    cat = get_catalog(type_str, b)
    heart = heart_objects(type_str, b)
    bad = []
    for k in cat.diagram.vertices:
        for phase, kp, n in heart:
            # the catalog class of T(kp, n) already carries the +1 phase
            kT, n0 = t_image(cat, kp)
            c = cat.coord(kT, n + n0) - cat.coord(k, 0)
            if class_hom_dim(cat, k, kT, c):
                bad.append("Hom(P_%d, T(%d,%d)) nonzero" % (k, kp, n))
    control = 0
    for k in cat.diagram.vertices:
        kT, n0 = t_image(cat, k)
        c = cat.coord(kT, n0) - cat.coord(k, 1)
        control += class_hom_dim(cat, k, kT, c)
    if control == 0:
        bad.append("control failed: twist-1 objects see no shifted projective")
    return bad


# ---------------------------------------------------------------------------
# exceptional collections from orientations
# ---------------------------------------------------------------------------


def exceptional_collection(type_str, b, quiver):
    """Twist vector and phase-ordered collection for an orientation.

    Propagates n_1 = 0 through the tree: an arrow from u to v forces
    phase(v) = phase(u) + 1/h, which fixes every twist uniquely.
    """
    _expect(DynkinQuiver, quiver)
    cat = get_catalog(type_str, b)
    dia = quiver.diagram
    if (dia.letter, dia.l) != (cat.letter, cat.l):
        raise PolyError("orientation drawn on a different diagram")
    arrows = set(quiver.arrows)
    n_of = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in dia.neighbors(u):
                if v in n_of:
                    continue
                sign = 1 if (u, v) in arrows else -1
                n_of[v] = cat.twist(v, cat.coord(u, n_of[u]) + sign)
                if n_of[v] is None:
                    raise PolyError("phase propagation lost integrality")
                nxt.append(v)
        frontier = nxt
    n_vector = tuple(n_of[k] for k in dia.vertices)
    ordered = sorted(((k, n_of[k]) for k in dia.vertices),
                     key=lambda kn: (cat.phase(kn[0], kn[1]), kn[0]))
    return n_vector, tuple(ordered)


def strong_exceptionality_check(type_str, b, quiver):
    """Report violations of strong exceptionality for one orientation.

    Checks: each object has a one-dimensional endomorphism ring, no
    morphisms against the order, none to any shift T^m (m = -2..2,
    m != 0), and the Hom grid equals the directed-path grid of the
    orientation entry by entry (hence total dimension = path count).
    """
    cat = get_catalog(type_str, b)
    n_vector, ordered = exceptional_collection(type_str, b, quiver)
    summary = path_hom_dims(quiver)
    bad = []

    def t_power(k, n, m):
        while m > 0:
            kT, n0 = t_image(cat, k)
            k, n, m = kT, n + n0, m - 1
        while m < 0:
            kT, _ = t_image(cat, k)
            _, n0 = t_image(cat, kT)
            k, n, m = kT, n - n0, m + 1
        return k, n

    for k, n in ordered:
        if class_hom_dim(cat, k, k, 0) != 1:
            bad.append("End of vertex %d is not a line" % k)

    total = 0
    for i, (ki, ni) in enumerate(ordered):
        ci = cat.coord(ki, ni)
        for j, (kj, nj) in enumerate(ordered):
            dim = class_hom_dim(cat, ki, kj, cat.coord(kj, nj) - ci)
            total += dim
            paths = summary.hom_dims[ki - 1][kj - 1]
            if j < i and dim:
                bad.append("backward Hom (%d -> %d) nonzero" % (ki, kj))
            if dim != paths:
                bad.append("Hom(%d,%d) = %d but path count is %d"
                           % (ki, kj, dim, paths))
            for m in (-2, -1, 1, 2):
                km, nm = t_power(kj, nj, m)
                dm = class_hom_dim(cat, ki, km, cat.coord(km, nm) - ci)
                if dm:
                    bad.append("Hom(%d, T^%d %d) nonzero" % (ki, m, kj))

    if total != summary.dim:
        bad.append("total algebra dim %d != path count %d"
                   % (total, summary.dim))
    return bad
