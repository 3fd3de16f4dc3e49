"""Stability layer: central charges, filtrations, hearts, exceptionality."""

from __future__ import annotations

import cmath
import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce

import mpmath
import pytest

from mfcat import catalog, stability
from mfcat.catalog import Catalog, get_catalog
from mfcat.gring import Poly, PolyError, WeightSystem
from mfcat.mf import (
    GradedMF,
    _block_components,
    direct_sum,
    reduce as mf_reduce,
    shift_T,
    verify_grading,
    verify_mf,
)
from mfcat.quiver import path_hom_dims, principal_orientation, random_orientation
from mfcat.stability import (
    CentralCharge,
    central_charge,
    check_stability_axioms,
    exceptional_collection,
    heart_objects,
    hn_filtration,
    mass_certified,
    projectivity_check,
    strong_exceptionality_check,
)
from mfcat.quiver import positive_root_count

from helpers import CATALOG_SCOPE, count_systems, disguised_sum


def test_central_charge_lies_on_the_phase_ray():
    for t, b, k in (("A3", 2, 1), ("D4", None, 3), ("E6", None, 5),
                    ("E8", None, 4)):
        cat = get_catalog(t, b)
        for n in (0, 1, 4):
            g = cat.object(k, n)
            cc = central_charge(g)
            assert cc.phase == cat.phase(k, n)
            assert cc.mass_positive()
            assert cc.consistent()
            assert len(cc.mass_terms) == 2 * g.r
            # offsets come in +/- pairs, so they sum to zero exactly
            assert sum(cc.mass_terms) == 0


def test_central_charge_of_a_known_object():
    # E6 vertex 5 at n=0: four slots offset +-1/6 from phase 1/6, so the
    # mass is 4*cos(pi/6) = 2*sqrt(3)
    cc = central_charge(get_catalog("E6").object(5, 0))
    want = float(2 * mpmath.sqrt(3))
    assert abs(cc.mass_float() - want) < 1e-12
    assert cc.phase == Fraction(1, 6)
    ray = cmath.exp(1j * cmath.pi / 6)
    assert abs(cc.value - want * ray) < 1e-12


def test_shift_negates_the_central_charge():
    for t, b, k in (("A4", 3, 2), ("D5", None, 4)):
        g = get_catalog(t, b).object(k, 0)
        a, s = central_charge(g), central_charge(shift_T(g))
        assert abs(a.value + s.value) < 1e-12
        assert s.phase == a.phase + 1
        assert sorted(s.mass_terms) == sorted(a.mass_terms)


def test_the_phase_ray_test_is_exact_and_agrees_with_the_float_charge():
    # the sum of two objects of different sizes and phases is not phase-pure
    cat = get_catalog("D4")
    x, y = cat.object(1, 0), cat.object(2, 0)
    for g, on_ray in ((x, True), (direct_sum(x, x), True),
                      (direct_sum(x, y), False),
                      (GradedMF(x.f, x.W, (), (), ()), True)):
        cc = central_charge(g)
        assert cc.consistent() is on_ray
        ray = cmath.exp(1j * cmath.pi * float(cc.phase or 0))
        assert (abs(cc.value - cc.mass_float() * ray) < 1e-9) is on_ray


def test_mass_positivity_is_certified_once_per_offset_multiset(monkeypatch):
    calls = []
    real = CentralCharge.mass_positive

    def counted(self):
        calls.append(self.mass_terms)
        return real(self)

    monkeypatch.setattr(CentralCharge, "mass_positive", counted)
    cat = Catalog("D5")
    window = cat.objects_in_window(0, 2)
    for _ in range(2):
        for _, k, n in window:
            cc = central_charge(cat.object(k, n))
            assert mass_certified(cat, cc.mass_terms)
    # offsets do not move under tau, so each vertex is certified once
    assert len(calls) == len(set(calls)) <= cat.l < len(window)
    check_stability_axioms("A3", 2, trials=0)
    del calls[:]
    assert check_stability_axioms("A3", 2, trials=0) == []
    assert calls == []


@functools.lru_cache(maxsize=None)
def _cos_pi(o):
    """cos(pi * o) to 200 bits, as the exact Fraction of that binary value."""
    with mpmath.workprec(200):
        c = mpmath.cospi(mpmath.mpf(o.numerator) / o.denominator)
    man, exp = c.man_exp
    return (-1 if c < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("offsets, mass", [
    ((Fraction(-1, 2), Fraction(1, 2)), 0),
    ((-1, 1), -2),
])
def test_a_mass_that_is_not_positive_is_not_certified(offsets, mass):
    lo, hi = CentralCharge(None, None, offsets).mass_interval()
    assert type(lo) is type(hi) is Fraction
    assert lo <= mass <= hi
    assert not mass_certified(Catalog("A3", 2), offsets)


def test_cosine_bounds_contain_the_200_bit_value():
    # every p/q with q <= 60 and |p/q| <= 4; the offsets at odd integers
    # catch a fold that stops at [0, 1], where pi_hi * t passes pi
    offsets = {Fraction(p, q) for q in range(1, 61)
               for p in range(-4 * q, 4 * q + 1)}
    for o in offsets:
        lo, hi = CentralCharge(None, None, (o,)).mass_interval()
        assert lo <= _cos_pi(o) <= hi, o


def test_every_window_mass_is_certified_and_bounds_the_200_bit_value():
    for t, b in CATALOG_SCOPE:
        cat = get_catalog(t, b)
        for _, k, n in cat.objects_in_window(0, 2):
            cc = central_charge(cat.object(k, n))
            lo, hi = cc.mass_interval()
            assert lo <= sum(map(_cos_pi, cc.mass_terms)) <= hi, (t, b, k, n)
            assert mass_certified(cat, cc.mass_terms)


def test_axiom_three_reports_backward_classes_in_window_order(monkeypatch):
    # with every class read as nonzero, each first backward (k, k', c) class
    # is reported; the reference walks the window by Fraction phase
    monkeypatch.setattr(stability, "class_hom_dim", lambda cat, k, kp, c: 1)
    cat = get_catalog("A3", 2)
    objs = cat.objects_in_window(0, 2)
    want, seen = [], set()
    for p1, k1, n1 in objs:
        for p2, k2, n2 in objs:
            key = (k1, k2, (p2 - p1) * cat.h)
            if p1 > p2 and key not in seen:
                seen.add(key)
                want.append("axiom3: Hom((%d,%d),(%d,%d)) nonzero backward"
                            % (k1, n1, k2, n2))
    got = [v for v in check_stability_axioms("A3", 2, trials=0)
           if v.startswith("axiom3")]
    assert got == want and len(want) > 10


def test_direct_sum_charges_add():
    cat = get_catalog("D4")
    x, y = cat.object(1, 0), cat.object(3, 1)
    cx, cy = central_charge(x), central_charge(y)
    cs = central_charge(direct_sum(x, y))
    assert abs(cs.value - (cx.value + cy.value)) < 1e-12


def test_heart_count_equals_the_root_count():
    for t, b in (("A2", 1), ("A5", 3), ("D4", None), ("E6", None)):
        assert len(heart_objects(t, b)) == positive_root_count(t)


def test_hn_filtration_orders_phases_and_recovers_factors():
    cat = get_catalog("D5")
    picks = [(1, 0), (3, 1), (4, 3), (1, 1)]
    obj = None
    for k, n in picks:
        part = cat.object(k, n)
        obj = part if obj is None else direct_sum(obj, part)
    hn = hn_filtration(obj)
    phases = [p for p, _ in hn.pieces]
    assert phases == sorted(phases, reverse=True)
    assert len(set(phases)) == len(phases)
    got = sorted(kn for _, factors in hn.pieces for kn in factors)
    assert got == sorted(picks)
    for phase, factors in hn.pieces:
        for k, n in factors:
            assert cat.phase(k, n) == phase
    assert len(hn.triangles) == len(hn.pieces)


@pytest.mark.parametrize("t,b", [("A4", 2), ("D5", None), ("E6", None)])
def test_hn_filtration_sees_through_a_disguised_sum(t, b):
    # a graded unipotent base change hides the block structure; with rows
    # inserted in input order, nullspace ran for more than 90 s on the
    # twelfth E6 sum here (r = 22 without its contractible summand)
    cat = get_catalog(t, b)
    objs = [cat.object(k, n) for k in cat.diagram.vertices
            for n in range(-2, 4)]
    rng = random.Random(1)
    start = time.perf_counter()
    for trial in range(12):
        parts = [rng.choice(objs) for _ in range(2 + rng.randrange(3))]
        plain = reduce(direct_sum, parts)
        # every other sum also hides a contractible (1, f) summand: the base
        # change keeps its degree-0 entry 1, so the first reduce pivots on
        # a dense row and column and must leave the plain sum's size
        extra = []
        if trial % 2:
            s = parts[-1].S[0]
            extra = [GradedMF(cat.f, cat.W, [[Poly.const(1)]], [[cat.f]],
                              [s, s + 1])]
        g = disguised_sum(parts + extra, rng.randrange(10 ** 6))
        assert g.S == reduce(direct_sum, parts + extra).S and g != plain
        # one block piece, so the summands are still found by retractions
        assert _block_components(g) == [g]
        assert verify_mf(g) == [] and verify_grading(g) == []
        assert mf_reduce(g).r == plain.r
        assert hn_filtration(g).pieces == hn_filtration(plain).pieces
    # about a second in all; the bound only catches a blow-up
    assert time.perf_counter() - start < 60


def test_catalog_for_reads_the_catalog_off_weights_and_potential():
    for t, b in CATALOG_SCOPE:
        cat = get_catalog(t, b)
        assert stability._catalog_for(cat.object(1, 0)) is cat
    g = get_catalog("D5").object(1, 0)
    built = catalog._catalog_cached.cache_info().currsize
    # a foreign potential, and weights no catalog carries: the A_2999
    # candidate is rejected on its weights, before any catalog is built
    for bad in (GradedMF(g.f * 2, g.W, g.phi, g.psi, g.S),
                GradedMF(g.f, WeightSystem(1, 1, 1, 3000), (), (), ())):
        with pytest.raises(PolyError, match="ADE catalog"):
            stability._catalog_for(bad)
    assert catalog._catalog_cached.cache_info().currsize == built


def test_stability_axioms_on_a_small_type():
    assert check_stability_axioms("A3", 2, trials=12, seed=5) == []


def test_axiom_four_filters_block_sums_without_hom_systems(monkeypatch):
    # the random sums of axiom 4 are block sums: each block piece equals its
    # summand by value, so no filtration goes through a retraction
    built = count_systems(monkeypatch)
    per_sum = []

    def counted(g, _real=stability.hn_filtration):
        before = len(built)
        filt = _real(g)
        per_sum.append(len(built) - before)
        return filt

    monkeypatch.setattr(stability, "hn_filtration", counted)
    assert check_stability_axioms("E6", trials=20, seed=3) == []
    assert per_sum == [0] * 20


@pytest.mark.parametrize("kwargs", [
    {"trials": -1},
    {"trials": 1.5},
    {"seed": [1]},
])
def test_stability_axioms_reject_bad_arguments_with_polyerror(kwargs):
    with pytest.raises(PolyError):
        check_stability_axioms("A3", 2, **kwargs)


@pytest.mark.parametrize("offsets", [
    (0.5,),
    (Fraction(1, 6), 0.25),
    5,
    [Fraction(1, 6), Fraction(-1, 6)],
    ("x",),
])
def test_masses_reject_offsets_that_are_not_exact_with_polyerror(offsets):
    cat = Catalog("A3", 2)
    with pytest.raises(PolyError):
        mass_certified(cat, offsets)
    # rejected before the memo is consulted, so nothing is stored
    assert cat.memo == {}
    cc = CentralCharge(None, None, offsets)
    for mass in (cc.mass_float, cc.mass_interval, cc.mass_positive):
        with pytest.raises(PolyError):
            mass()


_STARTUP_PROBE = """
import sys
import mfcat.catalog, mfcat.homcat, mfcat.kernel, mfcat.stability, mfcat.tables
import mfcat.cli
from mfcat.catalog import get_catalog
from mfcat.stability import central_charge, mass_certified
e7 = get_catalog("E7")
for k in e7.diagram.vertices:
    e7.object(k, 0)
print("mpmath" in sys.modules)
cc = central_charge(e7.object(4, 0))
print(mass_certified(e7, cc.mass_terms), "mpmath" in sys.modules)
print(cc.mass_float() > 0, "mpmath" in sys.modules)
"""


def test_the_engine_never_loads_mpmath():
    # a fresh interpreter, since this module imports mpmath itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(stability.__file__))
    out = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "True False", "True False"]


def test_hn_filtration_rejects_a_non_object_with_polyerror():
    with pytest.raises(PolyError):
        hn_filtration("x")
    with pytest.raises(PolyError):
        central_charge("x")


def test_exceptionality_rejects_a_non_quiver_with_polyerror():
    with pytest.raises(PolyError):
        exceptional_collection("A3", 1, "x")
    with pytest.raises(PolyError):
        strong_exceptionality_check("A3", 1, "x")


def test_every_heart_object_maps_onto_a_projective_cover():
    for t, b in (("A2", 1), ("A4", 2), ("D4", None)):
        assert projectivity_check(t, b) == []


def test_principal_collection_sits_in_the_first_slice():
    for t, b in (("A5", 1), ("A5", 4), ("D6", None), ("E7", None)):
        cat = get_catalog(t, b)
        q = principal_orientation(t, b)
        nvec, objects = exceptional_collection(t, b, q)
        assert set(nvec) == {0}
        assert len(objects) == cat.l
        lo, hi = Fraction(1, cat.h), Fraction(2, cat.h)
        for k, n in objects:
            assert lo <= cat.phase(k, n) <= hi
        phases = [cat.phase(k, n) for k, n in objects]
        assert phases == sorted(phases)


def test_strong_exceptionality_for_principal_and_random_orientations():
    for t, b in (("A3", 2), ("D4", None)):
        q = principal_orientation(t, b)
        assert strong_exceptionality_check(t, b, q) == []
        assert strong_exceptionality_check(t, b, random_orientation(t, b, 3)) == []


def test_exceptional_collection_dimension_counts_paths():
    # the total algebra dimension over the collection equals the number of
    # directed paths in the chosen orientation (checked inside the strong
    # verifier); the path summary agrees with the root-free count
    q = principal_orientation("D5")
    s = path_hom_dims(q)
    assert s.dim == sum(sum(row) for row in s.hom_dims)
