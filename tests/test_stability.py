"""Stability layer: central charges, filtrations, hearts, exceptionality."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import mpmath
import pytest

from mfcat import stability
from mfcat.catalog import Catalog, get_catalog
from mfcat.gring import PolyError
from mfcat.mf import GradedMF, direct_sum, shift_T
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


def test_stability_axioms_on_a_small_type():
    assert check_stability_axioms("A3", 2, trials=12, seed=5) == []


@pytest.mark.parametrize("kwargs", [
    {"window": (1, 1)},
    {"window": (2, 0)},
    {"max_summands": 0},
    {"trials": -1},
    {"window": ("x", 1)},
    {"window": None},
    {"window": (0, 1, 2)},
    {"trials": 1.5},
    {"max_summands": 1.5},
])
def test_stability_axioms_reject_bad_arguments_with_polyerror(kwargs):
    with pytest.raises(PolyError):
        check_stability_axioms("A3", 2, **kwargs)


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
