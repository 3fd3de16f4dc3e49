"""Graded factorization layer: contracts, functors, cones, JSON."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mfcat
from mfcat.catalog import get_catalog
from mfcat.gring import Poly, PolyError, parse_poly, poly_to_str
from mfcat.homcat import hom_space
from mfcat.mf import (
    GradedMF,
    Morphism,
    cone,
    direct_sum,
    identity_morphism,
    mat_mul,
    mf_from_json,
    mf_to_json,
    permute_slots,
    reduce as mf_reduce,
    serre,
    serre_inverse,
    shift_T,
    shift_T_inverse,
    solve_grading,
    tau,
    verify_grading,
    verify_mf,
    verify_morphism,
)

SPOTS = (("A4", 2, 2), ("A4", 1, 4), ("D4", None, 1), ("D5", None, 3),
         ("E6", None, 5), ("E7", None, 7))


def _objects():
    return [get_catalog(t, b).object(k, 0) for t, b, k in SPOTS]


def test_catalog_objects_satisfy_both_contracts():
    for g in _objects():
        assert verify_mf(g) == []
        assert verify_grading(g) == []


def test_contract_violations_are_reported():
    g = _objects()[0]
    # break the factorization: corrupt one phi entry
    bad_phi = [list(row) for row in g.phi]
    bad_phi[0][0] = bad_phi[0][0] + Poly.var("x")
    bad = GradedMF(g.f, g.W, bad_phi, g.psi, g.S)
    assert verify_mf(bad) != [] or verify_grading(bad) != []
    # break the grading: shift a single slot
    bad_S = list(g.S)
    bad_S[0] += Fraction(1, 7)
    bad = GradedMF(g.f, g.W, g.phi, g.psi, bad_S)
    assert verify_grading(bad) != []


def test_tau_and_t_shift_algebra():
    for g in _objects():
        h = g.W.h
        # T^2 equals the pure grading shift by 2, i.e. tau^h
        tt = shift_T(shift_T(g))
        th = tau(g, h)
        assert (tt.phi, tt.psi, list(tt.S)) == (th.phi, th.psi, list(th.S))
        # T and its inverse cancel
        back = shift_T_inverse(shift_T(g))
        assert (back.phi, back.psi, list(back.S)) == (g.phi, g.psi, list(g.S))
        # the Serre functor is T after an inverse tau twist
        s1 = serre(g)
        s2 = shift_T(tau(g, -1))
        assert (s1.phi, s1.psi, list(s1.S)) == (s2.phi, s2.psi, list(s2.S))
        back = serre_inverse(serre(g))
        assert (back.phi, back.psi, list(back.S)) == (g.phi, g.psi, list(g.S))
        for im in (tau(g, 3), shift_T(g), serre(g)):
            assert verify_mf(im) == []
            assert verify_grading(im) == []


def test_only_tau_shares_the_block_memo():
    for g in _objects():
        memo = g._block_memo
        assert tau(g, 3)._block_memo is memo
        assert tau(tau(g, -2), 1)._block_memo is memo
        others = (shift_T(g), shift_T_inverse(g), serre(g), serre_inverse(g),
                  direct_sum(g, g), mf_reduce(g), mf_from_json(mf_to_json(g)),
                  GradedMF(g.f, g.W, g.phi, g.psi, g.S, label=g.label))
        for other in others:
            assert other._block_memo is not memo
        # equality, hashing and JSON ignore the memo
        copy = others[-1]
        assert copy == g and hash(copy) == hash(g)
        g._block_memo["probe"] = 1
        assert copy == g and hash(copy) == hash(g)
        assert mf_to_json(copy) == mf_to_json(g)
        del g._block_memo["probe"]


def test_h_degrees_are_the_slot_degrees_on_the_h_scale():
    g = get_catalog("E6").object(2, 1)
    D, degrees = g.h_degrees()
    assert D == 1 and g.h_degrees() is g.h_degrees()
    assert [Fraction(d, g.W.h) for d in degrees] == list(g.S)
    off = GradedMF(g.f, g.W, g.phi, g.psi, [s + Fraction(1, 5) for s in g.S])
    D, degrees = off.h_degrees()
    assert D == 5
    assert [Fraction(d, g.W.h * D) for d in degrees] == list(off.S)


def test_cone_grading_and_contracts():
    for t, b, k in (("A4", 2, 2), ("D4", None, 1), ("E6", None, 5)):
        cat = get_catalog(t, b)
        X = cat.object(k, 0)
        Xm = serre_inverse(X)
        m = hom_space(Xm, X).basis[0]
        assert verify_morphism(m) == []
        C = cone(m)
        assert verify_mf(C) == []
        assert verify_grading(C) == []
        # slot multiset of the cone: dst slots plus src slots shifted by 1
        want0 = sorted(list(X.s_row) + [s + 1 for s in Xm.sbar_row])
        want1 = sorted(list(X.sbar_row) + [s + 1 for s in Xm.s_row])
        assert sorted(C.s_row) == want0
        assert sorted(C.sbar_row) == want1


def test_cone_of_identity_contracts_to_zero():
    for g in _objects():
        C = mf_reduce(cone(identity_morphism(g)))
        assert C.r == 0


def test_direct_sum_layout_and_reduction():
    a = get_catalog("A4", 2).object(1, 0)
    b = get_catalog("A4", 2).object(3, 1)
    s = direct_sum(a, b)
    assert verify_mf(s) == [] and verify_grading(s) == []
    assert list(s.S) == (list(a.s_row) + list(b.s_row)
                         + list(a.sbar_row) + list(b.sbar_row))
    # already-reduced objects are untouched
    r = mf_reduce(s)
    assert r.r == s.r


def test_direct_sum_rejects_mismatched_potentials_with_polyerror():
    with pytest.raises(PolyError):
        direct_sum(get_catalog("A4", 2).object(1, 0),
                   get_catalog("D4").object(1, 0))


def test_permute_slots_preserves_the_contracts():
    g = get_catalog("D5").object(3, 0)
    perm0 = list(reversed(range(g.r)))
    perm1 = list(range(g.r))
    p = permute_slots(g, perm0, perm1)
    assert verify_mf(p) == []
    assert verify_grading(p) == []
    assert sorted(p.S) == sorted(g.S)


def test_solve_grading_recovers_the_catalog_grading():
    for g in _objects():
        fam = solve_grading(g.W, g.phi, g.psi)
        assert fam is not None
        assert len(fam.components) == 1
        S = fam.pin_by_sum(sum(g.S))
        assert list(S) == list(g.S)


def test_json_round_trip_is_faithful():
    for g in _objects():
        d = mf_to_json(g)
        assert set(d) == {"type", "f", "W", "size", "phi", "psi", "S"}
        back = mf_from_json(d)
        assert (back.phi, back.psi, list(back.S)) == (g.phi, g.psi, list(g.S))
        assert back.f == g.f and back.W == g.W
        assert mf_to_json(back) == d


def test_json_rejects_malformed_payloads():
    d = mf_to_json(_objects()[0])
    broken = dict(d)
    broken["size"] = d["size"] + 1
    with pytest.raises(PolyError):
        mf_from_json(broken)
    broken = dict(d)
    broken["S"] = ["not-a-number"] * len(d["S"])
    with pytest.raises(PolyError):
        mf_from_json(broken)
    broken = dict(d)
    del broken["phi"]
    with pytest.raises(PolyError):
        mf_from_json(broken)


def _corrupt(d, kind, pick):
    """A copy of the JSON form d with one defect of the given kind."""
    d = dict(d, phi=[list(row) for row in d["phi"]],
             psi=[list(row) for row in d["psi"]], S=list(d["S"]))
    r = d["size"]
    if kind == "entry":
        # adding x to one entry breaks phi*psi = f*1 (psi has no zero row)
        blk = d["phi" if pick % 2 else "psi"]
        i, j = (pick // 2) % r, (pick // (2 * r)) % r
        blk[i][j] = poly_to_str(parse_poly(blk[i][j]) + Poly.var("x"))
    elif kind == "slot":
        # every slot meets a nonzero entry, whose degree then disagrees
        d["S"][pick % (2 * r)] = str(Fraction(d["S"][pick % (2 * r)])
                                     + Fraction(1, 7))
    elif kind == "shape":
        shape_cuts = (
            lambda: d["phi"].pop(),
            lambda: d["psi"][pick % r].pop(),
            lambda: d["S"].pop(),
            lambda: d.update(phi=[["x"]], size=1),
        )
        shape_cuts[pick % len(shape_cuts)]()
    else:
        wrong_types = (
            ("W", "abc"), ("W", [1, 2, 3, "x"]), ("f", 5), ("phi", 7),
            ("S", [None] * (2 * r)), ("S", ["1/0"] * (2 * r)),
            ("size", str(r)), ("psi", [[[]] * r] * r),
        )
        field, value = wrong_types[pick % len(wrong_types)]
        d[field] = value
    return d


@given(st.integers(0, len(SPOTS) - 1),
       st.sampled_from(["entry", "slot", "shape", "type"]),
       st.integers(0, 10 ** 6))
@example(0, "shape", 3)  # a 1x1 phi beside an r x r psi
@example(0, "type", 5)  # a zero denominator in S
def test_json_load_rejects_every_corruption_with_polyerror(spot, kind, pick):
    d = _corrupt(mf_to_json(_objects()[spot]), kind, pick)
    with pytest.raises(PolyError):
        mf_from_json(d)


def test_shape_errors_raise_polyerror():
    g = _objects()[0]
    with pytest.raises(PolyError):
        GradedMF(g.f, g.W, [[Poly.var("x")]], g.psi, g.S)
    with pytest.raises(PolyError):
        Morphism(g, g, g.phi[:-1], g.phi)
    with pytest.raises(PolyError):
        mat_mul(((Poly.const(1), Poly.const(2)),), ())
    for n in (1.5, "x", Fraction(1, 2), None):
        with pytest.raises(PolyError):
            tau(g, n)
    for call in (lambda: cone(g), lambda: mf_reduce("x"),
                 lambda: direct_sum(g, "x"), lambda: direct_sum("x", g),
                 lambda: mf_to_json("x")):
        with pytest.raises(PolyError):
            call()


_OPTIMIZED_PROBE = """
from mfcat.catalog import get_catalog
from mfcat.gring import GaussRat, Poly, PolyError
from mfcat.homcat import hom_dim
from mfcat.mf import GradedMF, cone, mat_block, mat_mul, reduce
one = ((Poly.const(1),),)
X = get_catalog("A2").object(1, 0)
twice = GradedMF(X.f * 2, X.W, X.phi, [[p * 2 for p in row] for row in X.psi],
                 X.S)
for name, call in (
        ("mat_mul", lambda: mat_mul(one, ((Poly.const(2),), (Poly.const(3),)))),
        ("mat_block", lambda: mat_block([[one, one + one]])),
        ("GaussRat", lambda: GaussRat(GaussRat(1), 5)),
        ("GaussRat(0.5)", lambda: GaussRat(0.5)),
        ("hom_dim", lambda: hom_dim(X, twice)),
        ("cone", lambda: cone(X)),
        ("reduce", lambda: reduce("x"))):
    try:
        call()
    except PolyError:
        print(name, "rejected")
    else:
        print(name, "accepted")
"""


def test_shape_checks_survive_python_O():
    # the checks must be raises, not asserts, which -O strips
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mfcat.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "mat_mul rejected", "mat_block rejected", "GaussRat rejected",
        "GaussRat(0.5) rejected", "hom_dim rejected", "cone rejected",
        "reduce rejected"]
