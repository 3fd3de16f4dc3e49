"""Graded factorization layer: contracts, functors, cones, JSON."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce as _freduce

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mfcat
from mfcat import homcat
from mfcat.catalog import get_catalog
from mfcat.gring import Poly, PolyError, parse_poly, poly_to_str
from mfcat.homcat import compose, decompose, hom_space
from mfcat.mf import (
    GradedMF,
    Morphism,
    _block_components,
    cone,
    direct_sum,
    mat_mul,
    mf_from_json,
    mf_to_json,
    reduce as mf_reduce,
    serre,
    serre_inverse,
    shift_T,
    solve_grading,
    tau,
    verify_grading,
    verify_mf,
    verify_morphism,
)

from mfcat.stability import hn_filtration
from helpers import disguised_sum, identity_morphism, permute_slots
from oracles import (
    cone_reference,
    direct_sum_reference,
    hn_triangles_reference,
    reduce_reference,
    serre_inverse_reference,
    shift_T_inverse_reference,
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
        # T and its inverse tau^-h T cancel
        back = tau(shift_T(shift_T(g)), -h)
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
        others = (shift_T(g), tau(shift_T(g), -g.W.h), serre(g), serre_inverse(g),
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


def _terms(g):
    """Every entry's term items, in dict order."""
    return [tuple(p.terms.items()) for blk in (g.phi, g.psi)
            for row in blk for p in row]


def test_reduce_matches_the_copying_reference(monkeypatch):
    inputs = [cone(identity_morphism(g)) for g in _objects()]
    seen = []
    monkeypatch.setattr(homcat, "reduce",
                        lambda g: seen.append(g) or mf_reduce(g))
    rng = random.Random(13)
    for t, b in (("A4", 2), ("D5", None), ("E6", None)):
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            X = cat.object(k, 0)
            inputs.append(cone(hom_space(serre_inverse(X), X).basis[0]))
        window = cat.objects_in_window(0, 2)
        for s in (2, 3, 4):
            parts = [cat.object(*rng.choice(window)[1:]) for _ in range(s)]
            # disguised, so the sum is one block piece and every summand
            # but the last is split off as a reduced cone
            g = disguised_sum(parts, s)
            assert _block_components(g) == [g]
            decompose(cat, g)
    # decompose reduces the sum once and each split-off complement once
    assert len(seen) == 3 * (2 + 3 + 4)
    for g in inputs + seen:
        got, want = mf_reduce(g), reduce_reference(g)
        assert got == want and got.label == want.label
        assert _terms(got) == _terms(want)


def test_reduce_rejects_a_pivot_with_a_nonzero_neighbour():
    # phi psi and psi phi are not f*1: in the first psi, row 0 of phi psi
    # keeps an entry beside the pivot phi[0][0]; in the second that row
    # vanishes and column 0 of psi phi keeps one
    g = _objects()[0]
    one, zero, x = Poly.const(1), Poly(), Poly.var("x")
    for psi in ([[zero, one], [zero, zero]], [[zero, zero], [one, zero]]):
        bad = GradedMF(g.f, g.W, [[one, zero], [zero, x]], psi, g.S[:4])
        with pytest.raises(ArithmeticError, match="beside the pivot"):
            mf_reduce(bad)


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


def _same(got, want):
    # by value, the order of S included
    assert (got.phi, got.psi, got.S) == (want.phi, want.psi, want.S)


@pytest.mark.parametrize("t,b", [("A4", 2), ("D5", None), ("E6", None)])
def test_stacked_constructions_match_the_block_assembler_references(t, b):
    cat = get_catalog(t, b)
    zero = GradedMF(cat.f, cat.W, (), (), (), label="0")
    objs = [cat.object(k, n) for k in cat.diagram.vertices for n in (0, 1)]
    for g in objs + [zero]:
        _same(tau(shift_T(g), -g.W.h), shift_T_inverse_reference(g))
        _same(serre_inverse(g), serre_inverse_reference(g))
        for other in objs + [zero]:
            _same(direct_sum(g, other), direct_sum_reference(g, other))
    maps = []
    for X in objs:
        maps.append(identity_morphism(X))
        maps.extend(hom_space(serre_inverse(X), X).basis)
        for Y in objs:
            maps.extend(hom_space(X, Y).basis)
        maps.append(Morphism(zero, X, [()] * X.r, [()] * X.r))
    assert len(maps) > 3 * len(objs)
    for m in maps:
        _same(cone(m), cone_reference(m))
    # the assembler rejected a map into the zero object; its cone is TX
    for X in objs:
        with pytest.raises(PolyError):
            cone_reference(Morphism(X, zero, (), ()))
        _same(cone(Morphism(X, zero, (), ())), shift_T(X))
    rng = random.Random(5)
    for _ in range(6):
        picks = [rng.choice(objs) for _ in range(1 + rng.randrange(4))]
        filt = hn_filtration(_freduce(direct_sum, picks))
        want = hn_triangles_reference(cat, filt.pieces)
        assert len(filt.triangles) == len(want)
        for pair, ref_pair in zip(filt.triangles, want):
            for m, ref in zip(pair, ref_pair):
                _same(m.src, ref.src)
                _same(m.dst, ref.dst)
                assert (m.phi0, m.phi1) == (ref.phi0, ref.phi1)


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


@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 2], [-1, 0, 1, 2], None],
                         ids=["repeated", "short", "negative", "none"])
def test_permute_slots_rejects_a_relabeling_that_is_not_a_permutation(perm):
    g = get_catalog("D5").object(2, 0)
    assert g.r == 4
    for perm0, perm1 in ((perm, [0, 1, 2, 3]), ([0, 1, 2, 3], perm)):
        with pytest.raises(PolyError, match="permutations of range"):
            permute_slots(g, perm0, perm1)


def test_permute_slots_takes_a_graded_mf():
    with pytest.raises(PolyError, match="GradedMF"):
        permute_slots(None, [0], [0])


def test_solve_grading_recovers_the_catalog_grading():
    for g in _objects():
        assert solve_grading(g.W, g.phi, g.psi, sum(g.S)) == list(g.S)
        # the sum pins the one free offset: 2r more moves every slot by 1
        assert (solve_grading(g.W, g.phi, g.psi, sum(g.S) + 2 * g.r)
                == [s + 1 for s in g.S])


def test_solve_grading_refuses_a_contract_it_cannot_pin():
    g = get_catalog("A4", 2).object(2, 0)
    x = Poly.var("x")
    inhomogeneous = [list(row) for row in g.phi]
    inhomogeneous[1][0] = inhomogeneous[1][0] + x
    contradictory = [list(row) for row in g.phi]
    contradictory[0][0] = contradictory[0][0] * x
    for phi in (inhomogeneous, contradictory):
        assert solve_grading(g.W, phi, g.psi, sum(g.S)) is None
    # a direct sum's constraint graph has one component per summand
    s = direct_sum(g, g)
    assert solve_grading(s.W, s.phi, s.psi, sum(s.S)) is None
    assert solve_grading(g.W, (), (), 0) is None


def test_grading_violation_messages_are_pinned():
    g = get_catalog("A4", 2).object(2, 0)
    assert (g.W.h, g.S) == (5, tuple(Fraction(n, 5) for n in (2, 2, 3, 1)))
    moved = list(g.S)
    moved[0] += Fraction(2, 5)
    assert verify_grading(GradedMF(g.f, g.W, g.phi, g.psi, moved)) == [
        "phi[0][0] has degree 4/5, grading demands 6/5",
        "phi[0][1] has degree 6/5, grading demands 8/5",
        "psi[0][0] has degree 6/5, grading demands 4/5",
        "psi[1][0] has degree 4/5, grading demands 2/5",
    ]
    off = list(g.S)
    off[3] += Fraction(1, 15)
    off = GradedMF(g.f, g.W, g.phi, g.psi, off)
    assert off.h_degrees()[0] == 3
    assert verify_grading(off) == [
        "phi[0][1] has degree 6/5, grading demands 17/15",
        "phi[1][1] has degree 6/5, grading demands 17/15",
        "psi[1][0] has degree 4/5, grading demands 13/15",
        "psi[1][1] has degree 4/5, grading demands 13/15",
    ]
    phi = [list(row) for row in g.phi]
    phi[1][0] = phi[1][0] + Poly.var("x")
    assert verify_grading(GradedMF(g.f, g.W, phi, g.psi, g.S)) == [
        "phi[1][0] = x+x^2 is not homogeneous"]
    assert verify_grading(GradedMF(g.f + Poly.var("x"), g.W, g.phi, g.psi,
                                   g.S)) == ["f is not homogeneous of degree 2"]


def test_morphism_degree_messages_are_pinned():
    cat = get_catalog("D4")
    m = hom_space(cat.object(1, 0), cat.object(3, 1)).basis[0]
    assert [[poly_to_str(p) for p in row] for row in m.phi0] == [
        ["0", "I*y+x"], ["-1", "0"]]
    x, zero = Poly.var("x"), Poly()
    cocycle = ["cocycle fails: phi' phi1 != phi0 phi",
               "cocycle fails: psi' phi0 != phi1 psi"]
    wrong = [[zero, m.phi0[0][1] * x], [m.phi0[1][0], zero]]
    assert verify_morphism(Morphism(m.src, m.dst, wrong, m.phi1)) == [
        "phi0[0][1] degree 4/3, expected 2/3"] + cocycle
    mixed = [[zero, m.phi0[0][1]], [m.phi0[1][0] + x, zero]]
    assert verify_morphism(Morphism(m.src, m.dst, mixed, m.phi1)) == [
        "phi0[1][0] degree None, expected 0"] + cocycle


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
    for phi, S in ((g.phi, ["a"] * len(g.S)), (5, g.S), ([5], g.S)):
        with pytest.raises(PolyError):
            GradedMF(g.f, g.W, phi, g.psi, S)
    for f, W in ((5, g.W), (g.f, 5)):
        with pytest.raises(PolyError, match="expected a"):
            GradedMF(f, W, g.phi, g.psi, g.S)
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
    m = identity_morphism(g)
    for call in (lambda: tau("x"), lambda: shift_T("x"), lambda: serre("x"),
                 lambda: serre_inverse("x"), lambda: verify_mf("x"),
                 lambda: verify_grading("x"), lambda: identity_morphism("x"),
                 lambda: compose(m, g), lambda: compose("x", m),
                 lambda: verify_morphism(g),
                 lambda: homcat.check_jacobi_annihilation(g),
                 lambda: homcat.jacobi_homotopy(g, "x"),
                 lambda: homcat.morphism_add(m, g),
                 lambda: homcat.morphism_sub(g, m),
                 lambda: homcat.morphism_scale(2, g),
                 lambda: homcat.morphism_scale_poly(Poly.var("x"), g),
                 lambda: homcat.morphism_eq(m, "x")):
        with pytest.raises(PolyError):
            call()


def test_boundary_of_rejects_bad_input_with_polyerror():
    g = _objects()[0]
    m = identity_morphism(g)
    hA, hB = homcat.jacobi_homotopy(m, "x")
    want = homcat.morphism_scale_poly(g.f.diff("x"), m)
    assert homcat.morphism_eq(homcat.boundary_of(g, g, hA, hB), want)
    ints = [[5] * g.r for _ in range(g.r)]
    ragged = [hA[0]] + [hA[1] + hA[1][:1]] + list(hA[2:])
    for args in (("x", g, hA, hB), (g, None, hA, hB), (g, g, None, hB),
                 (g, g, hA, 5), (g, g, ints, hB), (g, g, hA, ints),
                 (g, g, hA[:-1], hB), (g, g, ragged, hB)):
        with pytest.raises(PolyError):
            homcat.boundary_of(*args)


def test_graded_mf_rejects_blocks_of_non_poly_entries():
    g = _objects()[0]
    ints = [[5] * g.r for _ in range(g.r)]
    for phi, psi in ((ints, g.psi), (g.phi, ints), (g.phi, 5), ("ab", g.psi)):
        with pytest.raises(PolyError):
            GradedMF(g.f, g.W, phi, psi, g.S)


def test_morphism_rejects_blocks_of_non_poly_entries():
    g = _objects()[0]
    ints = [[5] * g.r for _ in range(g.r)]
    for phi0, phi1 in ((ints, g.phi), (g.phi, ints), (5, g.phi)):
        with pytest.raises(PolyError):
            Morphism(g, g, phi0, phi1)
    for src, dst in (("x", g), (g, None)):
        with pytest.raises(PolyError):
            Morphism(src, dst, g.phi, g.phi)
    # slot degrees on two weight systems are not comparable
    other = get_catalog("D4").object(1, 0)
    assert (other.r, other.W == g.W) == (g.r, False)
    with pytest.raises(PolyError, match="different weight systems"):
        Morphism(g, other, g.phi, g.phi)


_OPTIMIZED_PROBE = """
from mfcat.catalog import get_catalog
from mfcat.gring import GaussRat, Poly, PolyError, parse_poly
from mfcat.homcat import compose, hom_dim
from mfcat.mf import GradedMF, cone, mat_mul, reduce, tau, verify_morphism
one = ((Poly.const(1),),)
X = get_catalog("A2").object(1, 0)
twice = GradedMF(X.f * 2, X.W, X.phi, [[p * 2 for p in row] for row in X.psi],
                 X.S)
for name, call in (
        ("mat_mul", lambda: mat_mul(one, ((Poly.const(2),), (Poly.const(3),)))),
        ("GaussRat", lambda: GaussRat(GaussRat(1), 5)),
        ("GaussRat(0.5)", lambda: GaussRat(0.5)),
        ("hom_dim", lambda: hom_dim(X, twice)),
        ("cone", lambda: cone(X)),
        ("reduce", lambda: reduce("x")),
        ("tau", lambda: tau("x")),
        ("compose", lambda: compose(X, X)),
        ("parse_poly", lambda: parse_poly(None)),
        ("verify_morphism", lambda: verify_morphism(X))):
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
        "mat_mul rejected", "GaussRat rejected",
        "GaussRat(0.5) rejected", "hom_dim rejected", "cone rejected",
        "reduce rejected", "tau rejected", "compose rejected",
        "parse_poly rejected", "verify_morphism rejected"]
