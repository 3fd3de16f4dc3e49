"""Polynomial ring layer: exact coefficients, parsing, weights, Poincare data."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcat.gring import (
    GaussRat,
    Poly,
    PolyError,
    WeightSystem,
    ade_polynomial,
    ade_weight_system,
    frac_str,
    gauss_to_str,
    integer_degree,
    monomial_basis,
    parse_poly,
    parse_type,
    poly_to_str,
)

import oracles


small_fracs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
gauss = st.builds(GaussRat, small_fracs, small_fracs)


@given(gauss, gauss, gauss)
def test_gaussrat_is_a_commutative_ring(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + GaussRat(0) == a
    assert a * GaussRat(1) == a


@given(gauss)
def test_gaussrat_inverse_and_conjugate(a):
    assert a.conj().conj() == a
    if a:
        assert a * a.inv() == GaussRat(1)
        assert (a * a.conj()).im == 0


mixed_fracs = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
)
pairs = st.tuples(mixed_fracs, mixed_fracs)


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _parts(g):
    return (g.re, g.im)


@given(pairs, pairs)
def test_gaussrat_matches_a_fraction_pair_reference(x, y):
    # the reference is Q(i) as a pair of Fractions
    gx, gy = GaussRat(*x), GaussRat(*y)
    assert _parts(gx) == x and _parts(gy) == y
    assert type(gx.re) is Fraction and type(gx.im) is Fraction
    assert _parts(gx + gy) == (x[0] + y[0], x[1] + y[1])
    assert _parts(gx - gy) == (x[0] - y[0], x[1] - y[1])
    assert _parts(gx * gy) == _ref_mul(x, y)
    assert _parts(-gx) == (-x[0], -x[1])
    assert _parts(gx.conj()) == (x[0], -x[1])
    if y != (0, 0):
        assert _parts(gx / gy) == _ref_div(x, y)
        assert _parts(gy.inv()) == _ref_div((Fraction(1), Fraction(0)), y)
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy
        with pytest.raises(ZeroDivisionError):
            gy.inv()
    # equal values are equal objects with equal hashes, whatever the route
    same = (gx * gy) / gy if y != (0, 0) else gx + gy - gy
    assert same == gx and hash(same) == hash(gx)
    assert (gx == gy) == (x == y)
    assert hash(gx) == hash(x)
    assert bool(gx) == (x != (0, 0))
    if x[1] == 0:
        assert gx == x[0] and hash(gx) == hash((x[0], 0))


@given(pairs)
def test_gaussrat_triple_is_in_lowest_terms(x):
    g = GaussRat(*x)
    for z in (g, g + g, g * g, -g, g.conj()):
        assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
        assert (Fraction(z.a, z.d), Fraction(z.b, z.d)) == _parts(z)


def test_non_exact_parts_raise_polyerror():
    for bad in (0.5, 1.0, 1j, "1", None):
        for call in (lambda: GaussRat(bad), lambda: GaussRat(1, bad),
                     lambda: Poly.const(bad)):
            with pytest.raises(PolyError):
                call()


def _poly_from_entries(entries):
    p = Poly()
    for ex, ey, ez, re, im in entries:
        p = p + Poly.monomial((ex, ey, ez), GaussRat(Fraction(re), Fraction(im)))
    return p


poly_entries = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
        st.integers(-5, 5), st.integers(-2, 2),
    ),
    max_size=5,
)


@given(poly_entries, poly_entries)
def test_poly_ring_laws_and_derivation(e1, e2):
    p, q = _poly_from_entries(e1), _poly_from_entries(e2)
    assert p + q == q + p
    assert p * q == q * p
    for name in ("x", "y", "z"):
        left = (p * q).diff(name)
        right = p.diff(name) * q + p * q.diff(name)
        assert left == right


@given(poly_entries, poly_entries)
def test_a_product_by_one_is_the_other_factor_and_changes_no_operand(e1, e2):
    p, q = _poly_from_entries(e1), _poly_from_entries(e2)
    for one in (Poly.const(1), Poly.const(GaussRat(1)), parse_poly("1")):
        before = [dict(f.terms) for f in (p, q, one)]
        assert p * one == p
        assert one * p == p
        assert one * one == one
        # a shared operand goes on into sums and products unchanged
        assert (one * p) * q + p * (q * one) == (p * q) * 2
        assert [f.terms for f in (p, q, one)] == before


@given(poly_entries)
def test_poly_parse_round_trip(entries):
    p = _poly_from_entries(entries)
    assert parse_poly(poly_to_str(p)) == p


def test_parse_poly_accepts_table_style_expressions():
    p = parse_poly("x^3 + y^2*z - 2*I*z^2")
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    want = x ** 3 + y ** 2 * z - Poly.const(GaussRat(0, 2)) * z ** 2
    assert p == want


def test_parse_poly_rejects_garbage():
    for text in ("x +", "w^2", "x^^2", "3//4", None, 5):
        with pytest.raises(PolyError):
            parse_poly(text)
    for call in (lambda: Poly.var("w"), lambda: Poly.var("x").diff("w")):
        with pytest.raises(PolyError):
            call()
    # the printers that parse_poly inverts take only the type they print
    # (frac_str also an int): anything else is a PolyError, not an
    # AttributeError
    assert frac_str(5) == "5" and poly_to_str(Poly()) == "0"
    for fn, bad in ((frac_str, (None, "1/2", 0.5, GaussRat(1))),
                    (gauss_to_str, (None, 1, Fraction(1, 2), Poly.const(1))),
                    (poly_to_str, (None, "x", 1, GaussRat(1)))):
        for value in bad:
            with pytest.raises(PolyError):
                fn(value)


def test_parse_type_accepts_and_rejects():
    assert parse_type("A1") == ("A", 1)
    assert parse_type("D8") == ("D", 8)
    assert parse_type("E7") == ("E", 7)
    for bad in ("Z9", "D3", "E9", "A0", "E5", ""):
        with pytest.raises(PolyError):
            parse_type(bad)


def test_weight_systems_of_the_five_families():
    # A_l depends on b; D_l and E_l are rigid.
    W = ade_weight_system("A5", 2)
    assert (W.a, W.b, W.c, W.h) == (1, 2, 4, 6)
    W = ade_weight_system("D6")
    assert (W.a, W.b, W.c, W.h) == (4, 2, 5, 10)
    for t, want in (("E6", (4, 3, 6, 12)), ("E7", (6, 4, 9, 18)),
                    ("E8", (10, 6, 15, 30))):
        W = ade_weight_system(t)
        assert (W.a, W.b, W.c, W.h) == want


def test_weight_system_rejects_bad_weights_with_polyerror():
    for bad in ((0, 1, 1, 2), (1, 2, 3, -6), (2, 4, 6, 12), (1, 2, "a", 4),
                (1, 2, 1.5, 4)):
        with pytest.raises(PolyError):
            WeightSystem(*bad)


def test_polynomials_are_weighted_homogeneous_of_degree_two():
    for t, b in (("A4", 1), ("A4", 3), ("D5", None), ("E6", None),
                 ("E7", None), ("E8", None)):
        f, W = ade_polynomial(t, b)
        assert W.normalize(integer_degree(f, W)) == 2
        for name in ("x", "y", "z"):
            d = f.diff(name)
            if d:
                assert W.normalize(integer_degree(d, W)) == 2 - W.deg(name)


def test_monomial_basis_matches_brute_force():
    W = ade_weight_system("E6")
    for num in range(0, 25):
        d = Fraction(num, 12)
        got = set(monomial_basis(W, d))
        brute = set()
        for ex in range(0, 8):
            for ey in range(0, 9):
                for ez in range(0, 5):
                    if ex * W.a + ey * W.b + ez * W.c == d * W.h / 2:
                        brute.add((ex, ey, ez))
        assert got == brute
    assert monomial_basis(W, Fraction(1, 5)) == []
    assert monomial_basis(W, Fraction(-1, 6)) == []


def test_the_jacobi_ring_of_each_weight_system_has_dimension_l():
    # the Milnor number mu = l ties each weight system to its diagram rank
    for t, b in (("A1", 1), ("A6", 2), ("A6", 5), ("D4", None), ("D8", None),
                 ("E6", None), ("E7", None), ("E8", None)):
        W = ade_weight_system(t, b)
        assert sum(oracles.jacobi_poincare(*W.weights, W.h)) == parse_type(t)[1]
