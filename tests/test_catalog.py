"""Catalog layer: diagrams, per-vertex data, object construction, windows."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mfcat import catalog
from mfcat.catalog import (
    Catalog,
    DynkinDiagram,
    get_catalog,
    principal_decomposition,
)
from mfcat.gring import (
    Poly,
    PolyError,
    ade_polynomial,
    integer_degree,
)
from mfcat.homcat import (
    ar_triangle_check,
    serre_image,
    serre_multiset_mirror,
    t_image,
)
from mfcat.mf import (
    GradedMF,
    mf_from_json,
    mf_to_json,
    solve_grading,
    verify_grading,
    verify_mf,
)
from mfcat.stability import check_stability_axioms

from helpers import CATALOG_SCOPE
from oracles import slot_values


def test_diagram_shapes_and_distances():
    dia = DynkinDiagram("E", 6, None)
    assert list(dia.vertices) == list(range(1, 7))
    assert sorted(dia.neighbors(2)) == [1, 3, 4]
    assert get_catalog("E6").diagram.distance(1, 6) == 3
    dia = DynkinDiagram("D", 6, None)
    assert sorted(dia.neighbors(4)) == [3, 5, 6]
    assert get_catalog("D6").diagram.distance(5, 6) == 2
    dia = DynkinDiagram("A", 5, 2)
    assert sorted(dia.neighbors(3)) == [2, 4]
    assert get_catalog("A5", 2).diagram.distance(1, 5) == 4


def test_distance_is_a_tree_metric():
    for t, b in (("A6", 3), ("D7", None), ("E8", None)):
        dia = DynkinDiagram(t[0], int(t[1]), b)
        verts = dia.vertices
        for u in verts:
            assert dia.distance(u, u) == 0
            for v in verts:
                assert dia.distance(u, v) == dia.distance(v, u)
                # tree distance drops by one across some neighbor
                if u != v:
                    assert any(dia.distance(w, v) == dia.distance(u, v) - 1
                               for w in dia.neighbors(u))


def test_sigma_is_the_distance_parity_to_the_base():
    for t, b in (("A5", 1), ("A5", 4), ("D6", None), ("E7", None)):
        cat = get_catalog(t, b)
        base, pi1, pi2 = principal_decomposition(t, b)
        for k in cat.diagram.vertices:
            want = 1 if cat.diagram.distance(k, base) % 2 else 2
            assert cat.sigma(k) == want
            assert (k in pi1) == (cat.sigma(k) == 1)
            assert (k in pi2) == (cat.sigma(k) == 2)
        assert sorted(pi1 + pi2) == list(cat.diagram.vertices)
        # the two sides are independent sets of the tree
        for u, v in cat.diagram.edges:
            assert cat.sigma(u) != cat.sigma(v)


def test_every_catalog_object_verifies():
    # a broad but quick slice; the full scope runs in the acceptance gate
    for t, b in (("A1", 1), ("A5", 2), ("A8", 8), ("D4", None), ("D6", None),
                 ("E6", None), ("E8", None)):
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            g = cat.object(k, 0)
            assert verify_mf(g) == []
            assert verify_grading(g) == []
            assert g.r == len(slot_values(cat, k)[0])


# every shipped catalog, and A9-A12 (every b) and D9-D12 through the closed
# forms: the engine serves any l, and only this comparison pins its gradings
_Q_SCOPE = (list(CATALOG_SCOPE)
            + [("A%d" % l, b) for l in range(9, 13) for b in range(1, l + 1)]
            + [("D%d" % l, None) for l in range(9, 13)])


def test_slot_values_are_signed_pairs_on_the_phase_ray():
    count = 0
    for t, b in _Q_SCOPE:
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            first, second = slot_values(cat, k)
            g = cat.object(k, 0)
            assert len(first) == len(second) == g.r
            assert sum(first) == 0 and sum(second) == 0
            ph = cat.phase(k, 0)
            assert sorted(g.S[:g.r]) == sorted(v + ph for v in first)
            assert sorted(g.S[g.r:]) == sorted(v + ph for v in second)
            count += (t, b) in CATALOG_SCOPE
    assert count == 255


def test_phase_and_shift_bookkeeping():
    cat = get_catalog("E7")
    assert cat.phase(7, 0) == Fraction(cat.sigma(7), 18)
    assert cat.phase(7, 9) == cat.phase(7, 0) + 1
    g0, g9 = cat.object(7, 0), cat.object(7, 9)
    assert [s + 1 for s in g0.S] == list(g9.S)
    assert g0.phi == g9.phi and g0.psi == g9.psi
    # twist inverts 2n + sigma, also on exact phase * h values
    for k in cat.diagram.vertices:
        for n in (-3, 0, 9):
            c = 2 * n + cat.sigma(k)
            assert cat.coord(k, n) == c == cat.phase(k, n) * cat.h
            assert cat.twist(k, c) == n
            assert cat.twist(k, c + 1) is None
            assert cat.twist(k, cat.phase(k, n) * cat.h) == n
        # coord inverts twist on every coordinate of k's parity
        for c in range(-7, 2 * cat.h):
            n = cat.twist(k, c)
            assert n is None or cat.coord(k, n) == c
            assert (n is None) == ((c - cat.sigma(k)) % 2 == 1)
    assert cat.twist(7, Fraction(1, 5)) is None


def test_objects_in_window_enumeration():
    for t, b in (("A3", 2), ("D5", None), ("E6", None)):
        cat = get_catalog(t, b)
        win = cat.objects_in_window(0, 2)
        assert len(win) == cat.l * cat.h
        assert all(0 < ph <= 2 for ph, _, _ in win)
        assert win == sorted(win)
        # each (k, n) appears once and matches its phase
        assert len({(k, n) for _, k, n in win}) == len(win)
        for ph, k, n in win:
            assert cat.phase(k, n) == ph
        # shifting the window by one phase unit shifts n by h/2 exactly
        # when h is even; in general the object count is preserved
        assert len(cat.objects_in_window(1, 3)) == len(win)


def test_malformed_windows_twists_and_vertices_raise_polyerror():
    cat = get_catalog("A3")
    with pytest.raises(PolyError):
        cat.objects_in_window("x", 1)
    with pytest.raises(PolyError):
        cat.objects_in_window(0, None)
    for lo, hi in ((0.1, 1), (0, 1.0), (0.5, 2)):
        with pytest.raises(PolyError):
            cat.objects_in_window(lo, hi)
    with pytest.raises(PolyError):
        cat.object(1, 1.5)
    with pytest.raises(PolyError):
        cat.object("1", 0)
    for c in ("a", 1.5, None):
        with pytest.raises(PolyError):
            cat.twist(1, c)
        with pytest.raises(PolyError):
            cat.coord(1, c)
    assert cat.twist(1, Fraction(5)) == cat.twist(1, 5) == cat.twist(1, 2, 3)
    # rational bounds in any exact spelling still enumerate the window
    assert cat.objects_in_window("0", Fraction(1)) == cat.objects_in_window(0, 1)


def test_unknown_types_and_vertices_are_rejected():
    with pytest.raises(PolyError):
        get_catalog("Z4")
    with pytest.raises(PolyError):
        get_catalog("A3", 7)
    for b in ("x", 1.5):
        with pytest.raises(PolyError):
            get_catalog("A3", b=b)
        with pytest.raises(PolyError):
            Catalog("A3", b=b)
    with pytest.raises(PolyError):
        get_catalog("D3")
    cat = get_catalog("D5")
    with pytest.raises(PolyError):
        cat.object(6, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: get_catalog("A3", b=[1]), id="get_catalog-list"),
    pytest.param(lambda: get_catalog("A3", b={}), id="get_catalog-dict"),
    pytest.param(lambda: principal_decomposition("A3", b=[1]),
                 id="principal_decomposition"),
    pytest.param(lambda: check_stability_axioms("A3", b=[1], trials=0),
                 id="check_stability_axioms"),
])
def test_unhashable_b_raises_polyerror(call):
    with pytest.raises(PolyError):
        call()


_A3 = get_catalog("A3")
_PHI, _PSI = catalog._blocks_A(3, 1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: _A3.object([], 0), id="object-list"),
    pytest.param(lambda: _A3.object({}, 0), id="object-dict"),
    pytest.param(lambda: t_image(_A3, []), id="t_image"),
    pytest.param(lambda: serre_image(_A3, []), id="serre_image"),
    pytest.param(lambda: ar_triangle_check(_A3, []), id="ar_triangle_check"),
    pytest.param(lambda: serre_multiset_mirror(_A3, [], 1),
                 id="serre_multiset_mirror"),
    pytest.param(lambda: integer_degree(3, _A3.W), id="integer_degree-int"),
    pytest.param(lambda: integer_degree("x", _A3.W), id="integer_degree-str"),
    pytest.param(lambda: integer_degree(Poly.var("x"), "w"),
                 id="integer_degree-weights"),
    pytest.param(lambda: solve_grading("w", _PHI, _PSI, 0),
                 id="solve_grading-weights"),
    pytest.param(lambda: solve_grading(_A3.W, 5, _PSI, 0),
                 id="solve_grading-phi"),
    pytest.param(lambda: solve_grading(_A3.W, _PHI, 5, 0),
                 id="solve_grading-psi"),
    pytest.param(lambda: solve_grading(_A3.W, _PHI, _PSI[:1], 0),
                 id="solve_grading-shape"),
] + [
    pytest.param(lambda total=total: solve_grading(_A3.W, _PHI, _PSI, total),
                 id="solve_grading-%s" % name)
    for name, total in (("None", None), ("tuple", (1,)), ("list", [1]),
                        ("dict", {}), ("nan", float("nan")), ("float", 1.0),
                        ("str", "1"))
])
def test_unhashable_vertices_non_polys_and_inexact_totals_raise_polyerror(call):
    with pytest.raises(PolyError):
        call()


def test_catalogs_are_cached_and_polynomials_match():
    assert get_catalog("E6") is get_catalog("E6")
    assert get_catalog("A4", 2) is get_catalog("A4", 2)
    assert get_catalog("A4", 2) is not get_catalog("A4", 3)
    for t, b in (("A4", 2), ("D5", None), ("E8", None)):
        cat = get_catalog(t, b)
        f, W = ade_polynomial(t, b)
        assert cat.f == f and cat.W == W


def test_objects_are_built_once_per_catalog():
    cat = get_catalog("D5")
    fresh = Catalog("D5")
    for k in cat.diagram.vertices:
        for n in (0, -2, 3):
            g = cat.object(k, n)
            assert cat.object(k, n) is g
            # every twist shares the blocks, and the block memo, of M(k, 0)
            assert g._block_memo is cat.object(k, 0)._block_memo
            other = fresh.object(k, n)
            assert other == g and other is not g
            assert other._block_memo is not g._block_memo


def test_engine_integrity_failures_raise_arithmetic_error(monkeypatch):
    monkeypatch.setattr(catalog, "solve_grading", lambda *args: None)
    with pytest.raises(ArithmeticError):
        Catalog("D4").object(1, 0)


# planted controls: each test fails if the check it plants against is removed


def test_a_unit_change_in_one_block_entry_fails_verification(monkeypatch):
    blocks = catalog._blocks_E6

    def planted(k):
        phi, psi = blocks(k)
        phi = [list(row) for row in phi]
        phi[0][0] = -phi[0][0]
        return phi, psi

    monkeypatch.setattr(catalog, "_blocks_E6", planted)
    for k in range(1, 7):
        with pytest.raises(ArithmeticError, match="fails verification"):
            Catalog("E6").object(k, 0)


def test_two_swapped_slots_fail_the_grading_check():
    g = get_catalog("E6").object(2, 0)
    i, j = 0, next(j for j in range(1, g.r) if g.S[j] != g.S[0])
    S = list(g.S)
    S[i], S[j] = S[j], S[i]
    bad = GradedMF(g.f, g.W, g.phi, g.psi, S, label=g.label)
    assert verify_mf(bad) == [] and verify_grading(bad)
    with pytest.raises(PolyError, match="violates its contract"):
        mf_from_json(mf_to_json(bad))


def test_a_grading_off_the_phase_symmetry_is_rejected(monkeypatch):
    solve = catalog.solve_grading

    def planted(W, phi, psi, total):
        S = solve(W, phi, psi, total)
        r, step = len(phi), Fraction(1, W.h)
        return [s + step for s in S[:r]] + [s - step for s in S[r:]]

    monkeypatch.setattr(catalog, "solve_grading", planted)
    with pytest.raises(ArithmeticError, match="not symmetric about the phase"):
        Catalog("E7").object(3, 0)
