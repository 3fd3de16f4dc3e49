"""Embedded Hom-degree tables: internal structure and the knitting oracle."""

from __future__ import annotations

import pytest

from mfcat.catalog import get_catalog
from mfcat.gring import PolyError
from mfcat.tables import a_multiset, d_multiset, golden_multiset, grid, serre_vertex

import oracles
from helpers import TYPE16


def _h(type_str):
    return get_catalog(type_str).h


def test_entries_are_sorted_in_window_with_positive_mult():
    for t, _ in TYPE16:
        h = _h(t)
        for ms in grid(t).values():
            cs = [c for c, m in ms]
            assert cs == sorted(cs) and len(set(cs)) == len(cs)
            assert all(0 <= c <= h - 2 for c in cs)
            assert all(m >= 1 for _, m in ms)


def test_grid_is_symmetric_in_its_arguments():
    for t, _ in TYPE16:
        g = grid(t)
        for (k, kp), ms in g.items():
            assert g[(kp, k)] == ms


def test_diagonal_carries_the_identity_once():
    for t, _ in TYPE16:
        g = grid(t)
        l = get_catalog(t).l
        for k in range(1, l + 1):
            assert [m for c, m in g[(k, k)] if c == 0] == [1]


def test_serre_vertex_is_a_diagram_involution():
    for t, _ in TYPE16:
        cat = get_catalog(t)
        perm = {k: serre_vertex(t, k) for k in cat.diagram.vertices}
        assert sorted(perm.values()) == list(cat.diagram.vertices)
        for k, ks in perm.items():
            assert perm[ks] == k
        # the involution preserves the diagram's edges
        edges = {tuple(sorted(e)) for e in cat.diagram.edges}
        assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges


def test_mirror_symmetry_inside_the_table():
    # c(k', k^S) = h - 2 - c(k, k') as multisets, read off the table itself
    for t, _ in TYPE16:
        h, g = _h(t), grid(t)
        l = get_catalog(t).l
        for k in range(1, l + 1):
            ks = serre_vertex(t, k)
            for kp in range(1, l + 1):
                mirrored = tuple(sorted((h - 2 - c, m) for c, m in g[(k, kp)]))
                assert g[(kp, ks)] == mirrored


def test_top_degree_on_the_diagonal_detects_serre_fixed_vertices():
    for t, _ in TYPE16:
        h, g = _h(t), grid(t)
        l = get_catalog(t).l
        for k in range(1, l + 1):
            has_top = any(c == h - 2 for c, _ in g[(k, k)])
            assert has_top == (serre_vertex(t, k) == k)


def test_a_type_closed_formula_edge_cases():
    assert a_multiset(1, 1, 1) == ((0, 1),)
    assert a_multiset(3, 1, 3) == ((2, 1),)
    assert a_multiset(5, 1, 5) == ((4, 1),)
    assert a_multiset(5, 2, 4) == ((2, 1), (4, 1))
    # nested runs on the diagonal
    assert a_multiset(5, 3, 3) == ((0, 1), (2, 1), (4, 1))


def test_d_type_rows_match_the_knitting_oracle():
    for l in (4, 5, 6, 7, 8):
        got = {(k, kp): d_multiset(l, k, kp)
               for k in range(1, l + 1) for kp in range(1, l + 1)}
        want = oracles.knit_grid("D", l)
        assert got == want


def test_all_grids_match_the_knitting_oracle():
    for t, _ in TYPE16:
        letter, l = t[0], int(t[1:])
        assert grid(t) == oracles.knit_grid(letter, l)


def test_all_grids_satisfy_the_cone_recursion():
    for t, _ in TYPE16:
        letter, l = t[0], int(t[1:])
        assert oracles.mesh_violations(grid(t), letter, l) == []


def test_vertex_range_is_validated():
    with pytest.raises(PolyError):
        golden_multiset("E6", 0, 3)
    with pytest.raises(PolyError):
        golden_multiset("E6", 1, 7)
    with pytest.raises(PolyError):
        serre_vertex("D5", 6)
    with pytest.raises(PolyError):
        golden_multiset("E6", 1, "a")
    with pytest.raises(PolyError):
        serre_vertex("E6", "a")
