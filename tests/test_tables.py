"""Hom-degree grids from the mesh recursion: structure and stored references."""

from __future__ import annotations

import pytest

from mfcat.catalog import Catalog, get_catalog
from mfcat.gring import PolyError
from mfcat.tables import _mesh_row, golden_multiset, grid, serre_vertex

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
        assert perm == {k: oracles.involution(t[0], cat.l, k)
                        for k in cat.diagram.vertices}
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


def test_all_grids_match_the_stored_references():
    # the A closed form, the D run rules and the E tables, cell by cell;
    # this pins the two repaired E8 cells (3, 4) and (3, 5) as well
    stored = {"A": oracles.a_multiset, "D": oracles.d_multiset,
              "E": oracles.e_multiset}
    for t, _ in TYPE16:
        letter, l = t[0], int(t[1:])
        assert grid(t) == {(k, kp): stored[letter](l, k, kp)
                           for k in range(1, l + 1) for kp in range(1, l + 1)}
    # edge cells of the A closed form, written out, with nested runs on the
    # diagonal of A5
    for (t, k, kp), want in {("A1", 1, 1): ((0, 1),), ("A3", 1, 3): ((2, 1),),
                             ("A5", 1, 5): ((4, 1),),
                             ("A5", 2, 4): ((2, 1), (4, 1)),
                             ("A5", 3, 3): ((0, 1), (2, 1), (4, 1))}.items():
        assert golden_multiset(t, k, kp) == want


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


@pytest.mark.parametrize("plant", ["h+1", "h-1", "cycle"])
def test_mesh_recursion_refuses_a_wrong_coxeter_number_or_diagram(plant):
    # a fresh catalog, so no planted row reaches the shared memo
    cat = Catalog("E6")
    if plant == "cycle":
        # 5 and 6 end the two long arms of E6; joining them closes a 5-cycle
        cat.diagram._adj[5].append(6)
        cat.diagram._adj[6].append(5)
    else:
        cat.h += 1 if plant == "h+1" else -1
    for k in cat.diagram.vertices:
        with pytest.raises(ArithmeticError):
            _mesh_row(cat, k)
    assert cat.memo == {}
    assert serre_vertex("E6", 3) == 4
