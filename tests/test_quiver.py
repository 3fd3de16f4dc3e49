"""Quiver combinatorics: orientations, path counting, root systems."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcat.catalog import DynkinDiagram, get_catalog, principal_decomposition
from mfcat.gring import PolyError
from mfcat.quiver import (
    DynkinQuiver,
    highest_root,
    path_hom_dims,
    positive_root_count,
    positive_roots,
    principal_orientation,
    random_orientation,
)

from helpers import TYPE16


def test_positive_root_counts_match_the_classical_values():
    for t, _ in TYPE16:
        letter, l = t[0], int(t[1:])
        cat = get_catalog(t)
        if letter == "A":
            want = l * (l + 1) // 2
        elif letter == "D":
            want = l * (l - 1)
        else:
            want = {6: 36, 7: 63, 8: 120}[l]
        assert positive_root_count(t) == want
        assert want == cat.l * cat.h // 2


def test_positive_roots_are_closed_and_distinct():
    roots = positive_roots("D5")
    assert len(roots) == len(set(roots)) == 20
    # simple roots are present; every root has nonnegative coordinates
    for i in range(5):
        e = tuple(1 if j == i else 0 for j in range(5))
        assert e in roots
    assert all(min(r) >= 0 for r in roots)


def test_highest_root_matches_the_catalog_rank_data():
    for t, _ in TYPE16:
        cat = get_catalog(t)
        top = highest_root(t)
        assert len(top) == cat.l
        for k in cat.diagram.vertices:
            assert 2 * top[k - 1] == cat.object(k, 0).r


def test_principal_orientation_points_into_the_even_side():
    for t, b in (("A5", 2), ("D6", None), ("E7", None)):
        q = principal_orientation(t, b)
        _, pi1, pi2 = principal_decomposition(t, b)
        for tail, head in q.arrows:
            assert tail in pi1 and head in pi2


def test_path_grid_on_a_linear_quiver():
    # A4 with all arrows pointing right: paths are exactly the intervals
    dia = DynkinDiagram("A", 4, 1)
    q = DynkinQuiver(dia, {e: e for e in dia.edges})
    s = path_hom_dims(q)
    for i in range(4):
        for j in range(4):
            assert s.hom_dims[i][j] == (1 if i <= j else 0)
    assert s.dim == 10


@given(st.sampled_from([t for t, _ in TYPE16]), st.integers(0, 60))
def test_path_grid_transposes_under_reversal(t, seed):
    q = random_orientation(t, seed=seed)
    s = path_hom_dims(q)
    r = path_hom_dims(DynkinQuiver(q.diagram, {
        e: (h, t) for e, (t, h) in q.orientation.items()}))
    l = len(s.hom_dims)
    for i in range(l):
        for j in range(l):
            assert s.hom_dims[i][j] == r.hom_dims[j][i]
            assert s.hom_dims[i][j] in (0, 1)
    assert s.dim == r.dim
    assert s.dim >= l + len(q.arrows)


def test_orientation_must_redirect_the_tree():
    dia = DynkinDiagram("D", 4, None)
    bad = {e: e for e in dia.edges}
    first = dia.edges[0]
    bad[first] = (first[0], first[0])
    with pytest.raises(PolyError):
        DynkinQuiver(dia, bad)
    with pytest.raises(PolyError):
        DynkinQuiver(dia, {})
    with pytest.raises(PolyError):
        principal_orientation("A3", b="x")
    with pytest.raises(PolyError):
        random_orientation("A3", seed=[1])


def test_a_quiver_is_drawn_on_a_diagram():
    with pytest.raises(PolyError, match="DynkinDiagram"):
        DynkinQuiver(None, {})


def test_path_counts_take_a_quiver():
    with pytest.raises(PolyError, match="DynkinQuiver"):
        path_hom_dims(None)


def test_orientation_must_map_edges_to_pairs():
    dia = DynkinDiagram("D", 4, None)
    first = dia.edges[0]
    for orientation in (5, None, [first], {first: 5}, {first: "ab"},
                        {first: ("a", 1)}, {first: first + first[:1]}):
        with pytest.raises(PolyError):
            DynkinQuiver(dia, orientation)
    arrows = {e: list(e[::-1]) for e in dia.edges}
    assert DynkinQuiver(dia, arrows).arrows == tuple(e[::-1] for e in dia.edges)
