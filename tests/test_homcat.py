"""Morphism spaces in the homotopy category: dims, duality, AR data, splitting."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce as _freduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles

from mfcat import homcat, kernel
from mfcat.catalog import Catalog, get_catalog
from mfcat.gring import GaussRat, Poly, PolyError
from mfcat.homcat import (
    _candidate_classes,
    _scalar_mul,
    ar_triangle_check,
    check_jacobi_annihilation,
    class_hom_dim,
    compose,
    decompose,
    hom_dim,
    hom_multiset,
    hom_space,
    identify_object,
    morphism_scale,
    morphism_scale_poly,
    morphism_sub,
    serre_duality_report,
    serre_image,
    serre_multiset_mirror,
    serre_rhs_dim,
    t_image,
)
from mfcat.mf import (
    GradedMF,
    Morphism,
    _block_components,
    cone,
    direct_sum,
    mat_is_zero,
    mat_mul,
    mat_zero,
    reduce,
    serre,
    serre_inverse,
    shift_T,
    tau,
    verify_mf,
    verify_morphism,
)
from mfcat.stability import mass_certified
from mfcat.tables import golden_multiset, serre_vertex

from helpers import (
    CATALOG_SCOPE,
    count_calls,
    count_systems,
    disguised_sum,
    identity_morphism,
    permute_slots,
    random_cone,
)


def test_hom_dim_is_a_class_function_of_the_phase_gap():
    cat = get_catalog("D5")
    for k, kp, n in ((1, 3, 0), (2, 4, 1), (3, 3, 2)):
        base = hom_dim(cat.object(k, 0), cat.object(kp, n))
        for shift in (1, 2, 5):
            assert hom_dim(cat.object(k, shift), cat.object(kp, n + shift)) == base


def _shifted(g, t):
    """g with every slot degree moved by the constant t."""
    return GradedMF(g.f, g.W, g.phi, g.psi, [s + t for s in g.S])


def test_hom_is_unchanged_by_a_common_off_lattice_shift():
    # 1/7 and 5/7 are off the (1/h)Z lattice of E6 (h = 12), so every slot
    # degree of the shifted objects has a non-integral h-scaled value
    cat = get_catalog("E6")
    nonzero = 0
    for k in (1, 2, 4):
        for kp in (1, 3):
            for n in range(-1, cat.h // 2 + 1):
                X, Y = cat.object(k, 0), cat.object(kp, n)
                d = hom_dim(X, Y)
                nonzero += d > 0
                for t in (Fraction(1, 7), Fraction(5, 7)):
                    Xt, Yt = _shifted(X, t), _shifted(Y, t)
                    assert hom_dim(Xt, Yt) == d
                    assert hom_space(Xt, Yt).dim == d
                    assert hom_dim(Xt, Y) == 0
    assert nonzero >= 6


def _diag(entries):
    n = len(entries)
    return tuple(tuple(Poly.const(entries[i]) if i == j else Poly()
                       for j in range(n)) for i in range(n))


def _conjugated(X):
    """phi' = P phi Q^-1 and psi' = Q psi P^-1 for constant diagonal P, Q.

    An isomorphic object whose blocks carry Fraction and imaginary parts.
    """
    units = [GaussRat(Fraction(1, 2)), GaussRat(3), GaussRat(0, 1),
             GaussRat(2, 1)]
    p = [units[i % 4] for i in range(X.r)]
    q = [units[(i + 1) % 4] for i in range(X.r)]
    P, Pinv = _diag(p), _diag([c.inv() for c in p])
    Q, Qinv = _diag(q), _diag([c.inv() for c in q])
    return GradedMF(X.f, X.W, mat_mul(P, mat_mul(X.phi, Qinv)),
                    mat_mul(Q, mat_mul(X.psi, Pinv)), X.S)


def test_hom_over_non_integral_coefficients_matches_the_catalog_object():
    cat = get_catalog("D5")
    X = cat.object(3, 0)
    Xb = _conjugated(X)
    assert any(c.re.denominator > 1 for row in Xb.phi for e in row
               for c in e.terms.values())
    assert any(c.im for row in Xb.psi for e in row for c in e.terms.values())
    for kp in cat.diagram.vertices:
        for n in range(-1, cat.h // 2 + 1):
            Y = cat.object(kp, n)
            for src, dst, src_b, dst_b in ((X, Y, Xb, Y), (Y, X, Y, Xb)):
                d = hom_dim(src, dst)
                assert hom_dim(src_b, dst_b) == d
                H = hom_space(src_b, dst_b)
                assert H.dim == d == len(H.basis)
                for m in H.basis:
                    assert verify_morphism(m) == []
    E = hom_space(Xb, Xb)
    assert E.dim == hom_space(X, X).dim
    assert E.coordinates(identity_morphism(Xb))[0]


def test_one_cocycle_block_gives_the_full_kernel():
    # Hom systems carry only the phi-block of the cocycle equations;
    # verify_morphism checks both blocks by exact products, so every witness
    # passing it shows that the psi-block held without being imposed
    cat = get_catalog("D5")
    X = cat.object(3, 0)
    ar = hom_space(serre_inverse(X), X)
    assert ar.dim == 1
    objects = [
        serre(cat.object(2, 0)),  # swapped, negated blocks
        shift_T(cat.object(4, 1)),
        cone(ar.basis[0]),  # the middle of the AR triangle, unreduced
        direct_sum(cat.object(1, 0), cat.object(3, 1)),
        _conjugated(X),  # Fraction and imaginary coefficients
    ]
    others = [cat.object(k, n) for k in cat.diagram.vertices
              for n in range(-1, 3)]
    total = 0
    for A in objects:
        assert verify_mf(A) == []
        for B in objects + others:
            for src, dst in ((A, B), (B, A)):
                H = hom_space(src, dst)
                assert H.dim == hom_dim(src, dst) == len(H.basis)
                for m in H.basis:
                    assert verify_morphism(m) == []
                total += H.dim
    assert total >= 100


def test_hom_between_factorizations_of_different_f_is_rejected():
    X = get_catalog("A2").object(1, 0)
    # phi * (2 psi) = 2f: a factorization of another potential, same weights
    Y = GradedMF(X.f * 2, X.W, X.phi, mat_mul(X.psi, _diag([2] * X.r)), X.S)
    assert verify_mf(Y) == []
    for src, dst in ((X, Y), (Y, X)):
        with pytest.raises(PolyError):
            hom_dim(src, dst)
        with pytest.raises(PolyError):
            hom_space(src, dst)


def test_hom_dims_come_from_exact_ranks_alone(monkeypatch):
    def refuse(rows):
        raise AssertionError("hom_dim reached the mod-p rank")

    monkeypatch.setattr(kernel, "rank_modp", refuse)
    # fresh catalogs: a memoized class dimension would skip hom_dim
    cat = Catalog("E6")
    for k in cat.diagram.vertices:
        for kp in cat.diagram.vertices:
            assert hom_multiset(cat, k, kp) == golden_multiset("E6", k, kp)
    assert serre_duality_report(Catalog("D4")) == []


def test_objects_of_another_potential_are_rejected_with_polyerror():
    cat = get_catalog("A3")
    X = cat.object(1, 0)
    for g in (get_catalog("D4").object(1, 0), "x", None):
        with pytest.raises(PolyError):
            identify_object(cat, g)
        with pytest.raises(PolyError):
            decompose(cat, g)
        for src, dst in ((X, g), (g, X)):
            with pytest.raises(PolyError):
                hom_dim(src, dst)
            with pytest.raises(PolyError):
                hom_space(src, dst)
    # the rank memo must be a (dict, key, key) triple with hashable keys
    for ranks in (5, 0, "abc", [{}, 1, 2], ({}, 1), ([], 1, 2), ({}, [], 1)):
        with pytest.raises(PolyError):
            hom_dim(X, X, ranks)
    # a rank Z message is an int in [0, nvars] (nvars is 9 here) and a rank
    # B message a pivot set; a pivot set longer than nvars leaves no images
    for memo in ({"Z": "x"}, {"B": 2.5}, {"Z": -7}, {"Z": 10}, {"B": 10},
                 {"Z": True}, {"B": (1, 2)}, {"Z": None, "B": [3]},
                 {"Z": 5, "B": 5}, {"Z": homcat._Pivots(64, [0])}):
        with pytest.raises(PolyError):
            hom_dim(X, X, (memo, "Z", "B"))
    with pytest.raises(ArithmeticError, match="pivots of B"):
        hom_dim(X, X, ({"B": homcat._Pivots(64, range(10))}, "Z", "B"))
    with pytest.raises(PolyError, match="different potentials"):
        decompose(cat, get_catalog("D4").object(1, 0))


def test_serre_duality_report_rejects_a_malformed_window():
    with pytest.raises(PolyError):
        serre_duality_report(get_catalog("A3"), "x", 1)
    # a float bound is its binary value, not the decimal it prints as
    with pytest.raises(PolyError):
        serre_duality_report(get_catalog("A3"), 0.5, 2)


def test_wrong_parity_classes_are_empty():
    cat = get_catalog("E6")
    for k, kp in ((1, 1), (2, 3), (5, 6)):
        gap = cat.sigma(kp) - cat.sigma(k)
        for c in range(0, cat.h - 1):
            if (c - gap) % 2:
                assert class_hom_dim(cat, k, kp, c) == 0


def test_hom_multisets_match_the_embedded_table_on_spots():
    for t, b, k, kp in (("A5", 2, 1, 4), ("A5", 4, 1, 4), ("D4", None, 2, 3),
                        ("D5", None, 4, 5), ("E6", None, 5, 6),
                        ("E6", None, 2, 2)):
        cat = get_catalog(t, b)
        assert hom_multiset(cat, k, kp) == golden_multiset(t, k, kp)


def test_hom_basis_morphisms_are_strict_witnesses():
    cat = get_catalog("D4")
    X, Y = cat.object(1, 0), cat.object(3, 1)
    H = hom_space(X, Y)
    assert H.dim == len(H.basis)
    for m in H.basis:
        assert verify_morphism(m) == []
    # coordinates invert the basis listing
    for i, m in enumerate(H.basis):
        coords = H.coordinates(m)
        assert coords[i] == GaussRat(1)
        assert all(not c for j, c in enumerate(coords) if j != i)


def _d4_leg_identities():
    """id on the D4 legs M^1_0 and M^3_0: equal slots, different blocks."""
    cat = get_catalog("D4")
    a, b = cat.object(1, 0), cat.object(3, 0)
    assert a.S == b.S and a != b
    return identity_morphism(a), identity_morphism(b)


def test_compose_rejects_morphisms_through_different_objects():
    ida, idb = _d4_leg_identities()
    with pytest.raises(PolyError, match="incompatible"):
        compose(ida, idb)
    # an equal copy of the middle object composes
    copy = GradedMF(ida.src.f, ida.src.W, ida.src.phi, ida.src.psi,
                    ida.src.S)
    assert copy is not ida.src
    same = compose(ida, identity_morphism(copy))
    assert verify_morphism(same) == []
    assert (same.phi0, same.phi1) == (ida.phi0, ida.phi1)


def test_morphism_eq_rejects_morphisms_between_different_objects():
    ida, idb = _d4_leg_identities()
    with pytest.raises(PolyError, match="different objects"):
        homcat.morphism_eq(ida, idb)
    assert homcat.morphism_eq(ida, identity_morphism(ida.src))


def test_morphism_add_rejects_morphisms_between_different_objects():
    ida, idb = _d4_leg_identities()
    with pytest.raises(PolyError, match="different objects"):
        homcat.morphism_add(ida, idb)
    with pytest.raises(PolyError, match="different objects"):
        morphism_sub(idb, ida)
    assert homcat.morphism_eq(homcat.morphism_add(ida, ida),
                              morphism_scale(2, ida))


def test_coordinates_reject_a_non_morphism():
    ida, _ = _d4_leg_identities()
    E = hom_space(ida.src, ida.src)
    for bad in ("x", ida.src, None, ida.phi0):
        with pytest.raises(PolyError):
            E.coordinates(bad)
    assert E.coordinates(ida)[0]


def test_coordinates_reject_a_morphism_between_other_objects():
    ida, idb = _d4_leg_identities()
    E = hom_space(ida.src, ida.src)
    with pytest.raises(PolyError, match="another source"):
        E.coordinates(idb)
    X, Y = ida.src, get_catalog("D4").object(2, 1)
    H = hom_space(X, Y)
    assert H.dim
    with pytest.raises(PolyError, match="another target"):
        H.coordinates(identity_morphism(X))


def test_verify_morphism_reports_a_perturbed_witness():
    cat = get_catalog("D4")
    m = hom_space(cat.object(1, 0), cat.object(3, 1)).basis[0]
    i, j = next((i, j) for i, row in enumerate(m.phi0)
                for j, p in enumerate(row) if p)
    # doubling an entry keeps its degree, so only the cocycle can fail
    phi0 = [list(row) for row in m.phi0]
    phi0[i][j] = phi0[i][j] * 2
    bad = Morphism(m.src, m.dst, phi0, m.phi1)
    assert verify_morphism(bad) == [
        "cocycle fails: phi' phi1 != phi0 phi",
        "cocycle fails: psi' phi0 != phi1 psi",
    ]


def _dense_scalar_mul(A, B):
    m = len(B[0]) if B else 0
    return [[sum((A[i][t] * B[t][j] for t in range(len(B))), GaussRat(0))
             for j in range(m)] for i in range(len(A))]


def _dense_mat_mul(A, B):
    m = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(m):
            s = Poly()
            for t, a in enumerate(row):
                s = s + a * B[t][j]
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


# mostly zero, like the witness matrices of the splitting path
sparse_gauss = st.one_of(
    st.just(GaussRat(0)), st.just(GaussRat(0)),
    st.builds(GaussRat, st.fractions(-3, 3, max_denominator=3),
              st.integers(-2, 2)))
sparse_poly = st.one_of(
    st.just(Poly()), st.just(Poly()),
    st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                 st.integers(0, 1)), sparse_gauss),
             min_size=1, max_size=3).map(
        lambda terms: sum((Poly.monomial(e, c) for e, c in terms), Poly())))


@st.composite
def _sparse_pair(draw, entries, zero):
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    A = [[draw(entries) for _ in range(k)] for _ in range(n)]
    B = [[draw(entries) for _ in range(m)] for _ in range(k)]
    if n and draw(st.booleans()):
        A[draw(st.integers(0, n - 1))] = [zero] * k
    if k and m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in B:
            row[j] = zero
    return A, B


@given(_sparse_pair(sparse_gauss, GaussRat(0)), _sparse_pair(sparse_poly, Poly()))
def test_sparse_products_match_the_dense_reference(scalars, polys):
    A, B = scalars
    assert _scalar_mul(A, B) == _dense_scalar_mul(A, B)
    A, B = polys
    got, want = mat_mul(A, B), _dense_mat_mul(A, B)
    assert got == want
    # the same terms in the same order, not just equal polynomials
    assert ([[list(p.terms.items()) for p in row] for row in got]
            == [[list(p.terms.items()) for p in row] for row in want])


def test_scalar_mul_rejects_a_shape_mismatch():
    one = GaussRat(1)
    with pytest.raises(PolyError):
        _scalar_mul([[one, one]], [[one]])
    with pytest.raises(PolyError):
        _scalar_mul([[one]], [])


def test_multiplication_by_the_potential_is_null_homotopic():
    for t, b, k in (("A4", 2, 2), ("D5", None, 3), ("E6", None, 5)):
        cat = get_catalog(t, b)
        X = cat.object(k, 0)
        m = morphism_scale_poly(cat.f, identity_morphism(X))
        # f * id raises the degree by 2, i.e. lands h twists up
        target = tau(X, cat.h)
        lifted = Morphism(X, target, m.phi0, m.phi1)
        assert verify_morphism(lifted) == []
        coords = hom_space(X, target).coordinates(lifted)
        assert all(not c for c in coords)


def test_jacobi_annihilation_with_explicit_homotopies():
    for t, b, k, kp in (("A3", 1, 1, 2), ("D4", None, 1, 2), ("E6", None, 5, 3)):
        cat = get_catalog(t, b)
        H = hom_space(cat.object(k, 0), cat.object(kp, 1))
        for m in H.basis[:2]:
            assert check_jacobi_annihilation(m)


def test_composition_is_bilinear_and_associative():
    cat = get_catalog("A5", 2)
    X, Y = cat.object(1, 0), cat.object(2, 0)
    Z, W = cat.object(3, 1), cat.object(4, 1)
    f = hom_space(X, Y).basis[0]
    g = hom_space(Y, Z).basis[0]
    idX = identity_morphism(X)
    assert verify_morphism(compose(g, f)) == []
    assert compose(f, idX).phi0 == f.phi0
    assert compose(f, idX).phi1 == f.phi1
    h = hom_space(Z, W).basis[0]
    left = compose(h, compose(g, f))
    right = compose(compose(h, g), f)
    assert left.phi0 == right.phi0 and left.phi1 == right.phi1
    zero = morphism_sub(f, f)
    gz = compose(g, zero)
    assert mat_is_zero(gz.phi0) and mat_is_zero(gz.phi1)


def test_serre_duality_and_mirror_on_small_types():
    for t, b in (("A3", 2), ("D4", None)):
        cat = get_catalog(t, b)
        assert serre_duality_report(cat) == []
        for k in cat.diagram.vertices:
            for kp in cat.diagram.vertices:
                assert serre_multiset_mirror(cat, k, kp)


def test_serre_and_shift_images_are_certified_catalog_classes():
    for t, b in (("A6", 3), ("D5", None), ("D6", None), ("E6", None)):
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            ks, ns = serre_image(cat, k)
            kt, nt = t_image(cat, k)
            assert ks == serre_vertex(t, k)
            assert kt == ks            # tau does not move the vertex
            assert ns == nt - 1        # Serre = T after one inverse twist
            # the phase of S X minus the phase of X is always (h-2)/h
            lhs = cat.phase(ks, ns) - cat.phase(k, 0)
            assert lhs * cat.h == cat.h - 2


def test_serre_images_match_the_catalog_search_on_every_catalog():
    for t, b in CATALOG_SCOPE:
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            assert serre_image(cat, k) == oracles.serre_image_reference(
                cat, k), (t, b, k)


def test_serre_image_searches_the_catalog_only_for_the_t_image(monkeypatch):
    calls = count_calls(monkeypatch, "identify_object")
    cat = Catalog("E6")
    for k in cat.diagram.vertices:
        serre_image(cat, k)
    # one search per vertex, on T(M^k_0), made by t_image
    assert [args[1] for args in calls["identify_object"]] == [
        shift_T(cat.object(k, 0)) for k in cat.diagram.vertices]
    cat = Catalog("E6")
    for k in cat.diagram.vertices:
        t_image(cat, k)
    del calls["identify_object"][:]
    for k in cat.diagram.vertices:
        serre_image(cat, k)
    assert calls["identify_object"] == []


def test_identify_object_sees_through_permutation_and_shift():
    cat = get_catalog("D5")
    g = cat.object(4, 2)
    perm0 = list(reversed(range(g.r)))
    perm1 = list(range(1, g.r)) + [0]
    assert identify_object(cat, permute_slots(g, perm0, perm1)) == (4, 2)
    assert identify_object(cat, tau(cat.object(1, 0), 5)) == (1, 5)
    # equal to no candidate by value: found by a retraction
    h = disguised_sum([cat.object(2, 1)], 5)
    assert h != cat.object(2, 1)
    assert identify_object(cat, h) == (2, 1)


def test_identify_object_rejects_sums_off_lattice_shifts_and_zero():
    cat = get_catalog("D5")
    X = cat.object(3, 1)
    assert identify_object(cat, X) == (3, 1)
    assert identify_object(cat, direct_sum(X, cat.object(1, 0))) is None
    # one block piece: a summand is found and leaves a complement
    assert identify_object(cat, disguised_sum([X, cat.object(1, 0)], 5)) is None
    # a sum of two copies has X's slot values, doubled
    assert identify_object(cat, direct_sum(X, X)) is None
    assert identify_object(cat, _shifted(X, Fraction(1, 7))) is None
    zero = cone(identity_morphism(X))
    assert reduce(zero).r == 0
    assert identify_object(cat, zero) is None


def _range_scan(cat, work):
    """Reference candidate scan: every twist between the extreme slots."""
    s0 = Counter(work.s_row)
    s1 = Counter(work.sbar_row)
    smin, smax, h = min(work.S), max(work.S), cat.h
    cands = []
    for k in cat.diagram.vertices:
        slots0, slots1 = oracles.slot_values(cat, k)
        sig = cat.sigma(k)
        lo = (smin - max(slots0)) * h
        hi = (smax - min(slots0)) * h
        for n in range(math.ceil((lo - sig) / 2), math.floor((hi - sig) / 2) + 1):
            phase = Fraction(2 * n + sig, h)
            if all(s0[q + phase] >= c
                   for q, c in Counter(slots0).items()) and all(
                    s1[q + phase] >= c for q, c in Counter(slots1).items()):
                cands.append((phase, k, n))
    cands.sort(key=lambda t: (-t[0], t[1]))
    return cands


def test_candidate_scan_matches_the_twist_range_reference():
    rng = random.Random(8)
    found = 0
    for t, b in (("A4", 2), ("A5", 3), ("D4", None), ("D6", None),
                 ("E6", None), ("E7", None), ("E8", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for _ in range(6):
            picks = [rng.choice(window) for _ in range(rng.randint(1, 4))]
            g = _freduce(direct_sum, [cat.object(k, n) for _, k, n in picks])
            for obj in (g, serre(g), shift_T(g), _shifted(g, Fraction(1, 5))):
                got = _candidate_classes(cat, obj)
                assert got == _range_scan(cat, obj)
                found += len(got)
            # every summand of a sum is a candidate
            assert {(k, n) for _, k, n in picks} <= {
                (k, n) for _, k, n in _candidate_classes(cat, g)}
            # 7 divides none of the Coxeter numbers here
            assert _candidate_classes(cat, _shifted(g, Fraction(1, 7))) == []
    assert found


def test_indecomposability_detection():
    cat = get_catalog("D5")
    assert oracles.is_indecomposable(cat.object(3, 0))
    s = direct_sum(cat.object(1, 0), cat.object(2, 1))
    assert not oracles.is_indecomposable(s)


def test_decompose_round_trips_random_sums():
    rng = random.Random(20260825)
    for t, b in (("A5", 3), ("D5", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for _ in range(5):
            picks = sorted(rng.sample(window, 3))
            obj = None
            for _, k, n in picks:
                part = cat.object(k, n)
                obj = part if obj is None else direct_sum(obj, part)
            got = decompose(cat, obj)
            assert sorted(got) == sorted((k, n) for _, k, n in picks)
            assert all(oracles.is_indecomposable(cat.object(k, n))
                       for k, n in got)


def _slots_conserved(cat, g, summands):
    """Whether the slots of reduce(g) are, as a multiset, the union of the
    slots of the catalog summands (k, n)."""
    return Counter(reduce(g).S) == Counter(
        s for k, n in summands for s in cat.object(k, n).S)


@pytest.mark.parametrize("t, b", [("A4", 2), ("D5", None), ("E6", None)])
def test_cones_of_random_morphisms_decompose_and_conserve_slots(t, b):
    cat = get_catalog(t, b)
    checked = 0
    for seed in range(20):
        g = random_cone(cat, seed)
        summands = decompose(cat, g)
        assert _slots_conserved(cat, g, summands)
        if summands:
            # control: one summand reported a twist off is caught
            (k, n), rest = summands[0], summands[1:]
            assert not _slots_conserved(cat, g, [(k, n + 1)] + rest)
            checked += 1
    assert checked


def test_decompose_rejects_an_off_lattice_object():
    cat = get_catalog("D5")
    g = direct_sum(cat.object(1, 0), cat.object(3, 1))
    with pytest.raises(ArithmeticError):
        decompose(cat, _shifted(g, Fraction(1, 5)))


def test_a_catalog_object_is_settled_by_size_without_a_split(monkeypatch):
    calls = count_calls(monkeypatch, "lift_idempotent", "_strict_split")
    built = count_systems(monkeypatch)
    for t, k_built in (("D4", (2, 8)), ("E6", (2, 10))):
        cat = Catalog(t)
        for k in cat.diagram.vertices:
            for n in (0, 3):
                g = cat.object(k, n)
                del built[:]
                # equal by value: settled before any Hom system
                assert decompose(cat, g) == [(k, n)]
                assert built == []
                # an unequal copy: smaller candidates are still tried,
                # through Hom systems, and its own class by a retraction
                perm = list(reversed(range(g.r)))
                copy = permute_slots(g, perm, perm)
                if copy == g:
                    continue
                assert decompose(cat, copy) == [(k, n)]
                assert built
                assert not any(sys.src == sys.dst for sys in built)
                if k == k_built[0]:
                    assert len(built) == k_built[1]
    assert calls == {"lift_idempotent": [], "_strict_split": []}


def test_a_sum_of_s_objects_splits_s_minus_one_times(monkeypatch):
    calls = count_calls(monkeypatch, "cone", "lift_idempotent",
                        "_strict_split")
    rng = random.Random(11)
    for t, b in (("A4", 2), ("D5", None), ("E6", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (1, 2, 3, 4):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            # disguised, so the sum is one block piece and every summand
            # but the last is split off as a cone
            g = disguised_sum([cat.object(k, n) for k, n in picks], s)
            assert _block_components(g) == [g]
            for log in calls.values():
                del log[:]
            assert sorted(decompose(cat, g)) == sorted(picks)
            assert len(calls["cone"]) == s - 1
            assert calls["lift_idempotent"] == calls["_strict_split"] == []


def _split_complement(cat, work, k, n):
    """The complement of M(k, n) in work the long way: lift e, split 1 - e."""
    M = cat.object(k, n)
    incl = homcat._retraction(cat, work, k, n)
    EM = hom_space(M, M)
    for proj in hom_space(work, M).basis:
        gamma = EM.coordinates(compose(proj, incl))[0]
        if gamma:
            break
    id_coord = EM.coordinates(identity_morphism(M))[0]
    e = compose(incl, morphism_scale(id_coord / gamma, proj))
    ehat = homcat.lift_idempotent(work, e)
    rest, _, _ = homcat._strict_split(
        work, morphism_sub(identity_morphism(work), ehat))
    return rest


def test_cone_complements_match_the_split_idempotent_reference():
    rng = random.Random(12)
    checked = 0
    for t, b in (("A4", 2), ("D5", None), ("E6", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (2, 3, 4):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            work = reduce(_freduce(direct_sum,
                                   [cat.object(k, n) for k, n in picks]))
            while work.r:
                k, n, rest = homcat._find_summand(cat, work)
                if rest.r:
                    ref = _split_complement(cat, work, k, n)
                    assert sorted(rest.s_row) == sorted(ref.s_row)
                    assert sorted(rest.sbar_row) == sorted(ref.sbar_row)
                    assert decompose(cat, rest) == decompose(cat, ref)
                    checked += 1
                work = rest
    assert checked == 3 * (1 + 2 + 3)


_RETRACTION_TYPES = (("A4", 2), ("D5", None), ("E6", None), ("E7", None),
                     ("E8", None))


def _assert_retraction_matches_reference(cat, g):
    g0 = reduce(g)
    for _, k, n in _candidate_classes(cat, g0):
        got = homcat._retraction(cat, g0, k, n)
        want = oracles.retraction_reference(cat, g0, k, n)
        if want is None:
            assert got is None
        else:
            assert (got.phi0, got.phi1) == (want.phi0, want.phi1)


@pytest.mark.parametrize("t,b", _RETRACTION_TYPES)
def test_retraction_matches_the_end_coordinate_reference_on_images(t, b):
    cat = get_catalog(t, b)
    for k in cat.diagram.vertices:
        for image in (shift_T(cat.object(k, 0)), serre(cat.object(k, 0))):
            _assert_retraction_matches_reference(cat, image)


def test_retraction_matches_the_end_coordinate_reference_on_sums():
    rng = random.Random(13)
    for t, b in (("A4", 2), ("D5", None), ("E6", None), ("D6", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (2, 3, 2, 3):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            _assert_retraction_matches_reference(
                cat, _freduce(direct_sum, [cat.object(k, n) for k, n in picks]))


@pytest.mark.parametrize("t,b", _RETRACTION_TYPES)
def test_vertex_endomorphisms_are_scalars_on_reduced_objects(t, b):
    # the premises of the constant-term pairing in _retraction
    cat = get_catalog(t, b)
    for k in cat.diagram.vertices:
        M = cat.object(k, 0)
        assert not any(p.constant_term() for mat in (M.phi, M.psi)
                       for row in mat for p in row)
        E = hom_space(M, M)
        assert E.dim == 1
        const = [[p.constant_term() for p in row] for row in E.basis[0].phi0]
        c = const[0][0]
        assert c
        assert const == [[c if i == j else 0 for j in range(M.r)]
                         for i in range(M.r)]


def test_identify_object_of_an_unequal_copy_goes_through_a_retraction(
        monkeypatch):
    calls = count_calls(monkeypatch, "_retraction")
    cat = get_catalog("E6")
    g = cat.object(2, 1)
    perm = list(reversed(range(g.r)))
    h = permute_slots(g, perm, perm)
    assert h != g
    assert identify_object(cat, h) == (2, 1)
    assert calls["_retraction"][-1][2:] == (2, 1)


def test_a_complement_of_the_wrong_size_is_an_engine_error(monkeypatch):
    real = homcat.cone

    def whole(m):
        # the complement keeps every slot of the summand as well
        return direct_sum(real(m), m.src)

    monkeypatch.setattr(homcat, "cone", whole)
    cat = get_catalog("D5")
    g = disguised_sum([cat.object(1, 0), cat.object(3, 1)], 1)
    assert _block_components(g) == [g]
    with pytest.raises(ArithmeticError, match="complement"):
        decompose(cat, g)


_SPLIT_TYPES = (("A4", 2), ("D5", None), ("E6", None))


def test_block_components_invert_direct_sums():
    cat = get_catalog("E6")
    parts = [cat.object(k, n) for k, n in ((1, 0), (4, 2), (1, 0), (6, -1))]
    assert _block_components(_freduce(direct_sum, parts)) == parts
    # a connected object comes back as itself
    assert _block_components(parts[1])[0] is parts[1]


def test_block_sums_decompose_without_hom_systems_or_cones(monkeypatch):
    calls = count_calls(monkeypatch, "cone")
    built = count_systems(monkeypatch)
    rng = random.Random(24)
    for t, b in _SPLIT_TYPES:
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (1, 2, 3, 4):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            g = _freduce(direct_sum, [cat.object(k, n) for k, n in picks])
            assert sorted(decompose(cat, g)) == sorted(picks)
    assert built == [] and calls["cone"] == []


def test_interleaved_block_sums_decompose_to_the_same_classes():
    rng = random.Random(25)
    for t, b in _SPLIT_TYPES:
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (2, 3, 4):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            g = _freduce(direct_sum, [cat.object(k, n) for k, n in picks])
            perm0, perm1 = list(range(g.r)), list(range(g.r))
            rng.shuffle(perm0)
            rng.shuffle(perm1)
            mixed = permute_slots(g, perm0, perm1)
            assert mixed != g
            assert len(_block_components(mixed)) == s
            assert sorted(decompose(cat, mixed)) == sorted(picks)


def test_a_block_piece_with_unequal_halves_is_an_engine_error():
    # phi rows 0 and 1 meet column 0 only: a 2 x 1 piece, which no
    # factorization has
    cat = get_catalog("D5")
    x, y, z, zero = Poly.var("x"), Poly.var("y"), Poly.var("z"), Poly()
    phi = [[x, zero, zero], [y, zero, zero], [zero, z, x]]
    psi = [[zero] * 3 for _ in range(3)]
    g = GradedMF(cat.f, cat.W, phi, psi, [0] * 6)
    with pytest.raises(ArithmeticError, match="not a factorization"):
        decompose(cat, g)


def test_ar_triangles_on_small_types():
    for t, b in (("A2", 1), ("A4", 2), ("D4", None)):
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            assert ar_triangle_check(cat, k) == []


def test_a_zero_ar_witness_is_reported():
    cat = Catalog("E6")
    real = homcat.hom_space

    def planted(src, dst):
        H = real(src, dst)
        if src == serre_inverse(dst):
            zero = mat_zero(dst.r, src.r)
            H.basis = [Morphism(src, dst, zero, zero)]
        return H

    for k in cat.diagram.vertices:
        assert ar_triangle_check(cat, k) == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homcat, "hom_space", planted)
        for k in cat.diagram.vertices:
            # the cone of zero is T(S^-1 X) + X, not the neighbor sum
            assert ar_triangle_check(cat, k)


def test_an_undecomposable_ar_cone_is_a_violation_not_an_error(monkeypatch):
    def broken(cat, g):
        raise ArithmeticError("object has a non-catalog summand")

    monkeypatch.setattr(homcat, "decompose", broken)
    cat = Catalog("A4", 2)
    assert ar_triangle_check(cat, 2) == [
        "cone does not decompose at k=2: object has a non-catalog summand"]


@pytest.mark.parametrize("call", [
    lambda cat: t_image(cat, 1),
    lambda cat: serre_image(cat, 1),
    lambda cat: class_hom_dim(cat, 1, 2, 0),
    lambda cat: hom_multiset(cat, 1, 2),
    lambda cat: serre_rhs_dim(cat, 1, 2, 0),
    lambda cat: serre_duality_report(cat),
    lambda cat: serre_multiset_mirror(cat, 1, 2),
    lambda cat: ar_triangle_check(cat, 1),
    lambda cat: mass_certified(cat, (Fraction(0),)),
    lambda cat: identify_object(cat, get_catalog("E6").object(1, 0)),
    lambda cat: decompose(cat, get_catalog("E6").object(1, 0)),
], ids=["t_image", "serre_image", "class_hom_dim", "hom_multiset",
        "serre_rhs_dim", "serre_duality_report", "serre_multiset_mirror",
        "ar_triangle_check", "mass_certified", "identify_object",
        "decompose"])
def test_catalog_entry_points_reject_a_non_catalog_with_polyerror(call):
    with pytest.raises(PolyError, match="expected a Catalog"):
        call("E6")


def test_hom_multiset_rejects_bad_vertices():
    cat = get_catalog("A3")
    with pytest.raises(PolyError):
        hom_multiset(cat, 0, 1)
    for c in ("a", 1.5, None):
        with pytest.raises(PolyError):
            class_hom_dim(cat, 1, 2, c)
        with pytest.raises(PolyError):
            serre_rhs_dim(cat, 1, 2, c)


def _cache_free(g):
    """An equal object with an empty block memo and no cached degrees."""
    return GradedMF(g.f, g.W, g.phi, g.psi, g.S, label=g.label)


def _basis_blocks(H):
    return [(m.phi0, m.phi1) for m in H.basis]


def test_block_caches_answer_as_cache_free_copies():
    cat = Catalog("D5")
    X = cat.object(3, 1)
    # conjugated partners scale the tables by L != 1; a sum with a 1/5-shifted
    # summand has D = 5, so X's own degrees (D = 1) are rescaled
    off = _shifted(cat.object(1, 0), Fraction(1, 5))
    checked = 0
    for kp in cat.diagram.vertices:
        for n in (0, 1, 2):
            Y = cat.object(kp, n)
            for partner in (Y, _conjugated(Y), direct_sum(Y, off)):
                for src, dst in ((X, partner), (partner, X)):
                    want = hom_space(_cache_free(src), _cache_free(dst))
                    got = hom_space(src, dst)
                    assert hom_dim(src, dst) == got.dim == want.dim
                    assert _basis_blocks(got) == _basis_blocks(want)
                    checked += got.dim > 0
    assert checked >= 10
    # X's tables were kept per scale, in the memo every twist of X shares
    scales = {key[1] for key in X._block_memo if key[0] == "tables"}
    assert 1 in scales and len(scales) > 1
    assert cat.object(3, -4)._block_memo is X._block_memo


def test_serre_images_commute_with_tau():
    for t, b in (("A4", 2), ("D4", None), ("E6", None)):
        cat = Catalog(t, b)
        for k in cat.diagram.vertices:
            image = homcat._vertex_serre(cat, k)
            assert homcat._vertex_serre(cat, k) is image
            for n in range(-2, cat.h):
                twisted = tau(image, n)
                assert serre(cat.object(k, n)) == twisted
                assert twisted._block_memo is image._block_memo


def _serre_side_calls(cat):
    """Every class of both sides of the (0,2] Serre report, in its order."""
    window = cat.objects_in_window(0, 2)
    calls = []
    for _, k_x, n_x in window:
        for _, k_y, n_y in window:
            c = cat.coord(k_y, n_y) - cat.coord(k_x, n_x)
            calls.append((class_hom_dim, k_x, k_y, c))
            calls.append((serre_rhs_dim, k_y, k_x, cat.h - 2 - c))
    return list(dict.fromkeys(calls))


def _serre_side_reference(cat, fn, k, kprime, c):
    """The class dimension from memo-free systems on fresh images."""
    if fn is class_hom_dim:
        n = cat.twist(kprime, c, cat.sigma(k))
        dst = None if n is None else cat.object(kprime, n)
    else:
        n = cat.twist(kprime, c, 2 - cat.h + cat.sigma(k))
        dst = None if n is None else tau(serre(cat.object(kprime, 0)), n)
    return 0 if dst is None else oracles.hom_dim_reference(cat.object(k, 0), dst)


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("t,b", [("A4", 2), ("D5", None), ("E6", None)])
def test_shared_differential_ranks_match_the_memo_free_reference(t, b, order):
    # each class is computed on a fresh catalog, in the report's order or
    # the reverse one, so ranks are stored by either side and read by the
    # other; every class must equal the reference that ranks both row
    # families of its own system in full
    cat = Catalog(t, b)
    calls = _serre_side_calls(cat)
    if order == "reversed":
        calls.reverse()
    got = {call: call[0](cat, *call[1:]) for call in calls}
    ranks = [key for key in cat.memo if key[0] == "rank_d"]
    assert ranks and any(got.values())
    fresh = Catalog(t, b)
    for call, dim in got.items():
        assert dim == _serre_side_reference(fresh, *call), call


def _cocycle_pairs():
    """(src, dst) pairs: catalog twists on E6, twists of a memoized Serre
    image, and every vertex pair of A4 (b=2) at a few twists."""
    cat = Catalog("E6")
    X = cat.object(2, 0)
    image = homcat._vertex_serre(cat, 4)
    pairs = [(cat.object(k, 0), cat.object(kp, n))
             for k in (1, 4) for kp in cat.diagram.vertices for n in (-1, 0, 2, 5)]
    pairs += [(X, tau(image, n)) for n in range(-3, 4)]
    a4 = get_catalog("A4", 2)
    pairs += [(a4.object(k, 0), a4.object(kp, n)) for k in a4.diagram.vertices
              for kp in a4.diagram.vertices for n in (-2, 0, 1, 3)]
    return pairs


def _assert_keyed_layout(src, dst):
    """The system of (src, dst) is the keyed assembly under the bijection
    that keeps the order of the variable columns; returns the system."""
    sys = homcat._System(src, dst)
    assert [sys.key(c) for c in sys.columns] == (
        oracles.variable_keys_reference(src, dst))
    assert [sys.code(*sys.key(c)) for c in sys.columns] == sys.columns
    assert oracles.relabel(sys.cocycle_rows, sys.columns) == (
        oracles.cocycle_rows_reference(src, dst))
    assert len(sys.images) == sys.nvars
    return sys


def test_cocycle_rows_equal_the_keyed_assembly():
    # the images are the columns of the keyed equations: relabeled onto
    # variable indices, their transpose must give the keyed rows in value
    # and in order, so nullspace bases and witnesses do not move
    filled = 0
    for src, dst in _cocycle_pairs():
        sys = _assert_keyed_layout(src, dst)
        filled += bool(sys.cocycle_rows)
        # the cocycle side builds no boundary row
        assert "boundary_rows" not in vars(sys)
    assert filled >= 100


@pytest.mark.parametrize("t,b,n", [("A9", 5, 64), ("A9", 5, 70), ("A7", 4, 66)])
def test_far_twists_with_exponents_past_63_keep_the_keyed_layout(t, b, n):
    # exponents above 63 take the system's B from 64 to 128
    cat = get_catalog(t, b)
    for k, kp in ((1, 1), (2, 5), (4, 3)):
        src, dst = cat.object(k, 0), cat.object(kp, n)
        sys = _assert_keyed_layout(src, dst)
        assert max(max(sys.key(c)[3]) for c in sys.columns) > 63
        assert sys.B == 128
        assert hom_dim(src, dst) == hom_space(src, dst).dim == (
            oracles.hom_dim_reference(src, dst))


@pytest.mark.parametrize("t,b", [("A4", 2), ("D5", None), ("E6", None)])
def test_pruned_images_leave_exactly_the_hom_dimension(t, b):
    # after B's pivot variables are pruned, the images left span the image
    # of the cocycle map, and exactly dim Hom of them are dependent
    cat = get_catalog(t, b)
    total = 0
    for k in cat.diagram.vertices:
        for kp in cat.diagram.vertices:
            for c in range(-4, cat.h + 3):
                n = cat.twist(kp, c, cat.sigma(k))
                if n is None:
                    continue
                src, dst = cat.object(k, 0), cat.object(kp, n)
                sys = homcat._System(src, dst)
                ech = kernel.echelon(sys.boundary_rows)
                images = sys.images_off(ech.pivots)
                assert len(images) == sys.nvars - ech.rank
                dim = len(images) - kernel.rank(images)
                assert dim == hom_dim(src, dst) == hom_space(src, dst).dim
                total += dim
    assert total > 0


def _chain(cat, k, kprime, m):
    """The systems of Hom(M^k_0, X_m), Hom(M^k_0, T X_m) on the engine's
    Serre image and Hom(M^k_0, X_{m+h}), with X_m = M^k'_m: each one's
    cocycle map is the next one's boundary map (see ``_class_dim``)."""
    Y, t = cat.object(k, 0), homcat._serre_t_offset(cat, kprime)
    return (homcat._System(Y, cat.object(kprime, m)),
            homcat._System(Y, homcat._twisted_serre(cat, kprime, m - t)),
            homcat._System(Y, cat.object(kprime, m + cat.h)))


def _image_pivots(sys):
    """The pivot set of an echelon of all of sys's images; it is the one
    ``hom_dim`` stores, as pivot columns are an invariant of the span."""
    return homcat._Pivots(sys.B, kernel.echelon(sys.images).pivots)


def _is_information_set(sys, cols):
    """True iff ``cols`` are rank B variables of sys on which the boundary
    rows keep rank B."""
    rank_b = kernel.rank(sys.boundary_rows)
    on_cols = [kernel.row_from_items([t for t in zip(*row) if t[0] in cols])
               for row in sys.boundary_rows]
    return (len(cols) == rank_b and cols <= set(sys.columns)
            and kernel.rank(on_cols) == rank_b)


def _chain_links(cat, pairs, twists):
    """(producer, reader) system pairs along the chains of ``pairs`` at
    ``twists``, class to Serre side and Serre to class side."""
    for k, kp in pairs:
        for m in twists(kp, k):
            if m is None:
                continue
            cls, srr, nxt = _chain(cat, k, kp, m)
            yield "class to Serre", cls, srr
            yield "Serre to class", srr, nxt


@pytest.mark.parametrize("t,b", [("A4", 2), ("D5", None), ("E6", None),
                                 ("A9", 5)])
def test_mapped_image_pivots_are_an_information_set_of_the_next_boundary(t, b):
    # the pivots of one system's images, mapped onto the next system's
    # block-1 variables, are an information set of its boundary span, in
    # both directions; on A9 (b=5), exponents pass 63 at far twists, which
    # takes B from 64 to 128 along the chain, so the mapping re-codes the
    # monomials
    cat = get_catalog(t, b)
    vertices = cat.diagram.vertices
    if t == "A9":
        pairs, twists = ((1, 1), (4, 3)), lambda kp, k: (45, 50, 52, 64)
    else:
        pairs = [(k, kp) for k in vertices for kp in vertices]
        twists = lambda kp, k: [cat.twist(kp, c, cat.sigma(k))
                                for c in range(-4, cat.h + 3)]
    seen = Counter()
    for direction, producer, reader in _chain_links(cat, pairs, twists):
        cols = reader.pivot_variables(_image_pivots(producer))
        assert _is_information_set(reader, cols), (direction, producer.dst)
        seen[direction, producer.B != reader.B] += bool(cols)
    assert seen["class to Serre", False] and seen["Serre to class", False]
    if t == "A9":
        assert seen["class to Serre", True] and seen["Serre to class", True]


def test_the_first_block_one_columns_are_no_information_set():
    # the control of the test above: as many real block-1 columns as B has
    # rank, taken in column order, miss B's span somewhere on E6
    cat = get_catalog("E6")
    pairs = [(k, kp) for k in (1, 2) for kp in cat.diagram.vertices]
    missed = 0
    for _, producer, reader in _chain_links(
            cat, pairs, lambda kp, k: range(-2, 3)):
        cols = reader.pivot_variables(_image_pivots(producer))
        first = reader.dst.r * reader.src.r * reader.B ** 3
        block1 = [c for c in reader.columns if c >= first]
        missed += not _is_information_set(reader, set(block1[:len(cols)]))
    assert missed


def test_a_pivot_set_passes_down_the_chain_and_is_read_once():
    # Hom(Y, X), Hom(Y, T X) and Hom(Y, T^2 X) on one memo: each leaves
    # its cocycle map's pivots, and the next pops them
    cat = get_catalog("D5")
    Y, X = cat.object(1, 0), cat.object(4, 2)
    objects = [X, shift_T(X), shift_T(shift_T(X))]
    want = [oracles.hom_dim_reference(Y, dst) for dst in objects]
    memo, ranks = {}, []
    for p, dst in enumerate(objects):
        assert hom_dim(Y, dst, (memo, p, p - 1)) == want[p]
        assert isinstance(memo[p], homcat._Pivots) and len(memo[p])
        ranks.append(len(memo[p]))
        # only the first found no pivot set and left its rank B
        assert sorted(memo) == [-1, p] and type(memo[-1]) is int
    # backwards, each pops the int rank Z the one after it left and leaves
    # its rank B, bounded after the first, and exact all the same
    back = {}
    for p in (2, 1, 0):
        assert hom_dim(Y, objects[p], (back, p, p - 1)) == want[p]
        assert back[p - 1] == (ranks[p - 1] if p else memo[-1])
    assert sorted(back) == [-1, 2]
    # a monomial past the reader's B is no variable of it
    big = homcat._Pivots(256, [(255 * 256 + 1) * 256])
    with pytest.raises(ArithmeticError, match="past this system's B"):
        homcat._System(Y, objects[1]).pivot_variables(big)


@pytest.mark.parametrize("plant", ["drop one", "first columns"])
def test_a_mapped_set_off_the_pivots_of_b_goes_red(monkeypatch, plant):
    # planted controls: a set one short leaves one image too many, which
    # the guard refuses; as many real block-1 columns as B has rank, taken
    # in column order, pass that guard but break Serre duality
    real = homcat._System.pivot_variables

    def planted(self, pivots):
        cols = real(self, pivots)
        if plant == "drop one":
            return cols - {min(cols)} if cols else cols
        first = self.dst.r * self.src.r * self.B ** 3
        return set([c for c in self.columns if c >= first][:len(cols)])

    monkeypatch.setattr(homcat._System, "pivot_variables", planted)
    if plant == "first columns":
        assert serre_duality_report(Catalog("E6")) != []
    else:
        with pytest.raises(ArithmeticError, match="pivots of B"):
            serre_duality_report(Catalog("E6"))


def test_a_serre_sweep_reads_every_known_b_through_its_pivots(monkeypatch):
    # path census: on a fresh catalog every system that reads a known rank
    # B reads its pivot set, so none transposes its images for the bounded
    # cocycle-row rank
    built = count_systems(monkeypatch)
    real = homcat._System.pivot_variables
    read = []

    def counted(self, pivots):
        read.append((self, pivots))
        return real(self, pivots)

    monkeypatch.setattr(homcat._System, "pivot_variables", counted)
    cat = Catalog("E6")
    assert serre_duality_report(cat) == []
    assert read and all("boundary_rows" not in vars(s) for s, _ in read)
    assert [s for s in built if "cocycle_rows" in vars(s)] == []
    # every pivot set read has left the memo
    kept = {id(v) for v in cat.memo.values()}
    assert not [p for _, p in read if id(p) in kept]


def test_each_rank_message_is_read_once(monkeypatch):
    # memo census on a fresh catalog: every chain call finds no message, a
    # pivot set under b_key or an int under z_key, and no message read is
    # left behind
    real = homcat.hom_dim
    states, read = Counter(), set()

    def census(src, dst, ranks):
        memo, z_key, b_key = ranks
        z, b = memo.get(z_key), memo.get(b_key)
        states[type(z).__name__, type(b).__name__] += 1
        read.update(key for key, v in ((z_key, z), (b_key, b))
                    if v is not None)
        return real(src, dst, ranks)

    monkeypatch.setattr(homcat, "hom_dim", census)
    cat = Catalog("E6")
    assert serre_duality_report(cat) == []
    for k in cat.diagram.vertices:
        for kp in cat.diagram.vertices:
            assert hom_multiset(cat, k, kp) == golden_multiset("E6", k, kp)
    assert set(states) == {("NoneType", "NoneType"), ("NoneType", "_Pivots"),
                           ("int", "NoneType")}
    assert read and not read & set(cat.memo)


@pytest.mark.parametrize("image", ["untransposed blocks", "half a twist"])
def test_a_serre_image_off_the_t_image_is_refused_before_any_rank(
        monkeypatch, image):
    def planted(g):
        if image == "untransposed blocks":
            return tau(g, -1)
        T = shift_T(g)
        return GradedMF(g.f, g.W, T.phi, T.psi,
                        [s - Fraction(1, g.W.h) for s in T.S])

    monkeypatch.setattr(homcat, "serre", planted)
    cat = Catalog("D4")
    # the ranks of the chain (2, 1) that the right-hand side would read
    for c in range(-cat.h, 2 * cat.h):
        class_hom_dim(cat, 2, 1, c)
    before = dict(cat.memo)
    calls = count_calls(monkeypatch, "hom_dim")
    # one of two neighbouring phases is parity-admissible
    with pytest.raises(ArithmeticError, match="Serre image of vertex 1"):
        for c in (1, 2):
            serre_rhs_dim(cat, 2, 1, c)
    assert calls["hom_dim"] == []
    assert {k: v for k, v in cat.memo.items()
            if k[0] != "_vertex_serre"} == before
    # the catalog class of the image rests on the same certificate
    with pytest.raises(ArithmeticError, match="Serre image of vertex 1 "):
        serre_image(cat, 1)


def test_retraction_pairs_witnesses_without_end_spaces(monkeypatch):
    calls = count_calls(monkeypatch, "compose")
    built = count_systems(monkeypatch)
    solves = []

    def counted(*args, _real=kernel.solve):
        solves.append(args)
        return _real(*args)

    monkeypatch.setattr(kernel, "solve", counted)
    cat = Catalog("D4")
    g = disguised_sum([cat.object(1, 0), cat.object(3, 1), cat.object(1, 0)],
                      1)
    assert _block_components(g) == [g]
    assert decompose(cat, g) == sorted([(1, 0), (3, 1), (1, 0)],
                                       key=lambda t: (-cat.phase(*t), t[0]))
    assert calls["compose"] == solves == []
    # the pairings come from cocycle-only Hom systems, never End(M)
    assert built
    assert all("boundary_rows" not in vars(sys) and sys.src != sys.dst
               for sys in built)


def _row0_constants(cat, g, k, n):
    """True when some cocycle g -> M(k, n) has a constant in row 0 of phi0.

    g is reduced, so no boundary g -> M has a constant entry, and the
    witness basis decides it.
    """
    return any(p.constant_term() for proj in
               hom_space(g, cat.object(k, n)).basis for p in proj.phi0[0])


def test_retraction_reads_kernel_rows_without_witness_bases(monkeypatch):
    calls = count_calls(monkeypatch, "hom_space")
    built = count_systems(monkeypatch)
    selects, morphisms = [], []

    def select(*args, _real=kernel.select_independent):
        selects.append(args)
        return _real(*args)

    class Counted(Morphism):
        __slots__ = ()

        def __init__(self, *args):
            morphisms.append(args)
            super().__init__(*args)

    monkeypatch.setattr(kernel, "select_independent", select)
    monkeypatch.setattr(homcat, "Morphism", Counted)
    rng = random.Random(19)
    seen = Counter()
    for t in ("D4", "E6", "D6"):
        cat = get_catalog(t)
        window = cat.objects_in_window(0, 2)
        objects = [shift_T(cat.object(k, 0)) for k in cat.diagram.vertices]
        for s in (2, 3):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            objects.append(_freduce(direct_sum,
                                    [cat.object(k, n) for k, n in picks]))
        for g in map(reduce, objects):
            for _, k, n in _candidate_classes(cat, g):
                constants = _row0_constants(cat, g, k, n)
                for log in (calls["hom_space"], built, selects, morphisms):
                    del log[:]
                incl = homcat._retraction(cat, g, k, n)
                assert calls["hom_space"] == selects == []
                assert all("boundary_rows" not in vars(sys)
                           for sys in built)
                assert len(morphisms) == (incl is not None)
                assert len(built) == (2 if constants else 1)
                seen[constants, incl is not None] += 1
    # every branch ran: no constants, constants without and with a retraction
    assert set(seen) == {(False, False), (True, False), (True, True)}


def test_repeat_calls_are_answered_from_the_catalog_memo(monkeypatch):
    calls = []
    for name in ("hom_dim", "identify_object"):
        def counted(*args, _real=getattr(homcat, name)):
            calls.append(args)
            return _real(*args)
        monkeypatch.setattr(homcat, name, counted)
    cat = Catalog("D4")
    # each call below is parity-admissible, so the first one computes
    for fn, args in ((t_image, (2,)), (serre_image, (1,)),
                     (class_hom_dim, (1, 3, 2)), (serre_rhs_dim, (3, 1, 2))):
        before = len(calls)
        first = fn(cat, *args)
        assert len(calls) > before
        before = len(calls)
        assert fn(cat, *args) == first
        assert len(calls) == before


def test_each_catalog_owns_its_memo():
    fresh = Catalog("D4")
    shared = get_catalog("D4")
    assert fresh is not shared and fresh.memo == {}
    hom_multiset(shared, 1, 3)
    assert shared.memo and fresh.memo == {}
    assert hom_multiset(fresh, 1, 3) == hom_multiset(shared, 1, 3)
    assert fresh.memo and fresh.memo is not shared.memo


def test_catalogs_differing_only_in_b_keep_separate_memo_entries():
    # sigma depends on the base vertex b, so one (k, k', c) class pins a
    # different twist in each catalog
    cats = (get_catalog("A4", 2), get_catalog("A4", 3))
    # the second pass reads each memo after both catalogs have filled theirs
    for _ in range(2):
        for cat in cats:
            for k in cat.diagram.vertices:
                for kp in cat.diagram.vertices:
                    gap = cat.sigma(kp) - cat.sigma(k)
                    for c in range(-2, cat.h + 1):
                        if (c - gap) % 2:
                            continue
                        want = hom_dim(cat.object(k, 0),
                                       cat.object(kp, (c - gap) // 2))
                        assert class_hom_dim(cat, k, kp, c) == want
