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
    is_indecomposable,
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
    cone,
    direct_sum,
    identity_morphism,
    mat_mul,
    permute_slots,
    reduce,
    serre,
    serre_inverse,
    shift_T,
    tau,
    verify_mf,
    verify_morphism,
)
from mfcat.tables import golden_multiset, serre_vertex


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
    with pytest.raises(PolyError, match="different potentials"):
        decompose(cat, get_catalog("D4").object(1, 0))


def test_serre_duality_report_rejects_a_malformed_window():
    with pytest.raises(PolyError):
        serre_duality_report(get_catalog("A3"), "x", 1)


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
    assert compose(g, zero).is_zero()


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


def test_identify_object_sees_through_permutation_and_shift():
    cat = get_catalog("D5")
    g = cat.object(4, 2)
    perm0 = list(reversed(range(g.r)))
    perm1 = list(range(1, g.r)) + [0]
    assert identify_object(cat, permute_slots(g, perm0, perm1)) == (4, 2)
    assert identify_object(cat, tau(cat.object(1, 0), 5)) == (1, 5)


def test_identify_object_rejects_sums_off_lattice_shifts_and_zero():
    cat = get_catalog("D5")
    X = cat.object(3, 1)
    assert identify_object(cat, X) == (3, 1)
    assert identify_object(cat, direct_sum(X, cat.object(1, 0))) is None
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
        slots0, slots1 = cat.slot_values(k)
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
    assert is_indecomposable(cat.object(3, 0))
    s = direct_sum(cat.object(1, 0), cat.object(2, 1))
    assert not is_indecomposable(s)


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


def test_decompose_rejects_an_off_lattice_object():
    cat = get_catalog("D5")
    g = direct_sum(cat.object(1, 0), cat.object(3, 1))
    with pytest.raises(ArithmeticError):
        decompose(cat, _shifted(g, Fraction(1, 5)))


def _count_calls(monkeypatch, *names):
    """Wrap homcat functions by name; returns {name: [args, ...]}."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _real=getattr(homcat, name), _log=calls[name]):
            _log.append(args)
            return _real(*args)
        monkeypatch.setattr(homcat, name, counted)
    return calls


def _count_systems(monkeypatch):
    """Record, per _System built, whether src equals dst by value."""
    same = []

    class Counted(homcat._System):
        def __init__(self, src, dst):
            same.append(src == dst)
            super().__init__(src, dst)

    monkeypatch.setattr(homcat, "_System", Counted)
    return same


def test_a_catalog_object_is_settled_by_size_without_a_split(monkeypatch):
    calls = _count_calls(monkeypatch, "lift_idempotent", "_strict_split")
    same = _count_systems(monkeypatch)
    for t, k_built in (("D4", (2, 6)), ("E6", (2, 8))):
        cat = Catalog(t)
        for k in cat.diagram.vertices:
            for n in (0, 3):
                del same[:]
                assert decompose(cat, cat.object(k, n)) == [(k, n)]
                assert not any(same)
                # smaller candidates are still tried, through Hom systems
                if k == k_built[0]:
                    assert len(same) == k_built[1]
    assert calls == {"lift_idempotent": [], "_strict_split": []}


def test_a_sum_of_s_objects_splits_s_minus_one_times(monkeypatch):
    calls = _count_calls(monkeypatch, "cone", "lift_idempotent",
                         "_strict_split")
    rng = random.Random(11)
    for t, b in (("A4", 2), ("D5", None), ("E6", None)):
        cat = get_catalog(t, b)
        window = cat.objects_in_window(0, 2)
        for s in (1, 2, 3, 4):
            picks = [rng.choice(window)[1:] for _ in range(s)]
            g = _freduce(direct_sum, [cat.object(k, n) for k, n in picks])
            for log in calls.values():
                del log[:]
            assert sorted(decompose(cat, g)) == sorted(picks)
            assert len(calls["cone"]) == s - 1
            assert calls["lift_idempotent"] == calls["_strict_split"] == []


def _split_complement(cat, work, k, n):
    """The complement of M(k, n) in work the long way: lift e, split 1 - e."""
    M = cat.object(k, n)
    incl = homcat._retraction(cat, work, k, n)
    EM = homcat._endomorphisms(cat, k, n)
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


def test_identify_object_of_an_unequal_copy_goes_through_a_retraction(
        monkeypatch):
    calls = _count_calls(monkeypatch, "_retraction")
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
    g = direct_sum(cat.object(1, 0), cat.object(3, 1))
    with pytest.raises(ArithmeticError, match="complement"):
        decompose(cat, g)


def test_ar_triangles_on_small_types():
    for t, b in (("A2", 1), ("A4", 2), ("D4", None)):
        cat = get_catalog(t, b)
        for k in cat.diagram.vertices:
            assert ar_triangle_check(cat, k) == []


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


def test_end_spaces_are_memoized_per_class():
    cat = Catalog("D4")
    g = direct_sum(cat.object(1, 0), direct_sum(cat.object(3, 1),
                                                cat.object(1, 0)))
    assert decompose(cat, g) == decompose(get_catalog("D4"), g)
    ends = [key for key in cat.memo if key[0] == "_endomorphisms"]
    assert ends
    for key in ends:
        E = cat.memo[key]
        M = cat.object(*key[1:])
        assert E.src is M and E.dst is M
        want = hom_space(_cache_free(M), _cache_free(M))
        assert E.dim == want.dim == 1
        assert _basis_blocks(E) == _basis_blocks(want)


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
