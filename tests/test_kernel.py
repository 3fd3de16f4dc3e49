"""Exact sparse linear algebra over the Gaussian integers."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given
from hypothesis import strategies as st

from mfcat import kernel as pyk
from mfcat.catalog import get_catalog
from mfcat.homcat import _System


def _systems():
    """Raw sparse rows from genuine Hom systems (realistic structure).

    The last three have boundary rows, which the solve and select tests use.
    """
    out = []
    for t, k, kp, n in (("A3", 1, 2, 0), ("D4", 1, 3, 1), ("D5", 3, 3, 0),
                        ("E6", 2, 5, 1), ("A3", 2, 2, 2), ("D4", 1, 2, 2),
                        ("E6", 2, 5, 3)):
        cat = get_catalog(t)
        out.append(_System(cat.object(k, 0), cat.object(kp, n)))
    return out


def _dot(row, vec):
    """Exact <row, vec> over Z[i]; vec is an integer row."""
    vec = {c: (re, im) for c, re, im in zip(*vec)}
    re = 0
    im = 0
    cols, res, ims = row
    for idx in range(len(cols)):
        v = vec.get(cols[idx])
        if v is None:
            continue
        re += res[idx] * v[0] - ims[idx] * v[1]
        im += res[idx] * v[1] + ims[idx] * v[0]
    return re, im


def test_row_from_items_merges_and_normalizes():
    row = pyk.row_from_items([(3, 1, 0), (1, 2, -1), (3, -1, 0), (2, 0, 0)])
    assert row == ([1], [2], [-1])
    assert pyk.row_from_items([]) == ([], [], [])


parts = st.one_of(
    st.integers(-20, 20),
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _gauss_item(c, re, im):
    """(col, re, im) with Fraction/int parts -> (col, a, b, d) in lowest terms."""
    re, im = Fraction(re), Fraction(im)
    d = lcm(re.denominator, im.denominator)
    return c, int(re * d), int(im * d), d


@given(st.lists(st.tuples(st.integers(0, 6), parts, parts), max_size=12))
def test_row_from_fractions_clears_by_the_lcm_of_the_denominators(items):
    row, scale = pyk.row_from_fractions([_gauss_item(*it) for it in items])
    assert scale == lcm(*(Fraction(x).denominator
                          for _, re, im in items for x in (re, im)))
    want = {}
    for c, re, im in items:
        ore, oim = want.get(c, (0, 0))
        want[c] = (ore + re * scale, oim + im * scale)
    cols, res, ims = row
    assert cols == sorted(c for c, v in want.items() if v != (0, 0))
    for c, re, im in zip(cols, res, ims):
        assert type(re) is int and type(im) is int
        assert (re, im) == want[c]


def test_nullspace_vectors_annihilate_the_rows():
    for sys_ in _systems():
        rows = sys_.cocycle_rows
        free_cols, basis = pyk.nullspace(rows, sys_.nvars)
        assert len(free_cols) == len(basis)
        assert len(basis) == sys_.nvars - pyk.rank(list(rows))
        for vec in basis:
            for row in rows:
                assert _dot(row, vec) == (0, 0)


def _reference_nullspace(rows, ncols):
    """Kernel basis by back substitution in Fractions, cleared to int rows.

    Each vector is 1 at its free column; the cleared row is that vector times
    the lcm of the denominators of its parts.
    """
    ech = pyk.Echelon()
    for row in rows:
        ech.insert(row)
    pivot_cols = sorted(ech.pivots)
    out = []
    for f in range(ncols):
        if f in ech.pivots:
            continue
        vec = {f: (Fraction(1), Fraction(0))}
        for p in reversed(pivot_cols):
            if p > f:
                continue
            cols, res, ims = ech.pivots[p]
            acc_re = acc_im = Fraction(0)
            for c, r, i in zip(cols[1:], res[1:], ims[1:]):
                if c in vec:
                    xr, xi = vec[c]
                    acc_re += r * xr - i * xi
                    acc_im += r * xi + i * xr
            if acc_re or acc_im:
                lr, li = res[0], ims[0]
                n = lr * lr + li * li
                vec[p] = (-(acc_re * lr + acc_im * li) / n,
                          (acc_re * li - acc_im * lr) / n)
        scale = lcm(*(x.denominator for v in vec.values() for x in v))
        cols = sorted(vec)
        out.append((cols, [int(vec[c][0] * scale) for c in cols],
                    [int(vec[c][1] * scale) for c in cols]))
    return out


def _assert_canonical_basis(rows, ncols):
    free_cols, basis = pyk.nullspace(rows, ncols)
    assert basis == _reference_nullspace(rows, ncols)
    for f, (cols, res, ims) in zip(free_cols, basis):
        assert gcd(*res, *ims) == 1
        entry = dict(zip(cols, zip(res, ims)))[f]
        assert entry[0] > 0 and entry[1] == 0
        for row in rows:
            assert _dot(row, (cols, res, ims)) == (0, 0)


def test_nullspace_rows_are_canonical_and_match_the_fraction_reference():
    for sys_ in _systems():
        _assert_canonical_basis(sys_.cocycle_rows, sys_.nvars)


gauss_ints = st.tuples(st.integers(-4, 4), st.integers(-3, 3))


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.tuples(st.integers(0, n - 1), gauss_ints),
                      max_size=n), max_size=n))))
def test_nullspace_of_random_gaussian_systems_matches_the_reference(system):
    # non-unit pivot leads such as 2 or 1+i make the back substitution
    # scale by their norms; the reference divides instead
    ncols, raw = system
    rows = [pyk.row_from_items([(c, re, im) for c, (re, im) in items])
            for items in raw]
    _assert_canonical_basis(rows, ncols)


def test_select_independent_extends_a_basis():
    for sys_ in _systems():
        rows = list(sys_.boundary_rows)
        if not rows:
            continue
        chosen = pyk.select_independent([], rows)
        assert pyk.rank([rows[i] for i in chosen]) == len(chosen)
        assert pyk.rank(rows) == len(chosen)
        # nothing is independent of a spanning set
        assert pyk.select_independent(rows, rows) == []


def test_solve_reproduces_the_right_hand_side():
    for sys_ in _systems():
        cols = list(sys_.boundary_rows)
        if len(cols) < 2:
            continue
        # rhs = first column + I * second column
        items = []
        c0, r0, i0 = cols[0]
        for idx in range(len(c0)):
            items.append((c0[idx], r0[idx], i0[idx]))
        c1, r1, i1 = cols[1]
        for idx in range(len(c1)):
            items.append((c1[idx], -i1[idx], r1[idx]))
        rhs = pyk.row_from_items(items)
        sol = pyk.solve(cols, rhs)
        assert sol is not None
        (scols, sres, sims), den = sol
        assert den > 0
        sol = [(Fraction(0), Fraction(0))] * len(cols)
        for c, re, im in zip(scols, sres, sims):
            sol[c] = (Fraction(re, den), Fraction(im, den))
        # substitute back: sum_c sol_c * cols[c] must equal rhs exactly
        acc = {}
        for (re, im), (cc, cr, ci) in zip(sol, cols):
            for idx in range(len(cc)):
                ore, oim = acc.get(cc[idx], (Fraction(0), Fraction(0)))
                acc[cc[idx]] = (ore + re * cr[idx] - im * ci[idx],
                                oim + re * ci[idx] + im * cr[idx])
        want = {}
        rc, rr, ri = rhs
        for idx in range(len(rc)):
            want[rc[idx]] = (Fraction(rr[idx]), Fraction(ri[idx]))
        assert {c: v for c, v in acc.items() if v != (0, 0)} == want


def test_solve_reports_unsolvable_systems():
    cols = [pyk.row_from_items([(0, 1, 0)]), pyk.row_from_items([(0, 0, 1)])]
    rhs = pyk.row_from_items([(1, 1, 0)])
    assert pyk.solve(cols, rhs) is None


def test_modp_rank_is_a_lower_bound_and_usually_exact():
    for sys_ in _systems():
        for rows in (sys_.cocycle_rows, sys_.boundary_rows):
            exact = pyk.rank(list(rows))
            modp = pyk.rank_modp(rows)
            assert modp <= exact
            # the engine's certificate route relies on these being equal on
            # catalog systems at the shipped prime
            assert modp == exact


# Gaussian integers that vanish mod p: multiples of p, and a + b*i with
# a + b*MODP_I = 0 mod p
modp_zeros = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda t: (t[0] * pyk.MODP, t[1] * pyk.MODP)),
    st.sampled_from([(pyk.MODP_I, -1), (-pyk.MODP_I, 1), (1, pyk.MODP_I)]),
)
# a small entry plus a zero mod p, so rows can coincide mod p only
modp_entries = st.one_of(
    gauss_ints, modp_zeros,
    st.tuples(gauss_ints, modp_zeros).map(
        lambda t: (t[0][0] + t[1][0], t[0][1] + t[1][1])))


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.integers(0, n - 1), modp_entries), max_size=n),
    max_size=n + 2)))
def test_modp_rank_never_exceeds_the_exact_rank(raw):
    rows = [pyk.row_from_items([(c, re, im) for c, (re, im) in items])
            for items in raw]
    assert pyk.rank_modp(rows) <= pyk.rank(rows)
