"""Exact sparse linear algebra over the Gaussian integers."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
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

# Leads of both kinds: a unit (±1, ±i) pivot reduces by subtraction, a
# non-unit (2, 1+i, ...) one by the fraction-free step.
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
NON_UNITS = [(2, 0), (-2, 0), (0, 2), (1, 1), (1, -1), (-1, 1), (3, 1)]
gauss_entries = st.one_of(st.sampled_from(UNITS + NON_UNITS), gauss_ints)
# a common factor per row, so that content division can turn a lead into a
# unit and a rotation can move it out of the first quadrant
row_factors = st.sampled_from([(1, 0), (1, 0), (2, 0), (1, 1), (0, -1), (-3, 0)])


def _scaled_row(factor, items):
    fr, fi = factor
    return pyk.row_from_items([(c, fr * re - fi * im, fr * im + fi * re)
                               for c, (re, im) in items])


def _gaussian_rows(n, max_rows):
    raw = st.tuples(row_factors, st.lists(
        st.tuples(st.integers(0, n - 1), gauss_entries), max_size=n))
    return st.lists(raw, max_size=max_rows).map(
        lambda rows: [_scaled_row(f, items) for f, items in rows])


gaussian_systems = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), _gaussian_rows(n, n + 2)))


def _fraction_rows(rows):
    return [{c: (Fraction(r), Fraction(i)) for c, r, i in zip(*row)}
            for row in rows]


def _reference_rank(rows):
    """Rank over Q(i) by elimination in Fractions, every pivot scaled to lead 1."""
    pivots = {}
    for v in _fraction_rows(rows):
        while v:
            lead = min(v)
            br, bi = v[lead]
            p = pivots.get(lead)
            if p is None:
                n = br * br + bi * bi
                ir, ii = br / n, -bi / n
                pivots[lead] = {c: (a * ir - b * ii, a * ii + b * ir)
                                for c, (a, b) in v.items()}
                break
            for c, (pr, pi) in p.items():
                a, b = v.pop(c, (0, 0))
                a -= br * pr - bi * pi
                b -= br * pi + bi * pr
                if a or b:
                    v[c] = (a, b)
    return len(pivots)


def _reference_select(base, cands):
    """Candidates that raise the Fraction reference rank, offered in order."""
    span, chosen = list(base), []
    for idx, row in enumerate(cands):
        if _reference_rank(span + [row]) > _reference_rank(span):
            span.append(row)
            chosen.append(idx)
    return chosen


def _assert_solves(columns, rhs, sol):
    """``sol = (row, den)`` gives y with sum_c y_c * columns[c] = rhs exactly."""
    (scols, sres, sims), den = sol
    assert den > 0
    acc = {}
    for c, re, im in zip(scols, sres, sims):
        yr, yi = Fraction(re, den), Fraction(im, den)
        for k, (a, b) in _fraction_rows([columns[c]])[0].items():
            ore, oim = acc.get(k, (0, 0))
            acc[k] = (ore + yr * a - yi * b, oim + yr * b + yi * a)
    assert {k: v for k, v in acc.items() if v != (0, 0)} == _fraction_rows([rhs])[0]


def _assert_pivot_leads(ech):
    for cols, res, ims in ech.pivots.values():
        assert res[0] > 0 and ims[0] >= 0
        if res[0] * res[0] + ims[0] * ims[0] == 1:
            assert (res[0], ims[0]) == (1, 0)


@settings(max_examples=200)
@given(gaussian_systems)
def test_nullspace_of_random_gaussian_systems_matches_the_reference(system):
    # non-unit pivot leads such as 2 or 1+i make the back substitution
    # scale by their norms; the reference divides instead
    ncols, rows = system
    _assert_canonical_basis(rows, ncols)


@settings(max_examples=200)
@given(gaussian_systems, gauss_entries, gauss_entries)
def test_rank_select_and_solve_of_random_gaussian_systems_match_the_references(
        system, y0, y1):
    _, rows = system
    assert pyk.rank(rows) == _reference_rank(rows)
    ech = pyk.Echelon()
    for row in rows:
        ech.insert(row)
    _assert_pivot_leads(ech)
    half = len(rows) // 2
    assert (pyk.select_independent(rows[:half], rows[half:])
            == (_reference_select(rows[:half], rows[half:]),
                _reference_rank(rows[:half])))
    if len(rows) < 3:
        return
    columns = rows[:-1]
    # rows[-1] is in the span of the columns or not; y0*col0 + y1*col1 is
    solvable = _reference_rank(rows) == _reference_rank(columns)
    sol = pyk.solve(columns, rows[-1])
    assert (sol is not None) == solvable
    if sol is not None:
        _assert_solves(columns, rows[-1], sol)
    rhs = pyk.row_from_items(
        [(c, y[0] * re - y[1] * im, y[0] * im + y[1] * re)
         for y, row in ((y0, columns[0]), (y1, columns[1]))
         for c, re, im in zip(*row)])
    _assert_solves(columns, rhs, pyk.solve(columns, rhs))


@settings(max_examples=200)
@given(gaussian_systems, st.integers(0, 10))
def test_a_bounded_rank_is_the_rank_capped_at_the_bound(system, bound):
    _, rows = system
    assert pyk.rank(rows, bound) == min(_reference_rank(rows), bound)


@given(row_factors, st.lists(st.tuples(st.integers(0, 6), gauss_entries), max_size=7))
def test_row_normalize_puts_the_lead_in_the_first_quadrant(factor, items):
    row = _scaled_row(factor, items)
    cols, res, ims = pyk.row_normalize(row)
    assert cols == row[0]
    if not cols:
        return
    assert res[0] > 0 and ims[0] >= 0
    if res[0] * res[0] + ims[0] * ims[0] == 1:
        assert (res[0], ims[0]) == (1, 0)
    assert gcd(*res, *ims) == 1
    # the input is g * u times the output, for its content g and a unit u
    g = gcd(*row[1], *row[2])
    assert any(all((g * (ur * r - ui * i), g * (ur * i + ui * r)) == (a, b)
                   for r, i, a, b in zip(res, ims, row[1], row[2]))
               for ur, ui in UNITS)


def test_reduction_cross_multiplies_only_against_non_unit_leads(monkeypatch):
    calls = {"row_sub": 0, "row_scale": 0}
    for name in calls:
        def counted(*args, _real=getattr(pyk, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(pyk, name, counted)
    ech = pyk.Echelon()
    # 2·x0 + x1 is a pivot with the non-unit lead 2; i·x0 + x2 is
    # cross-multiplied against it, and the residual -i·x1 + 2·x2 becomes the
    # pivot x1 + 2i·x2 with lead 1; -i·x1 + x2 is subtracted once, to the
    # pivot x2, and 3·x1 + i·x2 twice, to zero
    for items in ([(0, 2, 0), (1, 1, 0)], [(0, 0, 1), (2, 1, 0)],
                  [(1, 0, -1), (2, 1, 0)], [(1, 3, 0), (2, 0, 1)]):
        ech.insert(pyk.row_from_items(items))
    assert calls == {"row_sub": 4, "row_scale": 1}
    assert ech.pivots == {0: ([0, 1], [2, 1], [0, 0]),
                          1: ([1, 2], [1, 0], [0, 2]),
                          2: ([2], [1], [0])}
    _assert_pivot_leads(ech)


def test_select_independent_extends_a_basis():
    for sys_ in _systems():
        rows = list(sys_.boundary_rows)
        if not rows:
            continue
        chosen, rank_base = pyk.select_independent([], rows)
        assert rank_base == 0
        assert pyk.rank([rows[i] for i in chosen]) == len(chosen)
        assert pyk.rank(rows) == len(chosen)
        # nothing is independent of a spanning set
        assert pyk.select_independent(rows, rows) == ([], len(chosen))


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
        _assert_solves(cols, rhs, sol)


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
            # on catalog systems at the shipped prime the bound is attained,
            # so the prime is a sound choice for a lower-bound check
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
