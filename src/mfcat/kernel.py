"""Exact sparse linear algebra over the Gaussian integers.

A sparse row is a triple ``(cols, res, ims)`` of parallel lists: strictly
increasing column indices and the real/imaginary integer parts of the entries.
Rows never store zero entries.  Callers clear denominators with
:func:`row_from_fractions`, and values stay Gaussian integers throughout.
Every pivot row is stored as the first-quadrant associate of its lead
(re > 0, im >= 0), so a unit lead is exactly 1 and a row is reduced against
it by subtraction alone.  Only a pivot whose lead is not a unit (such as 2
or 1+i) takes the fraction-free cross-multiplication step, followed by a
content normalization.  The back substitution of :func:`nullspace`
multiplies through by the norm of each pivot lead instead of dividing by it,
and every result is an integer row.
"""

from bisect import bisect, insort
from math import gcd

# The only backend; the benchmark harness records this name with each run.
BACKEND = "python"


def row_from_items(items):
    """Build a normalized row from (col, re, im) items (duplicates summed)."""
    acc = {}
    for c, re, im in items:
        if c in acc:
            pre, pim = acc[c]
            acc[c] = (pre + re, pim + im)
        else:
            acc[c] = (re, im)
    cols, res, ims = [], [], []
    for c in sorted(acc):
        re, im = acc[c]
        if re or im:
            cols.append(c)
            res.append(re)
            ims.append(im)
    return cols, res, ims


def row_from_fractions(items):
    """Clear a list of (col, a, b, d) items, each the value (a + b*i)/d.

    The parts are ints with d > 0.  Returns ``(row, scale)``: ``scale`` is the
    lcm of all d and ``row`` is :func:`row_from_items` of the items
    multiplied by ``scale``.
    """
    scale = 1
    for _, _, _, d in items:
        if d != 1:
            scale = scale // gcd(scale, d) * d
    return row_from_items([(c, a * (scale // d), b * (scale // d))
                           for c, a, b, d in items]), scale


def row_scale(a_re, a_im, v):
    """Return a*v for a nonzero Gaussian-integer scalar a."""
    cols, res, ims = v
    return (cols, [a_re * r - a_im * i for r, i in zip(res, ims)],
            [a_re * i + a_im * r for r, i in zip(res, ims)])


def row_sub(v, b_re, b_im, p):
    """Return v - b*p, where v's lead is b times p's lead, in the same column.

    The leads cancel, so the merge starts after them; v's entries where p has
    none are copied unchanged.
    """
    vc, vr, vi = v
    pc, pr, pi = p
    nv, np_ = len(vc), len(pc)
    cols, res, ims = [], [], []
    i = j = 1
    while i < nv and j < np_:
        ci, cj = vc[i], pc[j]
        if ci < cj:
            cols.append(ci)
            res.append(vr[i])
            ims.append(vi[i])
            i += 1
        elif cj < ci:
            r, m = pr[j], pi[j]
            cols.append(cj)
            res.append(b_im * m - b_re * r)
            ims.append(-(b_re * m + b_im * r))
            j += 1
        else:
            r, m = pr[j], pi[j]
            re = vr[i] - (b_re * r - b_im * m)
            im = vi[i] - (b_re * m + b_im * r)
            if re or im:
                cols.append(ci)
                res.append(re)
                ims.append(im)
            i += 1
            j += 1
    if i < nv:
        cols += vc[i:]
        res += vr[i:]
        ims += vi[i:]
    while j < np_:
        r, m = pr[j], pi[j]
        cols.append(pc[j])
        res.append(b_im * m - b_re * r)
        ims.append(-(b_re * m + b_im * r))
        j += 1
    return cols, res, ims


def row_normalize(row):
    """Divide a row by the gcd of all its parts and multiply it by the unit
    that puts its lead in the first quadrant (re > 0, im >= 0).

    A lead of norm 1 then becomes exactly 1.
    """
    cols, res, ims = row
    if not cols:
        return row
    g = 0
    for x in res:
        g = gcd(g, x)
        if g == 1:
            break
    if g != 1:
        for x in ims:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        res = [x // g for x in res]
        ims = [x // g for x in ims]
    lr, li = res[0], ims[0]
    if lr > 0 and li >= 0:
        return cols, res, ims
    if lr < 0 and li <= 0:  # times -1
        return cols, [-x for x in res], [-x for x in ims]
    if li > 0:  # times -i
        return cols, ims, [-x for x in res]
    return cols, [-x for x in ims], res  # times i


class Echelon:
    """Incremental row echelon form (span tracker) over Gaussian integers.

    Pivot of a stored row is its leading (smallest) column; the pivot column
    set of a row space is order-independent, so bases derived from it are
    canonical.  A row is normalized once, when it becomes a pivot, so every
    stored lead is a first-quadrant associate and a unit lead is exactly 1.
    A row v is reduced against a unit-lead pivot p by subtraction,
    ``v - b*p`` for v's lead b (:func:`row_sub`).  Only against a pivot
    whose lead a is not a unit does it take the fraction-free step
    ``a*v - b*p`` (:func:`row_scale` first), with a :func:`row_normalize`
    after it.
    """

    def __init__(self):
        self.pivots = {}  # leading col -> normalized row

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Fully reduce a row against the stored pivots; return the residual."""
        pivots = self.pivots
        while row[0]:
            p = pivots.get(row[0][0])
            if p is None:
                break
            a_re, a_im = p[1][0], p[2][0]
            b_re, b_im = row[1][0], row[2][0]
            if a_re == 1 and not a_im:
                row = row_sub(row, b_re, b_im, p)
            else:
                # fraction-free: a*v - b*p for p's lead a and v's lead b
                row = row_normalize(row_sub(row_scale(a_re, a_im, row), b_re, b_im, p))
        return row

    def insert(self, row):
        """Insert a row; return True if it enlarged the span."""
        row = self.reduce(row)
        if not row[0]:
            return False
        self.pivots[row[0][0]] = row_normalize(row)
        return True


def echelon(rows, bound=None):
    """The :class:`Echelon` of a list of sparse rows, inserted short rows first.

    Ties keep their input order (a cheap Markowitz-style heuristic; the span
    and pivot columns do not depend on the order, the run time and the size
    of the stored pivots do).  With a bound (an int >= 0), insertion stops
    once the rank reaches it, so a caller that knows the rank cannot exceed
    the bound gets the full span without reducing the rows left over.
    """
    ech = Echelon()
    if bound is None:
        bound = len(rows)
    n = 0
    for row in sorted(rows, key=lambda r: len(r[0])):
        if n >= bound:
            break
        n += ech.insert(row)
    return ech


def rank(rows, bound=None):
    """Rank of a list of sparse rows, or ``min(rank, bound)``; see
    :func:`echelon`."""
    return echelon(rows, bound).rank


def nullspace(rows, columns):
    """Canonical kernel basis of the system ``rows · x = 0``.

    ``columns`` lists the unknowns' columns in ascending order, a superset
    of the columns the rows meet.  Returns ``(free_cols, basis)`` where
    ``basis[t]`` is an integer row: the kernel vector that is 1 at
    ``free_cols[t]`` and 0 at every other free column, multiplied by the
    one positive rational that makes the gcd of all its parts 1.  Its entry
    at ``free_cols[t]`` is then a positive integer.  Pivot columns are the
    lexicographically smallest possible (an invariant of the row space), so
    the basis is canonical.  Rows are inserted short rows first, as in
    :func:`echelon`: the basis does not depend on the order, but the size of
    the stored pivots does.
    """
    pivots = echelon(rows).pivots
    pivot_cols = sorted(pivots)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in columns if c not in pivot_set]
    basis = []
    for f in free_cols:
        # vec is a positive integer multiple of the kernel vector, with the
        # positive integer vec[f] as its multiplier
        vec = {f: (1, 0)}
        # solve pivot coordinates bottom-up (rows sorted by decreasing pivot)
        for p in reversed(pivot_cols[:bisect(pivot_cols, f)]):
            cols, res, ims = pivots[p]
            acc_re = acc_im = 0
            for idx in range(1, len(cols)):
                entry = vec.get(cols[idx])
                if entry is None:
                    continue
                xr, xi = entry
                r, i = res[idx], ims[idx]
                acc_re += r * xr - i * xi
                acc_im += r * xi + i * xr
            if not (acc_re or acc_im):
                continue
            # x_p = -acc / lead = -acc * conj(lead) / norm(lead): cancel the
            # numerator against the norm and scale vec by what is left.  The
            # new entry is coprime to that factor, and vec[f] is the product
            # of all factors, so a prime dividing every part of vec would
            # divide some factor, yet the entry set at the last such factor
            # escapes it: vec stays primitive and needs no content division.
            lr, li = res[0], ims[0]
            num_re = -(acc_re * lr + acc_im * li)
            num_im = acc_re * li - acc_im * lr
            n = lr * lr + li * li
            if n != 1:
                g = gcd(num_re, num_im, n)
                num_re //= g
                num_im //= g
                n //= g
                if n != 1:
                    for c, (xr, xi) in vec.items():
                        vec[c] = (xr * n, xi * n)
            vec[p] = (num_re, num_im)
        cols = sorted(vec)
        basis.append((cols, [vec[c][0] for c in cols], [vec[c][1] for c in cols]))
    return free_cols, basis


def select_independent(base_rows, cand_rows):
    """``(chosen, rank)``: the indices of ``cand_rows`` that are independent
    modulo span(base_rows), and the rank of ``base_rows``.

    The base rows go through :func:`echelon`.  Candidates are offered in
    order, each tested against the span of the base rows plus the previously
    accepted candidates.
    """
    ech = echelon(base_rows)
    rank_base = ech.rank
    chosen = [idx for idx, row in enumerate(cand_rows) if ech.insert(row)]
    return chosen, rank_base


def solve(columns, rhs):
    """Solve ``sum_c y_c * columns[c] = rhs`` exactly over ℚ(i).

    ``columns`` and ``rhs`` are sparse rows (coordinate vectors).  Returns
    ``(row, den)`` with ``y_c = row[c] / den`` for an integer row over the
    column indices and an integer ``den > 0``, or None if unsolvable.
    """
    ncols = len(columns)
    # equations indexed by coordinates: transpose the columns
    by_coord = {}
    for c, (cc, cr, ci) in enumerate(columns):
        for idx in range(len(cc)):
            by_coord.setdefault(cc[idx], []).append((c, cr[idx], ci[idx]))
    rc, rr, ri = rhs
    for idx in range(len(rc)):
        by_coord.setdefault(rc[idx], []).append((ncols, -rr[idx], -ri[idx]))
    rows = [row_from_items(items) for _, items in sorted(by_coord.items())]
    free_cols, basis = nullspace(rows, range(ncols + 1))
    if free_cols and free_cols[-1] == ncols:
        # the rhs column is the last free column and the last entry of its row
        cols, res, ims = basis[-1]
        return (cols[:-1], res[:-1], ims[:-1]), res[-1]
    return None


# A prime p ≡ 1 (mod 4), so that -1 has a square root mod p and Gaussian
# integers map into GF(p); ranks over GF(p) bound ranks over ℚ(i) from below.
# The engine no longer calls rank_modp (hom_dim uses exact ranks only); it
# stays because the benchmark tracer wraps it by name.
MODP = 2013265921


def _find_imag(p):
    for g in range(2, 1000):
        t = pow(g, (p - 1) // 4, p)
        if t * t % p == p - 1:
            return t
    raise ValueError("no square root of -1 mod %d" % p)


MODP_I = _find_imag(MODP)


def rank_modp(rows):
    """Rank of the row set after reduction mod p = MODP (with i ↦ MODP_I).

    Always ≤ the rank over ℚ(i); equality is not guaranteed, so use the
    result only as a lower bound / full-rank certificate.
    """
    p, imag = MODP, MODP_I
    pivots = {}
    order = []
    rk = 0
    for cols, res, ims in rows:
        d = {}
        for idx in range(len(cols)):
            v = (res[idx] + imag * ims[idx]) % p
            if v:
                d[cols[idx]] = v
        for c in order:
            f = d.get(c)
            if not f:
                continue
            for cc, vv in pivots[c].items():
                w = (d.get(cc, 0) - f * vv) % p
                if w:
                    d[cc] = w
                elif cc in d:
                    del d[cc]
        if d:
            lead = min(d)
            inv = pow(d[lead], -1, p)
            pivots[lead] = {cc: vv * inv % p for cc, vv in d.items()}
            insort(order, lead)
            rk += 1
    return rk
