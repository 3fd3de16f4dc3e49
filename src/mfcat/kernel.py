"""Exact sparse linear algebra over the Gaussian integers.

A sparse row is a triple ``(cols, res, ims)`` of parallel lists: strictly
increasing column indices and the real/imaginary integer parts of the entries.
Rows never store zero entries.  All elimination is fraction-free (callers
clear denominators with :func:`row_from_fractions`) with per-row content
normalization, so values stay Gaussian integers throughout: the back
substitution of :func:`nullspace` multiplies through by the norm of each
pivot lead instead of dividing by it, and every result is an integer row.
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


def row_axpy(a_re, a_im, v, b_re, b_im, p):
    """Return a*v - b*p for Gaussian-integer scalars a, b and rows v, p."""
    vc, vr, vi = v
    pc, pr, pi = p
    nv, np_ = len(vc), len(pc)
    cols, res, ims = [], [], []
    i = j = 0
    while i < nv and j < np_:
        ci, cj = vc[i], pc[j]
        if ci < cj:
            re = a_re * vr[i] - a_im * vi[i]
            im = a_re * vi[i] + a_im * vr[i]
            if re or im:
                cols.append(ci)
                res.append(re)
                ims.append(im)
            i += 1
        elif cj < ci:
            re = -(b_re * pr[j] - b_im * pi[j])
            im = -(b_re * pi[j] + b_im * pr[j])
            if re or im:
                cols.append(cj)
                res.append(re)
                ims.append(im)
            j += 1
        else:
            re = (a_re * vr[i] - a_im * vi[i]) - (b_re * pr[j] - b_im * pi[j])
            im = (a_re * vi[i] + a_im * vr[i]) - (b_re * pi[j] + b_im * pr[j])
            if re or im:
                cols.append(ci)
                res.append(re)
                ims.append(im)
            i += 1
            j += 1
    while i < nv:
        re = a_re * vr[i] - a_im * vi[i]
        im = a_re * vi[i] + a_im * vr[i]
        if re or im:
            cols.append(vc[i])
            res.append(re)
            ims.append(im)
        i += 1
    while j < np_:
        re = -(b_re * pr[j] - b_im * pi[j])
        im = -(b_re * pi[j] + b_im * pr[j])
        if re or im:
            cols.append(pc[j])
            res.append(re)
            ims.append(im)
        j += 1
    return cols, res, ims


def row_normalize(row):
    """Divide a row by the gcd of all its parts; fix the leading sign."""
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
    if res[0] < 0 or (res[0] == 0 and ims[0] < 0):
        res = [-x for x in res]
        ims = [-x for x in ims]
    return cols, res, ims


class Echelon:
    """Incremental row echelon form (span tracker) over Gaussian integers.

    Pivot of a stored row is its leading (smallest) column; the pivot column
    set of a row space is order-independent, so bases derived from it are
    canonical.
    """

    def __init__(self):
        self.pivots = {}  # leading col -> normalized row

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Fully reduce a row against the stored pivots; return the residual."""
        pivots = self.pivots
        while True:
            cols = row[0]
            if not cols:
                return row
            lead = cols[0]
            p = pivots.get(lead)
            if p is None:
                return row
            row = row_axpy(p[1][0], p[2][0], row, row[1][0], row[2][0], p)
            row = row_normalize(row)

    def insert(self, row):
        """Insert a row; return True if it enlarged the span."""
        row = self.reduce(row_normalize(row))
        if not row[0]:
            return False
        self.pivots[row[0][0]] = row
        return True


def rank(rows):
    """Rank of a list of sparse rows.

    Short rows are processed first (a cheap Markowitz-style heuristic; the
    result does not depend on the order, the run time does).
    """
    rows = sorted(rows, key=lambda r: (len(r[0]), r[0], r[1], r[2]))
    ech = Echelon()
    n = 0
    for row in rows:
        if ech.insert(row):
            n += 1
    return n


def nullspace(rows, ncols):
    """Canonical kernel basis of the system ``rows · x = 0``.

    Returns ``(free_cols, basis)`` where ``basis[t]`` is an integer row: the
    kernel vector that is 1 at ``free_cols[t]`` and 0 at every other free
    column, multiplied by the one positive rational that makes the gcd of
    all its parts 1.  Its entry at ``free_cols[t]`` is then a positive
    integer.  Pivot columns are the lexicographically smallest possible (an
    invariant of the row space), so the basis is canonical.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    pivots = ech.pivots
    pivot_cols = sorted(pivots)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
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
    """Indices of ``cand_rows`` that are independent modulo span(base_rows).

    Candidates are offered in order, each tested against the span of the base
    rows plus the previously accepted candidates.
    """
    ech = Echelon()
    for row in base_rows:
        ech.insert(row)
    chosen = []
    for idx, row in enumerate(cand_rows):
        if ech.insert(row):
            chosen.append(idx)
    return chosen


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
    free_cols, basis = nullspace(rows, ncols + 1)
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
