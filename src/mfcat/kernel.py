"""Exact sparse linear algebra over the Gaussian integers / rationals.

A sparse row is a triple ``(cols, res, ims)`` of parallel lists: strictly
increasing column indices and the real/imaginary integer parts of the entries.
Rows never store zero entries.  All elimination is fraction-free (callers
clear denominators with :func:`row_from_fractions`) with per-row content
normalization, so values stay Gaussian integers throughout; exact rationals
only appear in the back substitution of :func:`nullspace`.
"""

from bisect import insort
from fractions import Fraction
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
    """Clear a list of (col, re, im) items with Fraction or int parts.

    Returns ``(row, scale)``: ``scale`` is the lcm of all denominators and
    ``row`` is :func:`row_from_items` of the items multiplied by ``scale``.
    """
    scale = 1
    for _, re, im in items:
        for d in (re.denominator, im.denominator):
            if d != 1:
                scale = scale // gcd(scale, d) * d
    row = row_from_items(
        [(c, re.numerator * (scale // re.denominator),
          im.numerator * (scale // im.denominator)) for c, re, im in items])
    return row, scale


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


def _gauss_div(num_re, num_im, den_re, den_im):
    """Exact division of ℚ(i) by a Gaussian integer (den != 0)."""
    norm = den_re * den_re + den_im * den_im
    re = (num_re * den_re + num_im * den_im) / Fraction(norm)
    im = (num_im * den_re - num_re * den_im) / Fraction(norm)
    return re, im


def nullspace(rows, ncols):
    """Canonical kernel basis of the system ``rows · x = 0``.

    Returns ``(free_cols, basis)`` where ``basis[t]`` is a dict
    ``col -> (Fraction re, Fraction im)`` with ``basis[t][free_cols[t]] == 1``.
    Pivot columns are the lexicographically smallest possible (an invariant of
    the row space), so the basis is canonical.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    pivot_cols = sorted(ech.pivots)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        vec = {f: (Fraction(1), Fraction(0))}
        # solve pivot coordinates bottom-up (rows sorted by decreasing pivot)
        for p in reversed(pivot_cols):
            if p > f:
                continue
            cols, res, ims = ech.pivots[p]
            acc_re = Fraction(0)
            acc_im = Fraction(0)
            for idx in range(1, len(cols)):
                c = cols[idx]
                entry = vec.get(c)
                if entry is None:
                    continue
                xr, xi = entry
                acc_re += res[idx] * xr - ims[idx] * xi
                acc_im += res[idx] * xi + ims[idx] * xr
            if acc_re or acc_im:
                re, im = _gauss_div(-acc_re, -acc_im, res[0], ims[0])
                vec[p] = (re, im)
        basis.append(vec)
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

    ``columns`` and ``rhs`` are sparse rows (coordinate vectors).  Returns a
    list of ``(Fraction re, Fraction im)`` per column, or None if unsolvable.
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
    for f, vec in zip(free_cols, basis):
        if f == ncols:
            out = []
            for c in range(ncols):
                out.append(vec.get(c, (Fraction(0), Fraction(0))))
            return out
    if not rc:  # zero rhs: trivial solution
        return [(Fraction(0), Fraction(0))] * ncols
    return None


# A prime p ≡ 1 (mod 4), so that -1 has a square root mod p and Gaussian
# integers map into GF(p).  Ranks over GF(p) bound ranks over ℚ(i) from
# below, which turns a full-rank elimination mod p into an exact certificate.
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
            inv = pow(d[lead], p - 2, p)
            pivots[lead] = {cc: vv * inv % p for cc, vv in d.items()}
            insort(order, lead)
            rk += 1
    return rk
