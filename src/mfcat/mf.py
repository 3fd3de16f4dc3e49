"""Graded matrix factorizations.

A factorization of f is a pair of r x r polynomial blocks (phi, psi) with

    phi * psi = psi * phi = f * 1.

The odd supermatrix is Q = [[0, phi], [psi, 0]] acting on C^r + C^r.  The
grading vector S lists 2r rationals, first the r degrees of the phi-row
slots, then the r degrees of the psi-row slots; every nonzero entry must be
weighted-homogeneous with

    deg phi[i][j] = 1 + S[i] - S[r+j],
    deg psi[i][j] = 1 + S[r+i] - S[j],

in the normalized scale where deg f = 2.

Besides the container this module has the degree-shift tau, the odd shift T
(and the Serre twist built from both), mapping cones on explicit cocycle
witnesses, direct sums, unit-entry reduction, the grading solver, and the
JSON form used by the command line.  T applied twice keeps the blocks and
adds 2 to every slot, so T^2 = tau^h and the inverses T^-1 = tau^-h T and
S^-1 = tau^{1-h} T need no code of their own.  Cones and direct sums are
2x2 block stacks of blocks already validated by GradedMF and Morphism.
"""

import math
from fractions import Fraction

from mfcat.gring import (
    Poly,
    PolyError,
    WeightSystem,
    frac_str,
    integer_degree,
    parse_poly,
    poly_to_str,
)


# ---------------------------------------------------------------------------
# polynomial matrices (tuples of tuples of Poly)
# ---------------------------------------------------------------------------


def mat_freeze(rows):
    return tuple(tuple(row) for row in rows)


def _poly_block(rows):
    """mat_freeze(rows); PolyError unless it is a matrix of Poly entries."""
    try:
        m = mat_freeze(rows)
    except TypeError as exc:
        raise PolyError("malformed block: %s" % exc) from None
    for row in m:
        for e in row:
            if not isinstance(e, Poly):
                raise PolyError("block entries must be Poly, got %s"
                                % type(e).__name__)
    return m


def mat_identity(n):
    one = Poly.const(1)
    zero = Poly()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_zero(nrows, ncols):
    zero = Poly()
    return tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows))


def mat_mul(A, B):
    if A and len(A[0]) != len(B):
        raise PolyError("mat_mul of %dx%d by %dx%d matrices"
                        % (len(A), len(A[0]), len(B), len(B[0]) if B else 0))
    ncols = len(B[0]) if B else 0
    out = []
    for row in A:
        # only the nonzero entries of the row meet B; each sum starts from
        # its first product, so the terms arrive in the same order as a
        # dense accumulation from Poly() would give them
        pairs = [(B[k], a) for k, a in enumerate(row) if a.terms]
        out_row = []
        for j in range(ncols):
            s = None
            for brow, a in pairs:
                b = brow[j]
                if b.terms:
                    s = a * b if s is None else s + a * b
            out_row.append(Poly() if s is None else s)
        out.append(tuple(out_row))
    return tuple(out)


def mat_neg(A):
    return tuple(tuple(-a for a in row) for row in A)


def mat_is_zero(A):
    return all(not a for row in A for a in row)


def _stack(tl, tr, bl, br):
    """The 2x2 block matrix [[tl, tr], [bl, br]] of shape-matched blocks."""
    return (tuple(a + b for a, b in zip(tl, tr))
            + tuple(a + b for a, b in zip(bl, br)))


# ---------------------------------------------------------------------------
# the graded MF container
# ---------------------------------------------------------------------------


class GradedMF:
    """A graded matrix factorization (f, W, phi, psi, S).

    S has length 2r; entries are Fractions in the deg-f = 2 scale.  The
    label is a free-form display tag carried through JSON export.

    ``_block_memo`` holds results that depend only on the blocks (filled by
    homcat); tau hands it on to the twisted object, every other constructor
    starts a fresh one.  Equality, hashing and JSON ignore it.
    """

    __slots__ = ("f", "W", "phi", "psi", "S", "label", "_block_memo",
                 "_h_degrees")

    def __init__(self, f, W, phi, psi, S, label=""):
        _expect(Poly, f)
        _expect(WeightSystem, W)
        self.f = f
        self.W = W
        self.phi = _poly_block(phi)
        self.psi = _poly_block(psi)
        try:
            self.S = tuple(s if type(s) is Fraction else Fraction(s) for s in S)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PolyError("malformed degrees: %s" % exc) from None
        self.label = label
        self._block_memo = {}
        self._h_degrees = None
        r = self.r
        if any(len(row) != r for row in self.phi):
            raise PolyError("phi must be square")
        if len(self.psi) != r or any(len(row) != r for row in self.psi):
            raise PolyError("psi must match phi's size")
        if len(self.S) != 2 * r:
            raise PolyError("S must list 2r degrees")

    @property
    def r(self):
        return len(self.phi)

    @property
    def s_row(self):
        return self.S[: self.r]

    @property
    def sbar_row(self):
        return self.S[self.r :]

    def h_degrees(self):
        """(D, degrees): S on the h*D scale as ints, computed once.

        D is the least positive integer making every h*D*S[i] integral; it is
        1 unless some slot sits off the (1/h)Z lattice.
        """
        if self._h_degrees is None:
            h = self.W.h
            D = 1
            for s in self.S:
                D = math.lcm(D, s.denominator // math.gcd(s.denominator, h))
            self._h_degrees = D, tuple(s.numerator * h * D // s.denominator
                                       for s in self.S)
        return self._h_degrees

    def h_slots(self, D):
        """The two halves of S on the h*D scale; D is a multiple of the D
        of :meth:`h_degrees`."""
        own, degrees = self.h_degrees()
        if own != D:
            degrees = [s * (D // own) for s in degrees]
        return degrees[:self.r], degrees[self.r:]

    def __eq__(self, other):
        if not isinstance(other, GradedMF):
            return NotImplemented
        return (
            self.f == other.f
            and self.W == other.W
            and self.phi == other.phi
            and self.psi == other.psi
            and self.S == other.S
        )

    def __hash__(self):
        return hash((self.f, self.W, self.phi, self.psi, self.S))

    def __repr__(self):
        tag = self.label or "r=%d" % self.r
        return "GradedMF(%s)" % tag


def _expect(cls, *args):
    """PolyError unless every argument is a ``cls``."""
    for x in args:
        if not isinstance(x, cls):
            raise PolyError("expected a %s, got %s"
                            % (cls.__name__, type(x).__name__))


def verify_mf(g):
    """Check phi*psi = psi*phi = f*1; returns a list of violation strings."""
    _expect(GradedMF, g)
    out = []
    r = g.r
    for name, prod in (
        ("phi*psi", mat_mul(g.phi, g.psi)),
        ("psi*phi", mat_mul(g.psi, g.phi)),
    ):
        for i in range(r):
            for j in range(r):
                want = g.f if i == j else Poly()
                if prod[i][j] != want:
                    out.append(
                        "%s[%d][%d] = %s, expected %s"
                        % (name, i, j, poly_to_str(prod[i][j]), poly_to_str(want))
                    )
    return out


def _degree_misses(W, mat, rows, cols, shift, D):
    """Yield (i, j, p, deg) for each nonzero entry p of mat whose integer
    degree misses rows[i] - cols[j] + shift on the h*D scale.

    deg is p's normalized degree, or None when p is not homogeneous.
    """
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            if p:
                d = integer_degree(p, W)
                if d is None or 2 * D * d != rows[i] - cols[j] + shift:
                    yield i, j, p, (d if d is None else W.normalize(d))


def verify_grading(g):
    """Check entrywise homogeneity against S; returns violation strings.

    Degrees are compared as ints on the h*D scale of :meth:`GradedMF.h_slots`.
    """
    _expect(GradedMF, g)
    out = []
    if g.f and integer_degree(g.f, g.W) != g.W.h:
        out.append("f is not homogeneous of degree 2")
    D = g.h_degrees()[0]
    s, sbar = g.h_slots(D)
    r = g.r
    for mat, mname, rows, cols, i0, j0 in ((g.phi, "phi", s, sbar, 0, r),
                                           (g.psi, "psi", sbar, s, r, 0)):
        for i, j, p, d in _degree_misses(g.W, mat, rows, cols, g.W.h * D, D):
            if d is None:
                out.append("%s[%d][%d] = %s is not homogeneous"
                           % (mname, i, j, poly_to_str(p)))
            else:
                out.append("%s[%d][%d] has degree %s, grading demands %s"
                           % (mname, i, j, d, 1 + g.S[i0 + i] - g.S[j0 + j]))
    return out


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


def tau(g, n=1, label=""):
    """Degree shift: adds 2n/h to every slot degree.

    The blocks are g's own, so the result shares g's block memo.
    """
    _expect(GradedMF, g)
    if not isinstance(n, int):
        raise PolyError("tau needs an int twist, got %r" % (n,))
    step = Fraction(2 * n, g.W.h)
    out = GradedMF(g.f, g.W, g.phi, g.psi, [s + step for s in g.S], label)
    out._block_memo = g._block_memo
    return out


def shift_T(g):
    """Odd shift: swaps the blocks with a sign and the S halves with +1."""
    _expect(GradedMF, g)
    S = [s + 1 for s in g.sbar_row] + [s + 1 for s in g.s_row]
    return GradedMF(g.f, g.W, mat_neg(g.psi), mat_neg(g.phi), S)


def serre(g):
    """The Serre twist T tau^{-1}."""
    return tau(shift_T(g), -1)


def serre_inverse(g):
    """The inverse Serre twist tau^{1-h} T."""
    return tau(shift_T(g), 1 - g.W.h)


# ---------------------------------------------------------------------------
# morphisms and cones
# ---------------------------------------------------------------------------


class Morphism:
    """A closed even morphism between graded MFs, as the block pair.

    phi0 maps the source phi-row slots to the target's (r_dst x r_src);
    phi1 the psi-row slots.  Closedness is the cocycle condition checked by
    verify_morphism.
    """

    __slots__ = ("src", "dst", "phi0", "phi1")

    def __init__(self, src, dst, phi0, phi1):
        _expect(GradedMF, src, dst)
        if src.W != dst.W:
            raise PolyError("morphism between different weight systems")
        self.src = src
        self.dst = dst
        self.phi0 = _poly_block(phi0)
        self.phi1 = _poly_block(phi1)
        if len(self.phi0) != dst.r or (dst.r and len(self.phi0[0]) != src.r):
            raise PolyError("phi0 must be r_dst x r_src")
        if len(self.phi1) != dst.r or (dst.r and len(self.phi1[0]) != src.r):
            raise PolyError("phi1 must be r_dst x r_src")

    def is_zero(self):
        return mat_is_zero(self.phi0) and mat_is_zero(self.phi1)

    def __repr__(self):
        return "Morphism(%r -> %r)" % (self.src, self.dst)


def verify_morphism(m):
    """Grading + cocycle check for a Morphism; list of violations."""
    _expect(Morphism, m)
    out = []
    src, dst = m.src, m.dst
    D = math.lcm(src.h_degrees()[0], dst.h_degrees()[0])
    sslots, dslots = src.h_slots(D), dst.h_slots(D)
    for half, mat, name in ((0, m.phi0, "phi0"), (1, m.phi1, "phi1")):
        for i, j, _, d in _degree_misses(src.W, mat, dslots[half],
                                         sslots[half], 0, D):
            want = dst.S[half * dst.r + i] - src.S[half * src.r + j]
            out.append("%s[%d][%d] degree %s, expected %s"
                       % (name, i, j, d, want))
    # Poly is canonical (no zero coefficients), so equal products are
    # exactly a vanishing difference
    if mat_mul(dst.phi, m.phi1) != mat_mul(m.phi0, src.phi):
        out.append("cocycle fails: phi' phi1 != phi0 phi")
    if mat_mul(dst.psi, m.phi0) != mat_mul(m.phi1, src.psi):
        out.append("cocycle fails: psi' phi0 != phi1 psi")
    return out


def cone(m):
    """Mapping cone of a closed morphism; fits X -> Y -> cone -> TX."""
    _expect(Morphism, m)
    X, Y = m.src, m.dst
    gap = mat_zero(X.r, Y.r)
    phi_c = _stack(mat_neg(X.psi), gap, m.phi0, Y.phi)
    psi_c = _stack(mat_neg(X.phi), gap, m.phi1, Y.psi)
    S = (
        [s + 1 for s in X.sbar_row]
        + list(Y.s_row)
        + [s + 1 for s in X.s_row]
        + list(Y.sbar_row)
    )
    return GradedMF(X.f, X.W, phi_c, psi_c, S)


def _restrict(g, phi, psi, rows, cols, label=""):
    """The object on g's slots: phi rows ``rows``, phi columns ``cols``.

    rows index phi's rows and psi's columns, cols phi's columns and psi's
    rows, in the order given; each slot keeps its degree from g.S.
    """
    return GradedMF(g.f, g.W, [[phi[a][b] for b in cols] for a in rows],
                    [[psi[b][a] for a in rows] for b in cols],
                    [g.S[a] for a in rows] + [g.S[g.r + b] for b in cols],
                    label=label)


def direct_sum(a, b):
    _expect(GradedMF, a, b)
    if a.f != b.f or a.W != b.W:
        raise PolyError("direct sum needs matching potential and weights")
    ab, ba = mat_zero(a.r, b.r), mat_zero(b.r, a.r)
    phi = _stack(a.phi, ab, ba, b.phi)
    psi = _stack(a.psi, ab, ba, b.psi)
    S = list(a.s_row) + list(b.s_row) + list(a.sbar_row) + list(b.sbar_row)
    return GradedMF(a.f, a.W, phi, psi, S)


def _block_components(g):
    """The block-diagonal pieces of g, inverting direct_sum.

    Phi-row slot i and psi-row slot j are linked when phi[i][j] or
    psi[j][i] is nonzero.  Each connected piece keeps its slots in g's
    order, so a piece of a direct sum equals its summand by value; pieces
    come ordered by their smallest slot, and a connected g comes back as
    [g].  ArithmeticError when a piece has unequal halves: phi psi = f*1
    holds piece by piece, so g is then not a factorization.
    """
    r = g.r
    parent = list(range(2 * r))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(r):
        for j in range(r):
            if g.phi[i][j].terms or g.psi[j][i].terms:
                a, b = root(i), root(r + j)
                parent[max(a, b)] = min(a, b)
    pieces = {}
    for v in range(2 * r):
        pieces.setdefault(root(v), []).append(v)
    if len(pieces) <= 1:
        return [g]
    out = []
    for slots in pieces.values():
        rows = [v for v in slots if v < r]
        cols = [v - r for v in slots if v >= r]
        if len(rows) != len(cols):
            raise ArithmeticError("a block piece has %d phi rows and %d "
                                  "columns: not a factorization"
                                  % (len(rows), len(cols)))
        out.append(_restrict(g, g.phi, g.psi, rows, cols))
    return out


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _unit_of(p):
    """The coefficient when p is a nonzero constant, else None."""
    if len(p.terms) == 1 and (0, 0, 0) in p.terms:
        return p.terms[(0, 0, 0)]
    return None


def _eliminate(A, B, rows, cols, i, j, u):
    """Split off the unit pivot A[i][j]: drop its row and column, in place.

    rows and cols are A's live row and column indices (B's live columns and
    rows).  What survives of A is the Schur complement D - b u^-1 a of its
    live block D, with a row i and b column j beside the pivot.  B's live
    block d stays: AB = BA = f*1 forces B's row j beside the pivot to be
    -u^-1 a d and its column i to be -d b u^-1, which holds exactly when
    row i of AB and column j of BA vanish beside the pivot; ArithmeticError
    otherwise.  The pivot then leaves the live lists.
    """
    Ai = A[i]
    ab_row = (sum((Ai[k] * B[k][m] for k in cols if Ai[k]), Poly())
              for m in rows if m != i)
    ba_col = (sum((B[k][m] * A[m][j] for m in rows if A[m][j]), Poly())
              for k in cols if k != j)
    if any(ab_row) or any(ba_col):
        raise ArithmeticError("unit elimination left a nonzero entry "
                              "beside the pivot")
    uinv = u.inv()
    for k in cols:
        c = Ai[k]
        if k == j or not c:
            continue
        t = c * uinv
        for m in rows:
            a = A[m][j]
            if m != i and a:
                A[m][k] = A[m][k] - t * a
    rows.remove(i)
    cols.remove(j)


def reduce(g):
    """Strip trivial (unit-pivot) summands; homotopy-equivalent result.

    Scans the live entries row-major for the first unit, in phi then psi,
    and repeats until neither block contains a constant.  The pivots'
    rows and columns are dropped once, at the end.  The zero object comes
    back with r = 0.
    """
    _expect(GradedMF, g)
    phi = [list(row) for row in g.phi]
    psi = [list(row) for row in g.psi]
    live0 = list(range(g.r))  # phi rows = psi columns
    live1 = list(range(g.r))  # phi columns = psi rows
    blocks = ((phi, psi, live0, live1), (psi, phi, live1, live0))
    while True:
        pivot = next(((A, B, rows, cols, i, j, u)
                      for A, B, rows, cols in blocks
                      for i in rows for j in cols
                      if (u := _unit_of(A[i][j])) is not None), None)
        if pivot is None:
            break
        _eliminate(*pivot)
    return _restrict(g, phi, psi, live0, live1, g.label)


# ---------------------------------------------------------------------------
# grading solver
# ---------------------------------------------------------------------------


def solve_grading(W, phi, psi, total):
    """The grading S of the blocks (phi, psi) whose degrees sum to total.

    Every nonzero entry must be homogeneous, and its degree fixes the
    difference of two slot degrees; the differences are solved as ints on
    the h scale.  None when an entry is not homogeneous, when two paths of
    the constraint graph demand different differences, or when the graph is
    not connected and so leaves S free; empty blocks give None as well.
    PolyError unless W is a WeightSystem, phi and psi are square Poly
    blocks of one size and total is an int or a Fraction.
    """
    _expect(WeightSystem, W)
    phi, psi = _poly_block(phi), _poly_block(psi)
    if not isinstance(total, (int, Fraction)):
        raise PolyError("grading total must be an int or a Fraction, got %r"
                        % (total,))
    r = len(phi)
    if len(psi) != r or any(len(row) != r for row in phi + psi):
        raise PolyError("phi and psi must be square blocks of one size")
    if not r:
        return None
    adj = [[] for _ in range(2 * r)]
    for blk, a, b in ((phi, 0, r), (psi, r, 0)):
        for i, row in enumerate(blk):
            for j, p in enumerate(row):
                if p:
                    d = integer_degree(p, W)
                    if d is None:
                        return None
                    # S[a+i] - S[b+j] = 2d - h on the h scale
                    adj[a + i].append((b + j, 2 * d - W.h))
                    adj[b + j].append((a + i, W.h - 2 * d))
    slots = [0] + [None] * (2 * r - 1)
    stack = [0]
    while stack:
        v = stack.pop()
        for w, diff in adj[v]:
            want = slots[v] - diff
            if slots[w] is None:
                slots[w] = want
                stack.append(w)
            elif slots[w] != want:
                return None
    if None in slots:
        return None
    t = (Fraction(total) * W.h - sum(slots)) / (2 * r)
    return [(s + t) / W.h for s in slots]


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def mf_to_json(g):
    """Plain-dict form: expression strings for entries, 'p/q' for degrees."""
    _expect(GradedMF, g)
    return {
        "type": g.label or "mf",
        "f": poly_to_str(g.f),
        "W": [g.W.a, g.W.b, g.W.c, g.W.h],
        "size": g.r,
        "phi": [[poly_to_str(p) for p in row] for row in g.phi],
        "psi": [[poly_to_str(p) for p in row] for row in g.psi],
        "S": [frac_str(s) for s in g.S],
    }


def mf_from_json(d):
    """Load the plain-dict form, re-verifying phi*psi = psi*phi = f*1 and
    the grading; raises PolyError on any malformed or violating payload."""
    try:
        W = WeightSystem(*d["W"])
        f = parse_poly(d["f"])
        r = d["size"]
        phi = [[parse_poly(e) for e in row] for row in d["phi"]]
        psi = [[parse_poly(e) for e in row] for row in d["psi"]]
        S = [Fraction(s) for s in d["S"]]
        label = d.get("type", "")
        g = GradedMF(f, W, phi, psi, S, label=label)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise PolyError("malformed graded MF object: %s" % exc)
    if g.r != r:
        raise PolyError("size field disagrees with phi")
    bad = verify_mf(g) + verify_grading(g)
    if bad:
        raise PolyError("graded MF object violates its contract: %s" % bad[0])
    return g
