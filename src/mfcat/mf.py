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
JSON form used by the command line.
"""

import math
from fractions import Fraction

from mfcat.gring import (
    Poly,
    PolyError,
    WeightSystem,
    parse_poly,
    poly_to_str,
    weighted_degree,
)


# ---------------------------------------------------------------------------
# polynomial matrices (tuples of tuples of Poly)
# ---------------------------------------------------------------------------


def mat_freeze(rows):
    return tuple(tuple(row) for row in rows)


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


def mat_block(blocks):
    """Assemble a block matrix from a 2D list of matrices (None = zero)."""
    row_sizes = []
    col_sizes = []
    for bi, brow in enumerate(blocks):
        for bj, blk in enumerate(brow):
            if blk is None:
                continue
            n, m = len(blk), len(blk[0]) if blk else 0
            if len(row_sizes) <= bi:
                row_sizes.extend([None] * (bi + 1 - len(row_sizes)))
            if len(col_sizes) <= bj:
                col_sizes.extend([None] * (bj + 1 - len(col_sizes)))
            if row_sizes[bi] is None:
                row_sizes[bi] = n
            if row_sizes[bi] != n:
                raise PolyError("mat_block row %d mixes heights %d and %d"
                                % (bi, row_sizes[bi], n))
            if col_sizes[bj] is None:
                col_sizes[bj] = m
            if col_sizes[bj] != m:
                raise PolyError("mat_block column %d mixes widths %d and %d"
                                % (bj, col_sizes[bj], m))
    if len(row_sizes) != len(blocks) or None in row_sizes or None in col_sizes:
        raise PolyError("mat_block has a block row or column of Nones only")
    out = []
    for bi, brow in enumerate(blocks):
        rows = [[] for _ in range(row_sizes[bi])]
        for bj, blk in enumerate(brow):
            if blk is None:
                blk = mat_zero(row_sizes[bi], col_sizes[bj])
            for i in range(row_sizes[bi]):
                rows[i].extend(blk[i])
        out.extend(tuple(r) for r in rows)
    return tuple(out)


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
        self.f = f
        self.W = W
        self.phi = mat_freeze(phi)
        self.psi = mat_freeze(psi)
        self.S = tuple(Fraction(s) for s in S)
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


def verify_grading(g):
    """Check entrywise homogeneity against S; returns violation strings."""
    out = []
    if g.f and weighted_degree(g.f, g.W) != 2:
        out.append("f is not homogeneous of degree 2")
    r = g.r
    for mat, mname in ((g.phi, "phi"), (g.psi, "psi")):
        for i in range(r):
            for j in range(r):
                p = mat[i][j]
                if not p:
                    continue
                if mname == "phi":
                    want = 1 + g.S[i] - g.S[r + j]
                else:
                    want = 1 + g.S[r + i] - g.S[j]
                d = weighted_degree(p, g.W)
                if d is None:
                    out.append(
                        "%s[%d][%d] = %s is not homogeneous"
                        % (mname, i, j, poly_to_str(p))
                    )
                elif d != want:
                    out.append(
                        "%s[%d][%d] has degree %s, grading demands %s"
                        % (mname, i, j, d, want)
                    )
    return out


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


def tau(g, n=1, label=""):
    """Degree shift: adds 2n/h to every slot degree.

    The blocks are g's own, so the result shares g's block memo.
    """
    if not isinstance(n, int):
        raise PolyError("tau needs an int twist, got %r" % (n,))
    step = Fraction(2 * n, g.W.h)
    out = GradedMF(g.f, g.W, g.phi, g.psi, [s + step for s in g.S], label)
    out._block_memo = g._block_memo
    return out


def shift_T(g):
    """Odd shift: swaps the blocks with a sign and the S halves with +1."""
    S = [s + 1 for s in g.sbar_row] + [s + 1 for s in g.s_row]
    return GradedMF(g.f, g.W, mat_neg(g.psi), mat_neg(g.phi), S)


def shift_T_inverse(g):
    S = [s - 1 for s in g.sbar_row] + [s - 1 for s in g.s_row]
    return GradedMF(g.f, g.W, mat_neg(g.psi), mat_neg(g.phi), S)


def serre(g):
    """The Serre twist T tau^{-1}."""
    return tau(shift_T(g), -1)


def serre_inverse(g):
    return tau(shift_T_inverse(g), 1)


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
        self.src = src
        self.dst = dst
        self.phi0 = mat_freeze(phi0)
        self.phi1 = mat_freeze(phi1)
        if len(self.phi0) != dst.r or (dst.r and len(self.phi0[0]) != src.r):
            raise PolyError("phi0 must be r_dst x r_src")
        if len(self.phi1) != dst.r or (dst.r and len(self.phi1[0]) != src.r):
            raise PolyError("phi1 must be r_dst x r_src")

    def is_zero(self):
        return mat_is_zero(self.phi0) and mat_is_zero(self.phi1)

    def __repr__(self):
        return "Morphism(%r -> %r)" % (self.src, self.dst)


def identity_morphism(g):
    return Morphism(g, g, mat_identity(g.r), mat_identity(g.r))


def verify_morphism(m):
    """Grading + cocycle check for a Morphism; list of violations."""
    out = []
    src, dst = m.src, m.dst
    for mat, srow, drow, name in (
        (m.phi0, src.s_row, dst.s_row, "phi0"),
        (m.phi1, src.sbar_row, dst.sbar_row, "phi1"),
    ):
        for i in range(dst.r):
            for j in range(src.r):
                p = mat[i][j]
                if not p:
                    continue
                d = weighted_degree(p, src.W)
                want = drow[i] - srow[j]
                if d is None or d != want:
                    out.append(
                        "%s[%d][%d] degree %s, expected %s" % (name, i, j, d, want)
                    )
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
    phi_c = mat_block(
        [
            [mat_neg(X.psi), None],
            [m.phi0, Y.phi],
        ]
    )
    psi_c = mat_block(
        [
            [mat_neg(X.phi), None],
            [m.phi1, Y.psi],
        ]
    )
    S = (
        [s + 1 for s in X.sbar_row]
        + list(Y.s_row)
        + [s + 1 for s in X.s_row]
        + list(Y.sbar_row)
    )
    return GradedMF(X.f, X.W, phi_c, psi_c, S)


def direct_sum(a, b):
    _expect(GradedMF, a, b)
    if a.f != b.f or a.W != b.W:
        raise PolyError("direct sum needs matching potential and weights")
    phi = mat_block([[a.phi, None], [None, b.phi]])
    psi = mat_block([[a.psi, None], [None, b.psi]])
    S = list(a.s_row) + list(b.s_row) + list(a.sbar_row) + list(b.sbar_row)
    return GradedMF(a.f, a.W, phi, psi, S)


def permute_slots(g, perm0, perm1):
    """Relabel slots: perm0 on the phi-row half, perm1 on the psi-row half.

    new_phi[i][j] = phi[perm0[i]][perm1[j]]; an isomorphism of graded MFs.
    """
    r = g.r
    phi = [[g.phi[perm0[i]][perm1[j]] for j in range(r)] for i in range(r)]
    psi = [[g.psi[perm1[i]][perm0[j]] for j in range(r)] for i in range(r)]
    S = [g.S[perm0[i]] for i in range(r)] + [g.S[r + perm1[i]] for i in range(r)]
    return GradedMF(g.f, g.W, phi, psi, S)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _unit_of(p):
    """The coefficient when p is a nonzero constant, else None."""
    if len(p.terms) == 1 and (0, 0, 0) in p.terms:
        return p.terms[(0, 0, 0)]
    return None


def _find_unit(mat):
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            u = _unit_of(p)
            if u is not None:
                return i, j, u
    return None


def _eliminate(phi, psi, i, j, u):
    """Split off the unit pivot phi[i][j]; returns the smaller (phi, psi).

    Row/column operations on phi are mirrored inversely on psi so both
    products are preserved; the complementary psi row/column vanish
    automatically because psi*phi and phi*psi stay scalar.
    """
    phi = [list(row) for row in phi]
    psi = [list(row) for row in psi]
    r = len(phi)
    uinv = u.inv()
    for k in range(r):
        if k == j:
            continue
        c = phi[i][k]
        if not c:
            continue
        t = c * uinv
        for m in range(r):
            phi[m][k] = phi[m][k] - t * phi[m][j]
        for m in range(r):
            psi[j][m] = psi[j][m] + t * psi[k][m]
    for k in range(r):
        if k == i:
            continue
        c = phi[k][j]
        if not c:
            continue
        t = c * uinv
        for m in range(r):
            phi[k][m] = phi[k][m] - t * phi[i][m]
        for m in range(r):
            psi[m][i] = psi[m][i] + t * psi[m][k]
    for k in range(r):
        if ((phi[i][k] and k != j) or (phi[k][j] and k != i)
                or (psi[j][k] and k != i) or (psi[k][i] and k != j)):
            raise ArithmeticError("unit elimination left a nonzero entry "
                                  "beside the pivot")
    new_phi = [
        [phi[a][b] for b in range(r) if b != j] for a in range(r) if a != i
    ]
    # psi is indexed oppositely (its rows pair with phi's columns), so the
    # complementary deletion is row j, column i.
    new_psi = [
        [psi[a][b] for b in range(r) if b != i] for a in range(r) if a != j
    ]
    return new_phi, new_psi


def reduce(g):
    """Strip trivial (unit-pivot) summands; homotopy-equivalent result.

    Scans row-major for the first unit entry, in phi then psi, and repeats
    until neither block contains a constant.  The zero object comes back
    with r = 0.
    """
    _expect(GradedMF, g)
    phi, psi = g.phi, g.psi
    s_row, sbar_row = list(g.s_row), list(g.sbar_row)
    while True:
        hit = _find_unit(phi)
        if hit is not None:
            i, j, u = hit
            phi, psi = _eliminate(phi, psi, i, j, u)
            del s_row[i]
            del sbar_row[j]
            continue
        hit = _find_unit(psi)
        if hit is not None:
            i, j, u = hit
            psi, phi = _eliminate(psi, phi, i, j, u)
            del sbar_row[i]
            del s_row[j]
            continue
        break
    return GradedMF(g.f, g.W, phi, psi, s_row + sbar_row, label=g.label)


# ---------------------------------------------------------------------------
# grading solver
# ---------------------------------------------------------------------------


class GradingFamily:
    """All S vectors for fixed blocks: particular + one offset per component.

    ``particular`` pins each connected component's first-reached slot to 0;
    ``components`` lists the slot indices (into S) of each component.
    """

    __slots__ = ("particular", "components")

    def __init__(self, particular, components):
        self.particular = particular
        self.components = components

    def pin_by_sum(self, target_sum):
        """The unique member whose degrees sum to target_sum, if the family
        is connected; None otherwise."""
        if len(self.components) != 1:
            return None
        n = len(self.particular)
        t = (Fraction(target_sum) - sum(self.particular)) / n
        return [s + t for s in self.particular]


def solve_grading(W, phi, psi):
    """Solve the entrywise degree contract for S; None when unsatisfiable.

    Nonzero entries must be homogeneous; each gives a difference equation
    between two slot degrees.  The solution set is an affine family with one
    free offset per connected component of the constraint graph.
    """
    r = len(phi)
    n = 2 * r
    adj = [[] for _ in range(n)]

    def add_edge(hi, lo, diff):
        # S[hi] - S[lo] = diff
        adj[hi].append((lo, diff))
        adj[lo].append((hi, -diff))

    for i in range(r):
        for j in range(r):
            p = phi[i][j]
            if p:
                d = weighted_degree(p, W)
                if d is None:
                    return None
                add_edge(i, r + j, d - 1)
            p = psi[i][j]
            if p:
                d = weighted_degree(p, W)
                if d is None:
                    return None
                add_edge(r + i, j, d - 1)
    particular = [None] * n
    components = []
    for start in range(n):
        if particular[start] is not None:
            continue
        comp = []
        particular[start] = Fraction(0)
        stack = [start]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w, diff in adj[v]:
                want = particular[v] - diff
                if particular[w] is None:
                    particular[w] = want
                    stack.append(w)
                elif particular[w] != want:
                    return None
        components.append(sorted(comp))
    return GradingFamily(particular, components)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def _frac_str(fr):
    return "%d/%d" % (fr.numerator, fr.denominator) if fr.denominator != 1 else str(
        fr.numerator
    )


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
        "S": [_frac_str(s) for s in g.S],
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
