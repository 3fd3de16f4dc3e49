"""Independent oracles that pin expected values for the test suite.

Everything here is deliberately redundant with the package: diagrams,
Coxeter numbers, and the vertex involution are restated locally; the
Hom-degree grids are regenerated from the reflection recursion over that
local edge list, and also stored outright (the A closed form, the D run
rules and the E6/E7/E8 tables), where the package derives them; the
paper's q table of slot offsets is stored here too, where the package
solves each grading from its blocks and phase; and the
brute-force morphism counter assembles and solves its linear systems
densely with sympy (its own pivoting) instead of the package kernel, as
does the trace-form indecomposability test.  The unit-entry reduction
keeps its first form, which copies and rebuilds both blocks at every
pivot, and the retraction test keeps its
End-coordinate form, an exact solve in End(M) per witness pair.  Cones and
direct sums keep their general N x M block assembler, T^-1 and S^-1 their
own slot arithmetic, and HN partial sums are re-summed from every factor
below.  Hom dimensions keep their memo-free form, both row families of
every system assembled and ranked in full, and Serre images their
catalog search on the explicit image.  Cocycle equations keep their keyed
assembly: a key per entry and monomial of E0, sorted, then transposed.
Tests compare package output
against these, never the other way around.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce as _freduce

import sympy

from mfcat import kernel
from mfcat.gring import PolyError, weighted_monomials
from mfcat.homcat import _System, compose, hom_space, identify_object, t_image
from mfcat.mf import (
    GradedMF,
    Morphism,
    _expect,
    mat_neg,
    mat_zero,
    serre,
    tau,
)
from mfcat.stability import _block_map


# ---------------------------------------------------------------------------
# diagrams, Coxeter numbers, vertex involution (restated locally)
# ---------------------------------------------------------------------------


def edges(letter, l):
    if letter == "A":
        return tuple((i, i + 1) for i in range(1, l))
    if letter == "D":
        return tuple((i, i + 1) for i in range(1, l - 2)) + (
            (l - 2, l - 1),
            (l - 2, l),
        )
    return {
        6: ((1, 2), (2, 3), (2, 4), (3, 5), (4, 6)),
        7: ((1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7)),
        8: ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (7, 8)),
    }[l]


def coxeter(letter, l):
    if letter == "A":
        return l + 1
    if letter == "D":
        return 2 * l - 2
    return {6: 12, 7: 18, 8: 30}[l]


def adjacency(letter, l):
    adj = {k: [] for k in range(1, l + 1)}
    for u, v in edges(letter, l):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def involution(letter, l, k):
    """The vertex carrying the dual orbit (matches the grid palindromes)."""
    if letter == "A":
        return l + 1 - k
    if letter == "D":
        if l % 2 and k >= l - 1:
            return 2 * l - 1 - k
        return k
    if l == 6:
        return {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}[k]
    return k


# ---------------------------------------------------------------------------
# reflection recursion: regenerate a full grid from delta seeds
# ---------------------------------------------------------------------------


def knit_grid(letter, l):
    """Full grid {(k, k'): ((c, mult), ...)} from the recursion alone.

    Seed m_k(0) = delta(k, k'); evolve m_k(v + 1) = sum over neighbours
    of m(v) minus m_k(v - 1) up to v = h - 2.  Every level must stay
    nonnegative and the level after h - 2 must vanish identically, or
    the recursion (hence the seed data) is inconsistent.
    """
    h = coxeter(letter, l)
    adj = adjacency(letter, l)
    verts = range(1, l + 1)
    grid = {}
    for seed in verts:
        prev = {k: 0 for k in verts}
        cur = {k: int(k == seed) for k in verts}
        hist = {k: Counter({0: 1} if k == seed else {}) for k in verts}
        for v in range(1, h):
            nxt = {}
            for k in verts:
                m = sum(cur[i] for i in adj[k]) - prev[k]
                if m < 0:
                    raise AssertionError(
                        "negative multiplicity at %s%d k=%d v=%d" % (letter, l, k, v)
                    )
                nxt[k] = m
            if v <= h - 2:
                for k in verts:
                    if nxt[k]:
                        hist[k][v] += nxt[k]
            else:
                if any(nxt.values()):
                    raise AssertionError(
                        "recursion does not terminate at %s%d seed=%d" % (letter, l, seed)
                    )
            prev, cur = cur, nxt
        for k in verts:
            grid[(seed, k)] = tuple(sorted(hist[k].items()))
    return grid


def mesh_violations(grid, letter, l):
    """Check the cone identity on a finished grid; return violation strings.

    For every pair (k', k): the union of c(k', k_i) over neighbours k_i
    of k must equal {c - 1 : c != 0} + {c + 1 : drop c = h - 2 when k is
    the dual vertex of k'} taken over c(k', k).
    """
    h = coxeter(letter, l)
    adj = adjacency(letter, l)
    bad = []
    for kp in range(1, l + 1):
        dual = involution(letter, l, kp)
        for k in range(1, l + 1):
            left = Counter()
            for ki in adj[k]:
                for c, m in grid[(kp, ki)]:
                    left[c] += m
            right = Counter()
            for c, m in grid[(kp, k)]:
                if c != 0:
                    right[c - 1] += m
                if not (c == h - 2 and k == dual):
                    right[c + 1] += m
            if left != right:
                bad.append("%s%d mesh fails at (k'=%d, k=%d)" % (letter, l, kp, k))
    return bad


# ---------------------------------------------------------------------------
# stored Hom-degree grids: the A closed form, the D run rules, E tables
# ---------------------------------------------------------------------------


def _ms(text):
    """Parse "1 3^2 5" into ((1, 1), (3, 2), (5, 1))."""
    out = []
    for tok in text.split():
        if "^" in tok:
            c, m = tok.split("^")
            out.append((int(c), int(m)))
        else:
            out.append((int(tok), 1))
    return tuple(out)


def _run(lo, hi, step=2):
    """Multiset {lo, lo+step, ..., hi}, each with multiplicity one."""
    return Counter(range(lo, hi + 1, step))


def _pairs(counter):
    return tuple(sorted(counter.items()))


# ---------------------------------------------------------------------------
# A series: single arithmetic run
# ---------------------------------------------------------------------------


def a_multiset(l, k, kp):
    """c(k, k') for the path diagram on l vertices (independent of b)."""
    lo = abs(k - kp)
    hi = (l - 1) - abs(l + 1 - k - kp)
    return _pairs(_run(lo, hi))


# ---------------------------------------------------------------------------
# D series: run rules per row type (spine 1..l-2, leaves l-1 and l)
# ---------------------------------------------------------------------------


def d_multiset(l, k, kp):
    """c(k, k') for the D_l diagram; h - 2 = 2l - 4."""
    if k > kp:
        k, kp = kp, k
    if k == 1:
        if kp == 1:
            return ((0, 1), (2 * l - 4, 1))
        if kp <= l - 2:
            return _pairs(Counter((kp - 1, 2 * l - 3 - kp)))
        return ((l - 2, 1),)
    if kp <= l - 2:
        # both on the spine: two runs, overlapping values get multiplicity 2
        inner = _run(kp - k, k + kp - 2)
        outer = _run(2 * l - 2 - k - kp, 2 * l - 4 - (kp - k))
        return _pairs(inner + outer)
    if k <= l - 2:
        # spine vertex against either leaf: k terms
        return _pairs(_run(l - 1 - k, l - 3 + k))
    # leaf against leaf: step-4 runs whose reach depends on the parity of l
    same = k == kp
    if (l % 2 == 0) == same:
        return _pairs(_run(0 if same else 2, 2 * l - 4, 4))
    return _pairs(_run(0 if same else 2, 2 * l - 6, 4))


# ---------------------------------------------------------------------------
# E series: explicit upper-triangle tables (rows are symmetric in k, k')
# ---------------------------------------------------------------------------

_E6_GRID = {
    (1, 1): "0 4 6 10",
    (1, 2): "1 3 5^2 7 9",
    (1, 3): "2 4 6 8",
    (1, 4): "2 4 6 8",
    (1, 5): "3 7",
    (1, 6): "3 7",
    (2, 2): "0 2^2 4^3 6^3 8^2 10",
    (2, 3): "1 3^2 5^2 7^2 9",
    (2, 4): "1 3^2 5^2 7^2 9",
    (2, 5): "2 4 6 8",
    (2, 6): "2 4 6 8",
    (3, 3): "0 2 4 6^2 8",
    (3, 4): "2 4^2 6 8 10",
    (3, 5): "1 5 7",
    (3, 6): "3 5 9",
    (4, 4): "0 2 4 6^2 8",
    (4, 5): "3 5 9",
    (4, 6): "1 5 7",
    (5, 5): "0 6",
    (5, 6): "4 10",
    (6, 6): "0 6",
}

_E7_GRID = {
    (1, 1): "0 6 10 16",
    (1, 2): "1 5 7 9 11 15",
    (1, 3): "2 4 6 8^2 10 12 14",
    (1, 4): "3 7 9 13",
    (1, 5): "3 5 7 9 11 13",
    (1, 6): "4 6 10 12",
    (1, 7): "5 11",
    (2, 2): "0 2 4 6^2 8^2 10^2 12 14 16",
    (2, 3): "1 3^2 5^2 7^3 9^3 11^2 13^2 15",
    (2, 4): "2 4 6 8^2 10 12 14",
    (2, 5): "2 4^2 6^2 8^2 10^2 12^2 14",
    (2, 6): "3 5^2 7 9 11^2 13",
    (2, 7): "4 6 10 12",
    (3, 3): "0 2^2 4^3 6^4 8^4 10^4 12^3 14^2 16",
    (3, 4): "1 3 5^2 7^2 9^2 11^2 13 15",
    (3, 5): "1 3^2 5^3 7^3 9^3 11^3 13^2 15",
    (3, 6): "2 4^2 6^2 8^2 10^2 12^2 14",
    (3, 7): "3 5 7 9 11 13",
    (4, 4): "0 4 6 8 10 12 16",
    (4, 5): "2 4 6^2 8 10^2 12 14",
    (4, 6): "3 5 7 9 11 13",
    (4, 7): "4 8 12",
    (5, 5): "0 2 4^2 6^2 8^3 10^2 12^2 14 16",
    (5, 6): "1 3 5 7^2 9^2 11 13 15",
    (5, 7): "2 6 8 10 14",
    (6, 6): "0 2 6 8^2 10 14 16",
    (6, 7): "1 7 9 15",
    (7, 7): "0 8 16",
}

# Every E8 vertex is fixed by the involution, so each row must be
# palindromic under c -> 28 - c.  Two cells are stored in the repaired
# form this forces: (3, 4) carries 9^3 (pairing with 19^3) and (3, 5)
# carries 14^4 (the self-paired centre); the mesh recursion of the engine
# derives both, and test_tables pins them as the stored E8 cells.
_E8_GRID = {
    (1, 1): "0 10 18 28",
    (1, 2): "1 9 11 17 19 27",
    (1, 3): "2 8 10 12 16 18 20 26",
    (1, 4): "3 7 9 11 13 15 17 19 21 25",
    (1, 5): "4 6 8 10 12 14^2 16 18 20 22 24",
    (1, 6): "5 9 13 15 19 23",
    (1, 7): "5 7 11 13 15 17 21 23",
    (1, 8): "6 12 16 22",
    (2, 2): "0 2 8 10^2 12 16 18^2 20 26 28",
    (2, 3): "1 3 7 9^2 11^2 13 15 17^2 19^2 21 25 27",
    (2, 4): "2 4 6 8^2 10^2 12^2 14^2 16^2 18^2 20^2 22 24 26",
    (2, 5): "3 5^2 7^2 9^2 11^2 13^3 15^3 17^2 19^2 21^2 23^2 25",
    (2, 6): "4 6 8 10 12 14^2 16 18 20 22 24",
    (2, 7): "4 6^2 8 10 12^2 14^2 16^2 18 20 22^2 24",
    (2, 8): "5 7 11 13 15 17 21 23",
    (3, 3): "0 2 4 6 8^2 10^3 12^2 14^2 16^2 18^3 20^2 22 24 26 28",
    (3, 4): "1 3 5^2 7^2 9^3 11^3 13^3 15^3 17^3 19^3 21^2 23^2 25 27",
    (3, 5): "2 4^2 6^3 8^3 10^3 12^4 14^4 16^4 18^3 20^3 22^3 24^2 26",
    (3, 6): "3 5 7^2 9 11^2 13^2 15^2 17^2 19 21^2 23 25",
    (3, 7): "3 5^2 7^2 9^2 11^2 13^3 15^3 17^2 19^2 21^2 23^2 25",
    (3, 8): "4 6 8 10 12 14^2 16 18 20 22 24",
    (4, 4): "0 2 4^2 6^3 8^3 10^4 12^4 14^4 16^4 18^4 20^3 22^3 24^2 26 28",
    (4, 5): "1 3^2 5^3 7^4 9^4 11^5 13^5 15^5 17^5 19^4 21^4 23^3 25^2 27",
    (4, 6): "2 4 6^2 8^2 10^2 12^3 14^2 16^3 18^2 20^2 22^2 24 26",
    (4, 7): "2 4^2 6^2 8^3 10^3 12^3 14^4 16^3 18^3 20^3 22^2 24^2 26",
    (4, 8): "3 5 7 9^2 11 13^2 15^2 17 19^2 21 23 25",
    (5, 5): "0 2^2 4^3 6^4 8^5 10^6 12^6 14^6 16^6 18^6 20^5 22^4 24^3 26^2 28",
    (5, 6): "1 3 5^2 7^2 9^3 11^3 13^3 15^3 17^3 19^3 21^2 23^2 25 27",
    (5, 7): "1 3^2 5^2 7^3 9^4 11^4 13^4 15^4 17^4 19^4 21^3 23^2 25^2 27",
    (5, 8): "2 4 6 8^2 10^2 12^2 14^2 16^2 18^2 20^2 22 24 26",
    (6, 6): "0 4 6 8 10^2 12 14^2 16 18^2 20 22 24 28",
    (6, 7): "2 4 6 8^2 10^2 12^2 14^2 16^2 18^2 20^2 22 24 26",
    (6, 8): "3 7 9 11 13 15 17 19 21 25",
    (7, 7): "0 2 4 6^2 8^2 10^3 12^3 14^2 16^3 18^3 20^2 22^2 24 26 28",
    (7, 8): "1 5 7 9 11^2 13 15 17^2 19 21 23 27",
    (8, 8): "0 6 10 12 16 18 22 28",
}

_E_GRIDS = {6: _E6_GRID, 7: _E7_GRID, 8: _E8_GRID}


def e_multiset(l, k, kp):
    """c(k, k') for E6/E7/E8 from the stored tables."""
    if k > kp:
        k, kp = kp, k
    return _ms(_E_GRIDS[l][(k, kp)])


# ---------------------------------------------------------------------------
# stored slot data: the q multisets of Table-style slot degrees, from which
# the package solves each grading out of its blocks and phase
# ---------------------------------------------------------------------------

_E_QDATA = {
    6: {1: (1, 5), 2: (0, 2, 4), 3: (1, 3), 4: (1, 3), 5: (2,), 6: (2,)},
    7: {
        1: (2, 8),
        2: (1, 3, 7),
        3: (0, 2, 4, 6),
        4: (1, 5),
        5: (1, 3, 5),
        6: (2, 4),
        7: (3,),
    },
    8: {
        1: (4, 14),
        2: (3, 5, 13),
        3: (2, 4, 6, 12),
        4: (1, 3, 5, 7, 11),
        5: (0, 2, 4, 6, 8, 10),
        6: (1, 5, 9),
        7: (1, 3, 7, 9),
        8: (2, 8),
    },
}


def q_data(letter, l, b, h, k):
    """The (q_j; qbar_j) vectors in the deg-f = 2 scale (h: Coxeter number)."""
    if letter == "A":
        return [Fraction(b - k, h)], [Fraction(l + 1 - b - k, h)]
    if letter == "D":
        if k == 1:
            qs = [Fraction(l - 3, h)]
        elif k <= l - 2:
            qs = [Fraction(l - k - 2, h), Fraction(l - k, h)]
        else:
            qs = [Fraction(1, h)]
        return qs, list(qs)
    qs = [Fraction(v, h) for v in _E_QDATA[l][k]]
    return qs, list(qs)


def slot_values(cat, k):
    """Signed slot offsets of M(k, 0) per half about its phase, from
    :func:`q_data`: (q, -q, ...; qbar, -qbar, ...)."""
    qs, qbars = q_data(cat.letter, cat.l, cat.b, cat.h, k)
    first = tuple(v for q in qs for v in (q, -q))
    second = tuple(v for q in qbars for v in (q, -q))
    return first, second


# ---------------------------------------------------------------------------
# Poincare series of the Jacobi algebra (exact integer polynomial division)
# ---------------------------------------------------------------------------


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_divexact(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % den[-1]:
            raise AssertionError("inexact polynomial division")
        coef //= den[-1]
        out[shift] = coef
        for i, b in enumerate(den):
            num[shift + i] -= coef * b
    if any(num):
        raise AssertionError("inexact polynomial division")
    return out


def jacobi_poincare(a, b, c, h):
    """Coefficient list of prod_i (t^(h - a_i) - 1) / (t^(a_i) - 1)."""
    num = [1]
    den = [1]
    for w in (a, b, c):
        num = _poly_mul(num, [-1] + [0] * (h - w - 1) + [1])
        den = _poly_mul(den, [-1] + [0] * (w - 1) + [1])
    return _poly_divexact(num, den)


# ---------------------------------------------------------------------------
# dense sympy morphism counter (independent assembly and pivoting)
# ---------------------------------------------------------------------------

_X, _Y, _Z = sympy.symbols("x y z")


def _to_sympy(p):
    expr = sympy.Integer(0)
    for (ex, ey, ez), g in p.terms.items():
        coef = sympy.Rational(g.re) + sympy.I * sympy.Rational(g.im)
        expr += coef * _X**ex * _Y**ey * _Z**ez
    return expr


def _monomials(weights, h, delta):
    """Exponent triples of normalized weighted degree delta (a Fraction)."""
    t = Fraction(delta) * h / 2
    if t.denominator != 1 or t < 0:
        return []
    t = int(t)
    a, b, c = weights
    out = []
    for ex in range(t // a + 1):
        for ey in range((t - a * ex) // b + 1):
            rem = t - a * ex - b * ey
            if rem % c == 0:
                out.append((ex, ey, rem // c))
    return sorted(out)


def _expr_rows(exprs, unknowns):
    """Split polynomial identities into linear rows over the unknowns."""
    rows = []
    for expr in exprs:
        poly = sympy.expand(expr).as_poly(_X, _Y, _Z, domain="EX")
        if poly is None:
            continue
        for coeff in poly.coeffs():
            rows.append(coeff)
    mat, rhs = sympy.linear_eq_to_matrix(rows, list(unknowns))
    if any(v != 0 for v in rhs):
        raise AssertionError("morphism system is not homogeneous")
    return mat


def _entry_coords(mat, slots, blk):
    """Coordinates of one block matrix on the (blk, i, j, mon) slots."""
    coords = {}
    for (b, i, j, mon), pos in slots.items():
        if b != blk:
            continue
        expr = sympy.expand(mat[i, j])
        if expr == 0:
            continue
        pdict = expr.as_poly(_X, _Y, _Z, domain="QQ_I").as_dict()
        coords[(i, j)] = pdict
    row = {}
    for (b, i, j, mon), pos in slots.items():
        if b != blk:
            continue
        row[pos] = coords.get((i, j), {}).get(mon, 0)
    leftovers = set()
    for (i, j), pdict in coords.items():
        allowed = {mon for (b, a, bb, mon) in slots if b == blk and (a, bb) == (i, j)}
        leftovers |= {m for m in pdict if m not in allowed}
    if leftovers:
        raise AssertionError("boundary leaves the degree window")
    return row


def sympy_hom_dim(src, dst, weights, h):
    """dim Hom(src, dst) by dense symbolic elimination.

    src/dst carry .r, .phi, .psi and the slot vector .S (first half the
    even slots, second half the odd slots).  weights = (a, b, c).
    """
    r = src.r
    ss, sbs = src.S[:r], src.S[r:]
    sd, sbd = dst.S[: dst.r], dst.S[dst.r :]
    svars = []
    slots = {}

    def block(blk, degrees):
        mat = sympy.Matrix(dst.r, r, lambda i, j: 0)
        for i in range(dst.r):
            for j in range(r):
                for mon in _monomials(weights, h, degrees(i, j)):
                    s = sympy.Symbol("v%d" % len(svars))
                    slots[(blk, i, j, mon)] = len(svars)
                    svars.append(s)
                    mat[i, j] += s * _X ** mon[0] * _Y ** mon[1] * _Z ** mon[2]
        return mat

    F0 = block(0, lambda i, j: sd[i] - ss[j])
    F1 = block(1, lambda i, j: sbd[i] - sbs[j])
    if not svars:
        return 0
    dst_phi = sympy.Matrix(dst.r, dst.r, lambda i, j: _to_sympy(dst.phi[i][j]))
    dst_psi = sympy.Matrix(dst.r, dst.r, lambda i, j: _to_sympy(dst.psi[i][j]))
    src_phi = sympy.Matrix(r, r, lambda i, j: _to_sympy(src.phi[i][j]))
    src_psi = sympy.Matrix(r, r, lambda i, j: _to_sympy(src.psi[i][j]))

    cocycle = list(dst_phi * F1 - F0 * src_phi) + list(dst_psi * F0 - F1 * src_psi)
    C = _expr_rows(cocycle, svars)
    nullity = len(svars) - C.rank()

    # boundary images of the two homotopy slot families
    zero = sympy.zeros(dst.r, r)
    gens = []
    for i in range(dst.r):
        for j in range(r):
            for mon in _monomials(weights, h, sd[i] - sbs[j] - 1):
                HA = zero.copy()
                HA[i, j] = _X ** mon[0] * _Y ** mon[1] * _Z ** mon[2]
                gens.append((HA, zero))
            for mon in _monomials(weights, h, sbd[i] - ss[j] - 1):
                HB = zero.copy()
                HB[i, j] = _X ** mon[0] * _Y ** mon[1] * _Z ** mon[2]
                gens.append((zero, HB))
    if not gens:
        return nullity

    rows = []
    for HA, HB in gens:
        G0 = dst_phi * HB + HA * src_psi
        G1 = dst_psi * HA + HB * src_phi
        row = dict(_entry_coords(G0, slots, 0))
        row.update(_entry_coords(G1, slots, 1))
        rows.append([row.get(pos, 0) for pos in range(len(svars))])
    B = sympy.Matrix(rows)
    return nullity - B.rank()


# ---------------------------------------------------------------------------
# indecomposability by the trace form of End (dense sympy rank)
# ---------------------------------------------------------------------------


def _gauss(c):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def is_indecomposable(g):
    """True when End(g) is local.

    dim End = 1 decides immediately; otherwise the radical of the trace
    form of the regular representation (= the Jacobson radical in
    characteristic zero) must have codimension 1.  Objects whose semisimple
    quotient is a nonsplit division algebra over Q(i) would be misreported,
    but none arise from the ADE catalog.
    """
    E = hom_space(g, g)
    d = E.dim
    if d <= 1:
        return d == 1
    # L[i][a][b]: coordinate a of basis[i] composed with basis[b]
    L = [list(zip(*(map(_gauss, E.coordinates(compose(E.basis[i], E.basis[b])))
                    for b in range(d)))) for i in range(d)]
    form = sympy.Matrix(d, d, lambda i, j: sympy.expand(sum(
        L[i][a][b] * L[j][b][a] for a in range(d) for b in range(d))))
    return form.rank() == 1


# ---------------------------------------------------------------------------
# unit-entry reduction, as first written (fresh block copies per pivot)
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


def reduce_reference(g):
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
# retraction onto a catalog object, as first written (End(M) coordinates)
# ---------------------------------------------------------------------------


def retraction_reference(cat, g, k, n):
    """incl: M(k, n) -> g whose End(M) coordinate of proj o incl is nonzero
    for some witness proj: g -> M, or None; witnesses in basis order.
    """
    M = cat.object(k, n)
    P = hom_space(g, M)
    if P.dim == 0:
        return None
    Iw = hom_space(M, g)
    if Iw.dim == 0:
        return None
    EM = hom_space(M, M)
    for incl in Iw.basis:
        for proj in P.basis:
            if EM.coordinates(compose(proj, incl))[0]:
                return incl
    return None


def serre_image_reference(cat, k):
    """(k', n') with S(M^k_0) isomorphic to M^{k'}_{n'}: a catalog search on
    the explicit Serre image, cross-checked against the T-image vertex."""
    res = identify_object(cat, serre(cat.object(k, 0)))
    if res is None:
        raise ArithmeticError("Serre image of vertex %d not found" % k)
    if res[0] != t_image(cat, k)[0]:
        raise ArithmeticError("Serre image disagrees with the T-image vertex")
    return res


# ---------------------------------------------------------------------------
# cones, direct sums, inverse shifts and HN partial sums, as first written
# ---------------------------------------------------------------------------


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


def cone_reference(m):
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


def direct_sum_reference(a, b):
    _expect(GradedMF, a, b)
    if a.f != b.f or a.W != b.W:
        raise PolyError("direct sum needs matching potential and weights")
    phi = mat_block([[a.phi, None], [None, b.phi]])
    psi = mat_block([[a.psi, None], [None, b.psi]])
    S = list(a.s_row) + list(b.s_row) + list(a.sbar_row) + list(b.sbar_row)
    return GradedMF(a.f, a.W, phi, psi, S)


def shift_T_inverse_reference(g):
    _expect(GradedMF, g)
    S = [s - 1 for s in g.sbar_row] + [s - 1 for s in g.s_row]
    return GradedMF(g.f, g.W, mat_neg(g.psi), mat_neg(g.phi), S)


def serre_inverse_reference(g):
    return tau(shift_T_inverse_reference(g), 1)


def hn_triangles_reference(cat, pieces):
    """(inclusion, projection) per HN piece, every partial sum re-summed
    from all the factors below it."""
    def sum_object(classes):
        parts = [cat.object(k, n) for (k, n) in classes]
        if not parts:
            return GradedMF(cat.f, cat.W, (), (), (), label="0")
        return _freduce(direct_sum_reference, parts)

    triangles = []
    below = []
    prev_obj = sum_object([])
    for _, factors in pieces:
        piece_obj = sum_object(factors)
        below.extend(factors)
        cur_obj = sum_object(below)
        triangles.append((_block_map(prev_obj, cur_obj, 0),
                          _block_map(cur_obj, piece_obj,
                                     cur_obj.r - piece_obj.r)))
        prev_obj = cur_obj
    return triangles


def hom_dim_reference(src, dst):
    """dim Hom(src, dst) = nvars - rank Z - rank B, from exact ranks over Q(i).

    Rank-only: no witness basis is built (see :func:`hom_space`).
    """
    sys = _System(src, dst)
    if not sys.nvars:
        return 0
    return (sys.nvars - kernel.rank(sys.cocycle_rows)
            - kernel.rank(sys.boundary_rows))


def variable_keys_reference(src, dst):
    """(blk, i, j, monomial) of every Hom-system variable, in index order:
    block 0 then block 1, entries row by row, monomials in lex order."""
    W = src.W
    D = math.lcm(src.h_degrees()[0], dst.h_degrees()[0])
    ss, sbs = src.h_slots(D)
    sd, sbd = dst.h_slots(D)
    keys = []
    for blk, drow, dcol in ((0, sd, ss), (1, sbd, sbs)):
        for i in range(dst.r):
            for j in range(src.r):
                t = drow[i] - dcol[j]
                if t >= 0 and not t % (2 * D):
                    keys += [(blk, i, j, mon) for mon in
                             weighted_monomials(W.a, W.b, W.c, t // (2 * D))]
    return keys


def cocycle_rows_reference(src, dst):
    """The cocycle rows of Hom(src, dst), keyed: one row per entry (k, j)
    and monomial of E0 = dst.phi*phi1 - phi0*src.phi, sorted by
    (k, j, monomial), each listing its variables in index order.

    Coefficients are scaled by the lcm L of every block denominator."""
    L = 1
    for g in (src, dst):
        for mat in (g.phi, g.psi):
            for row in mat:
                for p in row:
                    for co in p.terms.values():
                        L = math.lcm(L, co.d)

    def terms(p, sign):
        return [(mon, sign * c.a * (L // c.d), sign * c.b * (L // c.d))
                for mon, c in sorted(p.terms.items())]

    eqs = defaultdict(list)
    for vidx, (blk, i, j, (m0, m1, m2)) in enumerate(
            variable_keys_reference(src, dst)):
        # dst.phi[k][i] * phi1[i][j] lands in E0[k][j] and
        # -phi0[i][j] * src.phi[j][k] in E0[i][k]
        if blk:
            lines = [((k, j), terms(dst.phi[k][i], 1)) for k in range(dst.r)]
        else:
            lines = [((i, k), terms(src.phi[j][k], -1)) for k in range(src.r)]
        for at, line in lines:
            for (e0, e1, e2), re, im in line:
                eqs[at + (m0 + e0, m1 + e1, m2 + e2)].append((vidx, re, im))
    return [tuple(map(list, zip(*eqs[key]))) for key in sorted(eqs)]


def relabel(rows, columns):
    """rows with each column replaced by its index in the ascending list
    ``columns``: the order-preserving bijection from a Hom system's variable
    columns onto 0..nvars-1, the indices of the keyed assembly."""
    index = {c: t for t, c in enumerate(columns)}
    if list(columns) != sorted(index):
        raise ValueError("columns must be distinct and ascending")
    return [([index[c] for c in cols], res, ims) for cols, res, ims in rows]
