"""Reference Hom-degree grids for the ADE catalogs.

For vertices k, k' of the diagram, the multiset c(k, k') collects the
integers c = h * (phase(Y) - phase(X)) at which Hom(X, Y) is nonzero,
with multiplicity dim Hom, for X in the orbit of vertex k and Y in the
orbit of vertex k'.  The grid only depends on (k, k') because Hom
dimensions are invariant under twisting both arguments.

A- and D-series grids follow closed-form run rules; E6/E7/E8 grids are
stored as explicit tables.  Every grid is regenerated independently in
the test suite from the reflection recursion on the diagram, so the
data here is machine-checked rather than trusted.

Multisets are represented as sorted tuples of (c, multiplicity) pairs.
"""

from __future__ import annotations

from collections import Counter

from .gring import PolyError, parse_type

__all__ = [
    "a_multiset",
    "d_multiset",
    "e_multiset",
    "golden_multiset",
    "grid",
    "serre_vertex",
]


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
# carries 14^4 (the self-paired centre); the tests also regenerate both
# from the reflection recursion.
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
# dispatch
# ---------------------------------------------------------------------------


def golden_multiset(type_str, k, kp):
    """Reference multiset c(k, k') as a sorted ((c, mult), ...) tuple."""
    letter, l = parse_type(type_str)
    if not all(isinstance(v, int) and 1 <= v <= l for v in (k, kp)):
        raise PolyError("vertex out of range for %s" % type_str)
    if letter == "A":
        return a_multiset(l, k, kp)
    if letter == "D":
        return d_multiset(l, k, kp)
    return e_multiset(l, k, kp)


def grid(type_str):
    """Full reference grid {(k, k'): multiset} over all vertex pairs."""
    _, l = parse_type(type_str)
    return {
        (k, kp): golden_multiset(type_str, k, kp)
        for k in range(1, l + 1)
        for kp in range(1, l + 1)
    }


def serre_vertex(type_str, k):
    """Vertex carrying the Serre dual of the orbit at k (an involution)."""
    letter, l = parse_type(type_str)
    if not (isinstance(k, int) and 1 <= k <= l):
        raise PolyError("vertex out of range for %s" % type_str)
    if letter == "A":
        return l + 1 - k
    if letter == "D":
        if l % 2 and k >= l - 1:
            return 2 * l - 1 - k
        return k
    if l == 6:
        return {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}[k]
    return k
