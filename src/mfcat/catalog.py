"""The ADE object catalog.

For each simple polynomial the indecomposable graded matrix factorizations
form one tau-orbit per vertex of the Dynkin diagram: M(k, n) with k a vertex
and n the degree-shift index.  This module holds the diagrams, the block
matrices for every vertex, and the grading data (the +/-q multisets and the
phase (2n + sigma)/h), and builds verified GradedMF objects from them.

Vertex labeling: A_l is the path 1-2-...-l (base = the y-weight parameter b);
D_l has spine 1..l-2 with leaves l-1, l on l-2 (base l-2); E6 has the spine
5-3-2-4-6 with leg 1 on 2 (base 2); E7 arms 1-2, 4, 5-6-7 around 3 (base 3);
E8 arms 1-2-3-4, 6, 7-8 around 5 (base 5).  sigma(k) = 1 for odd distance to
the base, 2 for even; phase(k, n) = (2n + sigma(k))/h.
"""

from fractions import Fraction
from functools import lru_cache

from mfcat.gring import (
    GaussRat,
    Poly,
    PolyError,
    ade_polynomial,
    parse_type,
)
from mfcat.mf import GradedMF, solve_grading, tau, verify_grading, verify_mf

X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
I = Poly.const(GaussRat(0, 1))


def _p(e):
    if isinstance(e, Poly):
        return e
    return Poly.const(e)


def _M(rows):
    return [[_p(e) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

_E_EDGES = {
    6: ((1, 2), (2, 3), (2, 4), (3, 5), (4, 6)),
    7: ((1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7)),
    8: ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (7, 8)),
}
_E_BASE = {6: 2, 7: 3, 8: 5}


class DynkinDiagram:
    """Vertices 1..l with the edge set and base vertex described above."""

    def __init__(self, letter, l, b=None):
        self.letter = letter
        self.l = l
        if letter == "A":
            edges = tuple((i, i + 1) for i in range(1, l))
            base = 1 if b is None else b
        elif letter == "D":
            edges = tuple((i, i + 1) for i in range(1, l - 2)) + (
                (l - 2, l - 1),
                (l - 2, l),
            )
            base = l - 2
        else:
            edges = _E_EDGES[l]
            base = _E_BASE[l]
        if not 1 <= base <= l:
            raise PolyError("base vertex out of range")
        self.edges = edges
        self.base = base
        self._adj = {k: [] for k in range(1, l + 1)}
        for u, v in edges:
            self._adj[u].append(v)
            self._adj[v].append(u)
        self._dist = {}
        for start in range(1, l + 1):
            d = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if v not in d:
                            d[v] = d[u] + 1
                            nxt.append(v)
                frontier = nxt
            self._dist[start] = d

    @property
    def vertices(self):
        return range(1, self.l + 1)

    def neighbors(self, k):
        return sorted(self._adj[k])

    def distance(self, k, kprime):
        return self._dist[k][kprime]

    def sigma(self, k):
        return 1 if self.distance(k, self.base) % 2 else 2


def dynkin_distance(type_str, k, kprime, b=None):
    return get_catalog(type_str, b).diagram.distance(k, kprime)


def principal_decomposition(type_str, b=None):
    """(base, Pi_1, Pi_2): vertices at odd / even distance from the base."""
    dia = get_catalog(type_str, b).diagram
    pi1 = tuple(k for k in dia.vertices if dia.sigma(k) == 1)
    pi2 = tuple(k for k in dia.vertices if dia.sigma(k) == 2)
    return dia.base, pi1, pi2


# ---------------------------------------------------------------------------
# block matrices (phi, psi) per vertex
# ---------------------------------------------------------------------------


def _blocks_A(l, k):
    phi = _M([[Y, X ** (l + 1 - k)], [X ** k, -Z]])
    psi = _M([[Z, X ** (l + 1 - k)], [X ** k, -Y]])
    return phi, psi


def _blocks_D(l, k):
    if k == 1:
        m = _M([[Z, X ** 2 + Y ** (l - 2)], [Y, -Z]])
        return m, m
    if k <= l - 2 and k % 2 == 0:
        a = k // 2
        m = _M(
            [
                [-Z, 0, X * Y, Y ** a],
                [0, -Z, Y ** (l - 1 - a), -X],
                [X, Y ** a, Z, 0],
                [Y ** (l - 1 - a), -X * Y, 0, Z],
            ]
        )
        return m, m
    if k <= l - 2:
        # odd spine vertices; exponents (k+1)/2 and (k-1)/2 pair with their
        # complements so that the solved grading carries the slot multiset
        # +/-(l-k-2)/(2(l-1)), +/-(l-k)/(2(l-1))
        a = (k + 1) // 2
        m = _M(
            [
                [-Z, Y ** a, X * Y, 0],
                [Y ** (l - 1 - a), Z, 0, -X],
                [X, 0, Z, Y ** (a - 1)],
                [0, -X * Y, Y ** (l - a), -Z],
            ]
        )
        return m, m
    # the two leaves
    if l % 2 == 0:
        w = Y ** ((l - 2) // 2)
        sign = 1 if k == l - 1 else -1
        m = _M([[Z, Y * (X + sign * I * w)], [X - sign * I * w, -Z]])
        return m, m
    w = Y ** ((l - 1) // 2)
    plus = _M([[Z + I * w, X * Y], [X, -(Z - I * w)]])
    minus = _M([[Z - I * w, X * Y], [X, -(Z + I * w)]])
    return (plus, minus) if k == l - 1 else (minus, plus)


def _blocks_E6(k):
    x, y, z = X, Y, Z
    yp = y ** 2 + I * z
    ym = y ** 2 - I * z
    if k == 1:
        m = _M(
            [
                [-z, 0, x ** 2, y ** 3],
                [0, -z, y, -x],
                [x, y ** 3, z, 0],
                [y, -(x ** 2), 0, z],
            ]
        )
        return m, m
    if k == 2:
        iz = I * z
        phi = _M(
            [
                [-iz, -(y ** 2), x * y, 0, x ** 2, 0],
                [-(y ** 2), -iz, 0, 0, 0, x],
                [0, 0, -iz, -x, 0, y],
                [0, x * y, -(x ** 2), -iz, y ** 3, 0],
                [x, 0, 0, y, -iz, 0],
                [0, x ** 2, y ** 3, 0, x * y ** 2, -iz],
            ]
        )
        psi = _M(
            [
                [iz, -(y ** 2), x * y, 0, x ** 2, 0],
                [-(y ** 2), iz, 0, 0, 0, x],
                [0, 0, iz, -x, 0, y],
                [0, x * y, -(x ** 2), iz, y ** 3, 0],
                [x, 0, 0, y, iz, 0],
                [0, x ** 2, y ** 3, 0, x * y ** 2, iz],
            ]
        )
        return phi, psi
    if k in (3, 4):
        iz = I * z
        m3 = _M(
            [
                [-ym, 0, x * y, x],
                [-(x * y), yp, x ** 2, 0],
                [0, x, iz, y],
                [x ** 2, -(x * y), y ** 3, iz],
            ]
        )
        m4 = _M(
            [
                [-yp, 0, x * y, x],
                [-(x * y), ym, x ** 2, 0],
                [0, x, -iz, y],
                [x ** 2, -(x * y), y ** 3, -iz],
            ]
        )
        return (m3, m4) if k == 3 else (m4, m3)
    m5 = _M([[-ym, x], [x ** 2, yp]])
    m6 = _M([[-yp, x], [x ** 2, ym]])
    return (m5, m6) if k == 5 else (m6, m5)


def _blocks_E7(k):
    x, y, z = X, Y, Z
    if k == 1:
        m = _M(
            [
                [z, 0, -(x ** 2), y],
                [0, z, x * y ** 2, x],
                [-x, y, -z, 0],
                [x * y ** 2, x ** 2, 0, -z],
            ]
        )
    elif k == 2:
        m = _M(
            [
                [-z, y ** 2, x * y, 0, x ** 2, 0],
                [x * y, z, 0, 0, 0, -x],
                [0, 0, z, -x, 0, y],
                [0, -(x * y), -(x ** 2), -z, x * y ** 2, 0],
                [x, 0, 0, y, z, 0],
                [0, -(x ** 2), x * y ** 2, 0, x ** 2 * y, -z],
            ]
        )
    elif k == 3:
        # entry (7,6) must be y, not y^2: forced by five product identities
        # and by the solved grading multiset +/-(0,2,4,6)/18
        m = _M(
            [
                [-z, 0, x * y, -(y ** 2), 0, 0, x ** 2, 0],
                [0, -z, 0, y ** 2, 0, 0, 0, x],
                [y ** 2, y ** 2, z, 0, 0, -x, 0, 0],
                [0, x * y, 0, z, -(x ** 2), 0, 0, 0],
                [0, 0, 0, -x, -z, 0, 0, y],
                [0, 0, -(x ** 2), 0, 0, -z, x * y ** 2, y ** 2],
                [x, 0, 0, 0, -(y ** 2), y, z, 0],
                [0, x ** 2, 0, 0, x * y ** 2, 0, 0, z],
            ]
        )
    elif k == 4:
        m = _M(
            [
                [-z, y ** 2, 0, x],
                [x * y, z, -(x ** 2), 0],
                [0, -x, -z, y],
                [x ** 2, 0, x * y ** 2, z],
            ]
        )
    elif k == 5:
        m = _M(
            [
                [-z, 0, x * y, 0, 0, x],
                [-(x * y), z, 0, -(y ** 2), -(x ** 2), 0],
                [y ** 2, 0, z, -x, x * y, 0],
                [0, -(x * y), -(x ** 2), -z, 0, 0],
                [0, -x, 0, 0, -z, -y],
                [x ** 2, 0, 0, x * y, -(x * y ** 2), z],
            ]
        )
    elif k == 6:
        m = _M(
            [
                [z, 0, -(x * y), x],
                [0, z, x ** 2, y ** 2],
                [-(y ** 2), x, -z, 0],
                [x ** 2, x * y, 0, -z],
            ]
        )
    else:
        m = _M([[z, x], [x ** 2 + y ** 3, -z]])
    return m, m


def _blocks_E8(k):
    x, y, z = X, Y, Z
    if k == 1:
        m = _M(
            [
                [z, 0, x, y],
                [0, z, y ** 4, -(x ** 2)],
                [x ** 2, y, -z, 0],
                [y ** 4, -x, 0, -z],
            ]
        )
    elif k == 2:
        m = _M(
            [
                [z, -(y ** 2), x * y, 0, -(x ** 2), 0],
                [-(y ** 3), -z, 0, 0, 0, x],
                [0, 0, -z, x, 0, y],
                [0, -(x * y), x ** 2, z, y ** 4, 0],
                [-x, 0, 0, y, -z, 0],
                [0, x ** 2, y ** 4, 0, -(x * y ** 3), z],
            ]
        )
    elif k == 3:
        m = _M(
            [
                [-z, 0, -(x * y), y ** 2, 0, 0, x ** 2, 0],
                [0, -z, y ** 3, 0, 0, 0, 0, x],
                [0, y ** 2, z, 0, 0, -x, 0, 0],
                [y ** 3, x * y, 0, z, -(x ** 2), 0, 0, 0],
                [0, 0, 0, -x, -z, 0, y ** 3, y],
                [0, 0, -(x ** 2), 0, 0, -z, 0, y ** 2],
                [x, 0, 0, 0, y ** 2, -y, z, 0],
                [0, x ** 2, 0, 0, 0, y ** 3, 0, z],
            ]
        )
    elif k == 4:
        m = _M(
            [
                [z, 0, x * y, 0, 0, -(y ** 2), y ** 3, 0, -(x ** 2), 0],
                [0, -z, 0, 0, 0, 0, 0, -(y ** 2), 0, x],
                [0, 0, -z, y ** 2, 0, 0, 0, x, 0, 0],
                [0, x * y, y ** 3, z, 0, 0, -(x ** 2), 0, 0, 0],
                [0, y ** 2, 0, 0, z, -x, 0, 0, y ** 3, 0],
                [-(y ** 3), 0, 0, 0, -(x ** 2), -z, 0, 0, 0, y ** 2],
                [0, 0, 0, -x, 0, 0, -z, 0, 0, y],
                [0, -(y ** 3), x ** 2, 0, 0, 0, x * y ** 2, z, 0, 0],
                [-x, 0, 0, 0, y ** 2, 0, 0, y, -z, 0],
                [0, x ** 2, x * y ** 2, 0, 0, 0, y ** 4, 0, 0, z],
            ]
        )
    elif k == 5:
        m = _M(
            [
                [-z, 0, 0, 0, 0, 0, 0, y ** 2, 0, 0, 0, x],
                [0, -z, -(x * y), 0, 0, 0, y ** 3, -(y ** 2), 0, 0, x ** 2, 0],
                [0, 0, z, 0, 0, -(y ** 2), 0, 0, y ** 3, -x, 0, 0],
                [x * y, 0, 0, z, -(y ** 3), 0, 0, 0, -(x ** 2), 0, 0, 0],
                [0, 0, 0, -(y ** 2), -z, 0, 0, x, 0, 0, 0, 0],
                [0, 0, -(y ** 3), 0, 0, -z, -(x ** 2), 0, 0, 0, x * y ** 2, y ** 2],
                [y ** 2, y ** 2, 0, 0, 0, -x, z, 0, 0, 0, 0, 0],
                [y ** 3, 0, 0, 0, x ** 2, 0, 0, z, -(x * y ** 2), 0, 0, 0],
                [0, 0, 0, -x, 0, 0, 0, 0, -z, 0, 0, y],
                [0, 0, -(x ** 2), -(y ** 3), 0, 0, x * y ** 2, 0, 0, -z, -(y ** 4), 0],
                [0, x, 0, 0, y ** 2, 0, 0, 0, 0, -y, z, 0],
                [x ** 2, 0, 0, 0, -(x * y ** 2), 0, 0, 0, y ** 4, 0, 0, z],
            ]
        )
    elif k == 6:
        m = _M(
            [
                [-z, 0, 0, y ** 2, 0, x],
                [x * y, z, -(y ** 3), 0, -(x ** 2), 0],
                [0, -(y ** 2), -z, x, 0, 0],
                [y ** 3, 0, x ** 2, z, -(x * y ** 2), 0],
                [0, -x, 0, 0, -z, y],
                [x ** 2, 0, -(x * y ** 2), 0, y ** 4, z],
            ]
        )
    elif k == 7:
        m = _M(
            [
                [z, 0, 0, 0, -(y ** 3), 0, 0, -x],
                [x * y, -z, 0, 0, 0, y ** 2, x ** 2, 0],
                [0, 0, -z, y ** 2, 0, x, -(y ** 3), 0],
                [0, 0, 0, z, -(x ** 2), 0, 0, y ** 2],
                [-(y ** 2), 0, 0, -x, -z, 0, 0, 0],
                [0, y ** 3, x ** 2, 0, x * y ** 2, z, 0, 0],
                [0, x, -(y ** 2), 0, 0, 0, z, y],
                [-(x ** 2), 0, 0, y ** 3, 0, 0, 0, -z],
            ]
        )
    else:
        m = _M(
            [
                [z, 0, x, y ** 2],
                [0, z, y ** 3, -(x ** 2)],
                [x ** 2, y ** 2, -z, 0],
                [y ** 3, -x, 0, -z],
            ]
        )
    return m, m


# ---------------------------------------------------------------------------
# grading data: the q multisets of Table-style slot degrees
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


def _q_data(letter, l, b, k):
    """The (q_j; qbar_j) vectors in the deg-f = 2 scale."""
    if letter == "A":
        h = l + 1
        return [Fraction(b - k, h)], [Fraction(l + 1 - b - k, h)]
    if letter == "D":
        h = 2 * (l - 1)
        if k == 1:
            qs = [Fraction(l - 3, h)]
        elif k <= l - 2:
            qs = [Fraction(l - k - 2, h), Fraction(l - k, h)]
        else:
            qs = [Fraction(1, h)]
        return qs, list(qs)
    h = {6: 12, 7: 18, 8: 30}[l]
    qs = [Fraction(v, h) for v in _E_QDATA[l][k]]
    return qs, list(qs)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


class Catalog:
    """All indecomposables for one polynomial; built lazily, cached."""

    def __init__(self, type_str, b=None):
        letter, l = parse_type(type_str)
        b = (1 if b is None else b) if letter == "A" else None
        self.letter = letter
        self.l = l
        self.b = b
        self.type_str = "%s%d" % (letter, l)
        self.f, self.W = ade_polynomial(self.type_str, b)
        self.h = self.W.h
        self.diagram = DynkinDiagram(letter, l, b)
        self._objects = {}  # (k, n) -> M(k, n); twists share M(k, 0)'s blocks
        self.memo = {}  # results derived from this catalog, filled by homcat

    def sigma(self, k):
        self._check_vertex(k)
        return self.diagram.sigma(k)

    def phase(self, k, n):
        return Fraction(self.coord(k, n), self.h)

    def coord(self, k, n):
        """2n + sigma(k), the phase of M(k, n) on the h scale."""
        return 2 * n + self.sigma(k)

    def twist(self, k, c, offset=0):
        """The n with coord(k, n) = c + offset, or None if there is none.

        c, an int or a Fraction, is a phase on the h scale: the n returned
        has phase(k, n) = (c + offset)/h.
        """
        if not isinstance(c, (int, Fraction)):
            raise PolyError("phase coordinate must be an int or a Fraction, "
                            "got %r" % (c,))
        n2 = c + offset - self.sigma(k)
        if n2 % 2:
            return None
        return n2 // 2

    def q_vectors(self, k):
        self._check_vertex(k)
        return _q_data(self.letter, self.l, self.b, k)

    def slot_values(self, k):
        """Signed slot offsets per half at phase 0: (q, -q, ...; qbar, -qbar, ...)."""
        qs, qbars = self.q_vectors(k)
        first = tuple(v for q in qs for v in (q, -q))
        second = tuple(v for q in qbars for v in (q, -q))
        return first, second

    def nu(self, k):
        return len(self.q_vectors(k)[0])

    def _check_vertex(self, k):
        if not isinstance(k, int) or not 1 <= k <= self.l:
            raise PolyError("vertex %r out of range 1..%d" % (k, self.l))

    def _label(self, k, n):
        if self.letter == "A":
            return "%s b=%d k=%d n=%d" % (self.type_str, self.b, k, n)
        return "%s k=%d n=%d" % (self.type_str, k, n)

    def _build_base(self, k):
        """The verified object at n = 0; grading pinned by the q multiset."""
        self._check_vertex(k)
        if self.letter == "A":
            phi, psi = _blocks_A(self.l, k)
        elif self.letter == "D":
            phi, psi = _blocks_D(self.l, k)
        elif self.l == 6:
            phi, psi = _blocks_E6(k)
        elif self.l == 7:
            phi, psi = _blocks_E7(k)
        else:
            phi, psi = _blocks_E8(k)
        qs, qbars = self.q_vectors(k)
        r = len(phi)
        if r != 2 * len(qs):
            raise ArithmeticError("block size disagrees with the q data")
        ph = self.phase(k, 0)
        family = solve_grading(self.W, phi, psi)
        if family is None or len(family.components) != 1:
            raise ArithmeticError(
                "grading underdetermined or unsatisfiable for %s" % self._label(k, 0)
            )
        first = sorted([q + ph for q in qs] + [-q + ph for q in qs])
        second = sorted([q + ph for q in qbars] + [-q + ph for q in qbars])
        S = family.pin_by_sum(sum(first) + sum(second))
        if sorted(S[:r]) != first or sorted(S[r:]) != second:
            raise ArithmeticError(
                "solved grading disagrees with the q multiset for %s"
                % self._label(k, 0)
            )
        g = GradedMF(self.f, self.W, phi, psi, S, label=self._label(k, 0))
        bad = verify_mf(g) + verify_grading(g)
        if bad:
            raise ArithmeticError(
                "catalog object %s fails verification: %s" % (g.label, bad[0])
            )
        return g

    def object(self, k, n=0):
        """M(k, n), built once; a twist shares the blocks of M(k, 0)."""
        if not isinstance(n, int):
            raise PolyError("twist n must be an int, got %r" % (n,))
        g = self._objects.get((k, n))
        if g is None:
            if n == 0:
                g = self._build_base(k)
            else:
                g = tau(self.object(k, 0), n, label=self._label(k, n))
            self._objects[k, n] = g
        return g

    def objects_in_window(self, lo, hi):
        """(phase, k, n) with lo < phase <= hi, sorted by (phase, k)."""
        lo, hi = window_bounds(lo, hi)
        out = []
        for k in self.diagram.vertices:
            sig = self.sigma(k)
            n_min = (self.h * lo - sig) // 2 + 1
            n_max = (self.h * hi - sig) // 2
            for n in range(n_min, n_max + 1):
                out.append((self.phase(k, n), k, n))
        out.sort()
        return out


def window_bounds(lo, hi):
    """(Fraction(lo), Fraction(hi)); PolyError unless both are rationals."""
    try:
        return Fraction(lo), Fraction(hi)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise PolyError("malformed phase window (%r, %r)" % (lo, hi)) from None


@lru_cache(maxsize=None)
def _catalog_cached(type_str, b):
    return Catalog(type_str, b)


def get_catalog(type_str, b=None):
    letter, l = parse_type(type_str)
    b = (1 if b is None else b) if letter == "A" else None
    return _catalog_cached("%s%d" % (letter, l), b)
