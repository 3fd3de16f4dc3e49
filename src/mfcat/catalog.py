"""The ADE object catalog.

For each simple polynomial the indecomposable graded matrix factorizations
form one tau-orbit per vertex of the Dynkin diagram: M(k, n) with k a vertex
and n the degree-shift index.  This module holds the diagrams and the block
matrices for every vertex.  It solves each grading from the blocks and the
phase (2n + sigma)/h, and builds verified GradedMF objects from them.

Vertex labeling: A_l is the path 1-2-...-l (base = the y-weight parameter b);
D_l has spine 1..l-2 with leaves l-1, l on l-2 (base l-2); E6 has the spine
5-3-2-4-6 with leg 1 on 2 (base 2); E7 arms 1-2, 4, 5-6-7 around 3 (base 3);
E8 arms 1-2-3-4, 6, 7-8 around 5 (base 5).  sigma(k) = 1 for odd distance to
the base, 2 for even; phase(k, n) = (2n + sigma(k))/h.
"""

from fractions import Fraction
from functools import lru_cache, wraps

from mfcat.gring import (
    I,
    X,
    Y,
    Z,
    Poly,
    PolyError,
    ade_polynomial,
    parse_type,
)
from mfcat.mf import (
    GradedMF,
    _expect,
    solve_grading,
    tau,
    verify_grading,
    verify_mf,
)


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
        if not (isinstance(base, int) and 1 <= base <= l):
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
        # the display name, "A4 b=2" or "E6"; ade_polynomial has checked b
        self.name = self.type_str if b is None else "%s b=%d" % (self.type_str, b)
        self.h = self.W.h
        self.diagram = DynkinDiagram(letter, l, b)
        self._objects = {}  # (k, n) -> M(k, n); twists share M(k, 0)'s blocks
        self.memo = {}  # results derived from this catalog, see _per_catalog

    def sigma(self, k):
        self._check_vertex(k)
        return self.diagram.sigma(k)

    def phase(self, k, n):
        return Fraction(self.coord(k, n), self.h)

    def coord(self, k, n):
        """2n + sigma(k), the phase of M(k, n) on the h scale."""
        if not isinstance(n, int):
            raise PolyError("twist n must be an int, got %r" % (n,))
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

    def _check_vertex(self, k):
        if not isinstance(k, int) or not 1 <= k <= self.l:
            raise PolyError("vertex %r out of range 1..%d" % (k, self.l))

    def _label(self, k, n):
        return "%s k=%d n=%d" % (self.name, k, n)

    def _build_base(self, k):
        """The verified object at n = 0, its grading solved from the blocks.

        The blocks fix S up to a common shift; the shift puts the mean slot
        on phase(k, 0).  Each half of S must then be symmetric about that
        phase, the one property of the grading the blocks do not force.
        """
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
        r = len(phi)
        ph = self.phase(k, 0)
        S = solve_grading(self.W, phi, psi, 2 * r * ph)
        if S is None:
            raise ArithmeticError(
                "grading underdetermined or unsatisfiable for %s" % self._label(k, 0)
            )
        for half in (S[:r], S[r:]):
            if sorted(half) != sorted(2 * ph - s for s in half):
                raise ArithmeticError(
                    "solved grading is not symmetric about the phase for %s"
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
        self._check_vertex(k)
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


def _per_catalog(fn):
    """Memoize ``fn(cat, *args)`` in ``cat.memo`` under ``(fn.__name__,) + args``.

    PolyError unless cat is a Catalog and args hash, before the memo is read.
    """

    @wraps(fn)
    def memoized(cat, *args):
        _expect(Catalog, cat)
        key = (fn.__name__,) + args
        try:
            return cat.memo[key]
        except KeyError:
            pass
        except TypeError:
            raise PolyError("unhashable arguments %r" % (args,)) from None
        value = cat.memo[key] = fn(cat, *args)
        return value

    return memoized


def window_bounds(lo, hi):
    """(Fraction(lo), Fraction(hi)); PolyError unless both are ints,
    Fractions or strings that spell a rational.  A float is refused: it
    stands for its binary value, not for the decimal it prints as."""
    try:
        if not all(isinstance(x, (int, Fraction, str)) for x in (lo, hi)):
            raise TypeError
        return Fraction(lo), Fraction(hi)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise PolyError("malformed phase window (%r, %r)" % (lo, hi)) from None


@lru_cache(maxsize=None)
def _catalog_cached(type_str, b):
    return Catalog(type_str, b)


def get_catalog(type_str, b=None):
    letter, l = parse_type(type_str)
    b = (1 if b is None else b) if letter == "A" else None
    if not isinstance(b, (int, type(None))):  # the cache key must hash
        raise PolyError("b must satisfy 1 <= b <= l for A types")
    return _catalog_cached("%s%d" % (letter, l), b)
