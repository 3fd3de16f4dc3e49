"""Exact graded polynomial kernel.

Scalars live in Q(i) (class :class:`GaussRat`); polynomials are exact
multivariate polynomials in x, y, z with GaussRat coefficients, graded by a
weight system W = (a, b, c; h).  Degrees are kept in two synchronized
conventions:

* integer weighted degree: deg x = a, deg y = b, deg z = c (so deg f = h);
* normalized degree: deg x = 2a/h etc. (so deg f = 2), used by grading
  matrices.  ``normalized = Fraction(2 * integer, h)``.

Also here: the expression parser/printer, regularity of weight systems via
exact Laurent division of the characteristic function, per-degree monomial
bases, and the Jacobi-ring Poincare data computed degreewise by exact rank.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from mfcat import kernel


class PolyError(ValueError):
    pass


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise PolyError("expected int or Fraction, got %r" % (v,))


_new = object.__new__


def _make(a, b, d):
    """The GaussRat (a + b*i)/d for ints a, b and d > 0, in lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRat)
    z.a = a
    z.b = b
    z.d = d
    return z


class GaussRat:
    """An element (a + b*i)/d of Q(i), exact.

    Stored as three Python ints with d > 0 and gcd(a, b, d) == 1, so every
    value has exactly one representation and equality compares the triples;
    zero is (0, 0, 1).  Arithmetic runs on the ints and reduces by one gcd
    only when the new denominator is not 1.  The ``re`` and ``im`` parts are
    read as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        if isinstance(re, GaussRat):
            if im != 0:
                raise PolyError("GaussRat(GaussRat, im) takes no imaginary part")
            self.a, self.b, self.d = re.a, re.b, re.d
            return
        re, im = _frac(re), _frac(im)
        dr, di = re.denominator, im.denominator
        # re and im are in lowest terms, so the triple over lcm(dr, di) is too
        d = dr // gcd(dr, di) * di
        self.a = re.numerator * (d // dr)
        self.b = im.numerator * (d // di)
        self.d = d

    from_ints = staticmethod(_make)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # hash((re, im)); an int hashes like the equal Fraction
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) * f / (d * n)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conj(self):
        return _make(self.a, -self.b, self.d)

    def inv(self):
        return ONE / self

    def __repr__(self):
        return "GaussRat(%s)" % gauss_to_str(self)


def _coerce(v):
    if isinstance(v, GaussRat):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussRat(v)
    return None


ZERO = GaussRat(0)
ONE = GaussRat(1)
IMAG = GaussRat(0, 1)


def gauss_to_str(g):
    """Canonical string for a GaussRat, parseable by parse_poly."""

    def frac_str(fr):
        return str(fr.numerator) if fr.denominator == 1 else "%d/%d" % (
            fr.numerator,
            fr.denominator,
        )

    if not g.im:
        return frac_str(g.re)
    if not g.re:
        if g.im == 1:
            return "I"
        if g.im == -1:
            return "-I"
        return "%s*I" % frac_str(g.im)
    im = g.im
    op = "+" if im > 0 else "-"
    im_abs = -im if im < 0 else im
    im_part = "I" if im_abs == 1 else "%s*I" % frac_str(im_abs)
    return "(%s%s%s)" % (frac_str(g.re), op, im_part)


class Poly:
    """Exact polynomial in x, y, z over Q(i).

    Canonical form: ``terms`` maps exponent triples (i, j, k) to nonzero
    GaussRat coefficients; equal polynomials have identical maps.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def const(c):
        c = GaussRat(c) if not isinstance(c, GaussRat) else c
        return Poly({(0, 0, 0): c}) if c else Poly()

    @staticmethod
    def monomial(exps, coeff=1):
        coeff = GaussRat(coeff) if not isinstance(coeff, GaussRat) else coeff
        return Poly({tuple(exps): coeff}) if coeff else Poly()

    @staticmethod
    def var(name):
        return Poly.monomial({"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}[name])

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, GaussRat, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, GaussRat, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(other).__neg__())

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, GaussRat, Fraction)):
                return NotImplemented
            c = GaussRat(other) if not isinstance(other, GaussRat) else other
            if not c:
                return Poly()
            return Poly({e: co * c for e, co in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = terms.get(e, ZERO) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a nonnegative integer")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, name):
        idx = {"x": 0, "y": 1, "z": 2}[name]
        terms = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = list(e)
            ne[idx] -= 1
            terms[tuple(ne)] = c * e[idx]
        return Poly(terms)

    def constant_term(self):
        return self.terms.get((0, 0, 0), ZERO)

    def __repr__(self):
        return "Poly(%s)" % poly_to_str(self)


X = Poly.var("x")
Y = Poly.var("y")
Z = Poly.var("z")
I = Poly.const(IMAG)


def poly_to_str(p):
    """Canonical printable form; parse_poly(poly_to_str(p)) == p."""
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms):
        c = p.terms[e]
        mon = []
        for name, exp in zip("xyz", e):
            if exp == 1:
                mon.append(name)
            elif exp > 1:
                mon.append("%s^%d" % (name, exp))
        if not mon:
            body = gauss_to_str(c)
        elif c == ONE:
            body = "*".join(mon)
        elif c == GaussRat(-1):
            body = "-" + "*".join(mon)
        else:
            body = gauss_to_str(c) + "*" + "*".join(mon)
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += "-" + part[1:]
        else:
            out += "+" + part
    return out


# ---------------------------------------------------------------------------
# expression parser
#
# grammar:  expr   := ['-'] term (('+'|'-') term)*
#           term   := factor ('*' factor)*
#           factor := atom ('^' uint)?
#           atom   := 'x' | 'y' | 'z' | 'I' | int ['/' uint] | '(' expr ')'
# The rational-literal tail and the leading unary minus are dialect
# extensions (needed to print reduction/witness output); plain integer
# expressions round-trip unchanged.
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise PolyError("parse error at position %d: %s" % (self.pos, msg))

    def peek(self):
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isspace():
            self.pos += 1
        if self.pos >= n:
            return None
        return t[self.pos]

    def take_int(self):
        t = self.text
        start = self.pos
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(t[start : self.pos])


def _parse_atom(tk):
    ch = tk.peek()
    if ch is None:
        tk.error("unexpected end of input")
    if ch == "(":
        tk.pos += 1
        p = _parse_expr(tk)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.pos += 1
        return p
    if ch in "xyz":
        tk.pos += 1
        return Poly.var(ch)
    if ch == "I":
        tk.pos += 1
        return I
    if ch.isdigit() or ch == "-":
        neg = False
        if ch == "-":
            neg = True
            tk.pos += 1
            if tk.peek() is None or not tk.peek().isdigit():
                tk.error("expected digits after '-'")
        num = tk.take_int()
        if tk.peek() == "/":
            tk.pos += 1
            den = tk.take_int()
            if den == 0:
                tk.error("zero denominator")
            val = Fraction(num, den)
        else:
            val = Fraction(num)
        return Poly.const(-val if neg else val)
    tk.error("unexpected character %r" % ch)


def _parse_factor(tk):
    p = _parse_atom(tk)
    if tk.peek() == "^":
        tk.pos += 1
        ch = tk.peek()
        if ch is None or not ch.isdigit():
            tk.error("exponent must be a nonnegative integer")
        return p ** tk.take_int()
    return p


def _parse_term(tk):
    p = _parse_factor(tk)
    while tk.peek() == "*":
        tk.pos += 1
        p = p * _parse_factor(tk)
    return p


def _parse_expr(tk):
    negate = False
    if tk.peek() == "-":
        tk.pos += 1
        negate = True
    p = _parse_term(tk)
    if negate:
        p = -p
    while True:
        ch = tk.peek()
        if ch == "+":
            tk.pos += 1
            p = p + _parse_term(tk)
        elif ch == "-":
            tk.pos += 1
            p = p - _parse_term(tk)
        else:
            return p


def parse_poly(text):
    """Parse an expression into a canonical Poly (see grammar above)."""
    tk = _Tokens(text)
    p = _parse_expr(tk)
    if tk.peek() is not None:
        tk.error("trailing input")
    return p


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------


class WeightSystem:
    """W = (a, b, c; h): deg x = 2a/h, deg y = 2b/h, deg z = 2c/h."""

    __slots__ = ("a", "b", "c", "h")

    def __init__(self, a, b, c, h):
        if min(a, b, c, h) <= 0:
            raise PolyError("weights must be positive")
        if gcd(gcd(a, b), c) != 1:
            raise PolyError("weights must be coprime")
        self.a, self.b, self.c, self.h = a, b, c, h

    @property
    def weights(self):
        return (self.a, self.b, self.c)

    @property
    def epsilon(self):
        return self.a + self.b + self.c - self.h

    def deg(self, name):
        w = {"x": self.a, "y": self.b, "z": self.c}[name]
        return Fraction(2 * w, self.h)

    def wdeg_int(self, exps):
        """Integer weighted degree of an exponent triple (deg f = h scale)."""
        return exps[0] * self.a + exps[1] * self.b + exps[2] * self.c

    def normalize(self, wdeg):
        return Fraction(2 * wdeg, self.h)

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and (
            (self.a, self.b, self.c, self.h)
            == (other.a, other.b, other.c, other.h)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.h))

    def __repr__(self):
        return "WeightSystem(%d,%d,%d;%d)" % (self.a, self.b, self.c, self.h)


def weighted_degree(p, W):
    """Normalized degree of a homogeneous polynomial (deg f = 2 scale).

    Returns the exact rational degree, or None when the monomials do not all
    share one weighted degree.  Raises PolyError on the zero polynomial.
    """
    if not p.terms:
        raise PolyError("degree of the zero polynomial is undefined")
    degs = {W.wdeg_int(e) for e in p.terms}
    if len(degs) != 1:
        return None
    return W.normalize(degs.pop())


# ---------------------------------------------------------------------------
# regularity via the characteristic function
# ---------------------------------------------------------------------------


class RegularityReport:
    def __init__(self, is_regular, exponents, epsilon, milnor_number):
        self.is_regular = is_regular
        self.exponents = exponents
        self.epsilon = epsilon
        self.milnor_number = milnor_number

    def __repr__(self):
        return "RegularityReport(is_regular=%r, exponents=%r, epsilon=%d, milnor_number=%r)" % (
            self.is_regular,
            self.exponents,
            self.epsilon,
            self.milnor_number,
        )


def _laurent_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _laurent_divide(num, den):
    """Exact division of integer Laurent polynomials; None if inexact."""
    num = dict(num)
    d0 = min(den)
    c0 = den[d0]
    quot = {}
    while num:
        e = min(num)
        c = num[e]
        if c % c0:
            return None
        q = c // c0
        qe = e - d0
        quot[qe] = quot.get(qe, 0) + q
        for de, dc in den.items():
            te = qe + de
            s = num.get(te, 0) - q * dc
            if s:
                num[te] = s
            else:
                num.pop(te, None)
        if num and min(num) <= e:
            return None  # lowest term not cancelled: not exact
    return quot


def characteristic_function(W):
    """chi_W as an integer Laurent polynomial, or None when it has poles."""
    a, b, c, h = W.a, W.b, W.c, W.h
    num = {-h: 1}
    for w in (a, b, c):
        num = _laurent_mul(num, {h: 1, w: -1})
    for w in (a, b, c):
        num = _laurent_divide(num, {w: 1, 0: -1})
        if num is None:
            return None
    return num


def regularity(W):
    """Exact regularity check; exponents with multiplicity when regular."""
    chi = characteristic_function(W)
    if chi is None or any(c < 0 for c in chi.values()):
        return RegularityReport(False, [], W.epsilon, None)
    exponents = []
    for e in sorted(chi):
        exponents.extend([e] * chi[e])
    return RegularityReport(True, exponents, W.epsilon, len(exponents))


# ---------------------------------------------------------------------------
# monomial bases and the Jacobi ring
# ---------------------------------------------------------------------------


def monomial_basis(W, d):
    """Exponent triples of normalized degree d, in ascending lex order.

    ``d`` may be a Fraction/int in the normalized scale (deg f = 2).  Empty
    when d is negative or not attainable on the (2/h)Z lattice.
    """
    w2 = _frac(d) * W.h
    if w2.denominator != 1 or w2.numerator % 2:
        return []
    return list(weighted_monomials(W.a, W.b, W.c, w2.numerator // 2))


@lru_cache(maxsize=4096)
def weighted_monomials(a, b, c, w):
    """Exponent triples (i, j, k) with a*i + b*j + c*k == w, ascending lex.

    The integer-degree core of :func:`monomial_basis`, memoized on the plain
    ints (a, b, c, w); the result is a shared tuple, empty when w < 0.
    """
    out = []
    for i in range(w // a + 1):
        ra = w - i * a
        for j in range(ra // b + 1):
            rb = ra - j * b
            if rb % c == 0:
                out.append((i, j, rb // c))
    return tuple(out)


def _monomial_index(monomials):
    return {m: idx for idx, m in enumerate(monomials)}


def _span_rank(vectors):
    """Rank of a list of polynomials expressed over an indexed monomial set.

    vectors: list of (poly, index_map); coefficients are cleared to Gaussian
    integers row by row.
    """
    rows = [kernel.row_from_fractions(
        [(index[e], c.a, c.b, c.d) for e, c in poly.terms.items()])[0]
        for poly, index in vectors]
    return kernel.rank(rows)


def milnor_poincare(f, W):
    """Graded dimensions of the Jacobi ring R/(f_x, f_y, f_z).

    Returns (total_dim, graded_dims) with graded_dims[w] the dimension in
    integer weighted degree w.  The regularity exponent count is a certified
    stopping bound: degrees are scanned through the socle bound and the
    cumulative dimension must land exactly on that count.
    """
    report = regularity(W)
    if not report.is_regular:
        raise PolyError("weight system is not regular")
    predicted = report.milnor_number
    partials = [f.diff(v) for v in "xyz"]
    pdegs = [W.h - w for w in W.weights]
    for p, d in zip(partials, pdegs):
        if p and weighted_degree(p, W) != W.normalize(d):
            raise PolyError("f is not weighted-homogeneous of degree 2")
    socle = 3 * W.h - 2 * (W.a + W.b + W.c)
    dims = []
    total = 0
    for w in range(socle + 1):
        basis = monomial_basis(W, W.normalize(w))
        index = _monomial_index(basis)
        gens = []
        for p, d in zip(partials, pdegs):
            if not p:
                continue
            for m in monomial_basis(W, W.normalize(w - d)):
                gens.append((Poly.monomial(m) * p, index))
        dim = len(basis) - _span_rank(gens)
        dims.append(dim)
        total += dim
        if total > predicted:
            raise PolyError(
                "Jacobi dimension exceeds the regularity prediction "
                "(non-isolated singularity or inconsistent input)"
            )
    if total != predicted:
        raise PolyError(
            "Jacobi ring not finite dimensional within the socle bound"
        )
    while dims and dims[-1] == 0:
        dims.pop()
    return total, dims


# ---------------------------------------------------------------------------
# the ADE list
# ---------------------------------------------------------------------------

ADE_TYPES = ("A", "D", "E")


def parse_type(type_str):
    """'D5' -> ('D', 5); raises PolyError on anything else."""
    if not isinstance(type_str, str) or len(type_str) < 2:
        raise PolyError("unknown type %r" % (type_str,))
    letter = type_str[0].upper()
    if letter not in ADE_TYPES or not type_str[1:].isdigit():
        raise PolyError("unknown type %r" % (type_str,))
    l = int(type_str[1:])
    if letter == "A" and l >= 1:
        return letter, l
    if letter == "D" and l >= 4:
        return letter, l
    if letter == "E" and l in (6, 7, 8):
        return letter, l
    raise PolyError("unknown type %r" % (type_str,))


def ade_weight_system(type_str, b=None):
    letter, l = parse_type(type_str)
    if letter == "A":
        if b is None:
            b = 1
        if not isinstance(b, int) or not 1 <= b <= l:
            raise PolyError("b must satisfy 1 <= b <= l for A types")
        return WeightSystem(1, b, l + 1 - b, l + 1)
    if letter == "D":
        return WeightSystem(l - 2, 2, l - 1, 2 * (l - 1))
    return {
        6: WeightSystem(4, 3, 6, 12),
        7: WeightSystem(6, 4, 9, 18),
        8: WeightSystem(10, 6, 15, 30),
    }[l]


def ade_polynomial(type_str, b=None):
    """The ADE polynomial and weight system; A types carry the b parameter."""
    letter, l = parse_type(type_str)
    W = ade_weight_system(type_str, b)
    if letter == "A":
        f = X ** (l + 1) + Y * Z
    elif letter == "D":
        f = X ** 2 * Y + Y ** (l - 1) + Z ** 2
    elif l == 6:
        f = X ** 3 + Y ** 4 + Z ** 2
    elif l == 7:
        f = X ** 3 + X * Y ** 3 + Z ** 2
    else:
        f = X ** 3 + Y ** 5 + Z ** 2
    return f, W
