"""Morphism spaces and categorical structure in the homotopy category.

A closed morphism between graded matrix factorizations is a matrix pair
satisfying the cocycle equations; null-homotopic morphisms form the image
of the boundary map.  Both are finite linear problems over Q(i) once the
grading pins the admissible monomials of every entry, so Hom dimensions,
witness bases, endomorphism algebras and Auslander-Reiten triangles all
reduce to exact rank computations.
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

from . import kernel
from .catalog import Catalog, _per_catalog
from .gring import ZERO, GaussRat, Poly, PolyError, weighted_monomials
from .mf import (
    GradedMF,
    Morphism,
    _block_components,
    _expect,
    cone,
    mat_identity,
    mat_is_zero,
    mat_mul,
    reduce,
    serre,
    serre_inverse,
    shift_T,
    tau,
    verify_grading,
    verify_mf,
    verify_morphism,
)

_VARS = ("x", "y", "z")


def _clear_row(items):
    """[(col, GaussRat)] -> (kernel row, scale); row equals scale * items."""
    return kernel.row_from_fractions([(col, c.a, c.b, c.d) for col, c in items])


def _same_potential(a, b):
    """PolyError unless a and b (objects or a catalog) share W and f."""
    if a.W != b.W or a.f != b.f:
        raise PolyError("morphism between different potentials or weights")


def _same_object(a, b, what):
    """PolyError unless objects a and b are equal by value (identity first)."""
    if a is not b and a != b:
        raise PolyError(what)


def _on_catalog(cat, g):
    """PolyError unless cat is a Catalog and g a GradedMF of its potential."""
    _expect(Catalog, cat)
    _expect(GradedMF, g)
    _same_potential(cat, g)


def _denominator(g):
    """lcm of the coefficient denominators of g's blocks; kept per blocks."""
    L = g._block_memo.get("L")
    if L is None:
        L = 1
        for mat in (g.phi, g.psi):
            for row in mat:
                for p in row:
                    for co in p.terms.values():
                        if co.d != 1:
                            L = math.lcm(L, co.d)
        g._block_memo["L"] = L
    return L


def _lines(g, block, by_col, scale, sign, stride, B):
    """Templates of g's block ``"phi"`` or ``"psi"``, one kernel row per row
    (per column with ``by_col``), built once per blocks: the term c*x^e of
    the entry at index k along the line sits at column k*stride*B^3 +
    code(e), with value sign*scale*c (scale a multiple of every denominator).
    """
    key = ("tables", scale, by_col, sign, block, stride, B)
    lines = g._block_memo.get(key)
    if lines is None:
        mat, E = getattr(g, block), B ** 3
        lines = g._block_memo[key] = []
        for line in range(g.r):
            cols, res, ims = row = ([], [], [])
            for k in range(g.r):
                p = mat[k][line] if by_col else mat[line][k]
                for (e0, e1, e2), co in sorted(p.terms.items()):
                    q = sign * (scale // co.d)
                    cols.append(k * stride * E + (e0 * B + e1) * B + e2)
                    res.append(co.a * q)
                    ims.append(co.b * q)
            lines.append(row)
    return lines


class _CodeTable(dict):
    """{d: code(m) = (m0*B + m1)*B + m2 of each monomial m of weighted degree
    d / step, ascending, or () unless step divides d}, filled on first use
    of each d and shared through :func:`_code_table`."""

    def __init__(self, a, b, c, step, B):
        self.args = a, b, c, step, B

    def __missing__(self, d):
        a, b, c, step, B = self.args
        codes = self[d] = () if d % step else tuple(
            (m0 * B + m1) * B + m2
            for m0, m1, m2 in weighted_monomials(a, b, c, d // step))
        return codes


_code_table = functools.lru_cache(maxsize=256)(_CodeTable)


class _System:
    """The linear model of Hom(src, dst): variables, cocycle map, boundaries.

    Variables enumerate the admissible monomials of every entry of the block
    pair (phi0, phi1); the cocycle map and the boundary generators are
    assembled monomial by monomial and handed to the kernel as sparse rows.
    Only the phi-block E0 = dst.phi*phi1 - phi0*src.phi is assembled: as
    dst.psi*dst.phi = src.phi*src.psi = f*1, dst.psi*E0*src.psi = -f*E1 for
    the psi-block E1 = dst.psi*phi0 - phi1*src.psi, and k[x,y,z] is a domain,
    E0 = 0 forces E1 = 0.  This needs src and dst to factor one f, as does
    dim = nvars - rank Z - rank B (boundaries are cocycles only then).

    Columns are additive codes.  B is a power of two above every entry
    degree of the system, so code(m) = (m0*B + m1)*B + m2 has code(m + e) =
    code(m) + code(e) and ascends in lex order.  Variable (blk, i, j, m) is
    column ((blk*rd + i)*rs + j)*B^3 + code(m), with rd = dst.r and rs =
    src.r (see :meth:`code` and :meth:`key`; ``columns`` lists them
    ascending), and entry (i, k) of E0 at m is (i*rs + k)*B^3 + code(m).
    So the image d(e_v) of v = (1, i, j, m) is the template of column i of
    dst.phi (see :func:`_lines`) plus j*B^3 + code(m), and a boundary row is
    two templates plus constants.  Rows may share coefficient lists with a
    template, as the kernel never mutates an input row.  ``images`` holds
    d(e_v) in column order and ``cocycle_rows``, the equations E0 = 0 that
    :func:`kernel.nullspace` solves, their transpose, one row per column of
    E0 that some image meets, in column order; both are built when read.

    Assembly runs on Python ints only: the blocks' coefficients are scaled
    by their common denominator L, which the kernel's content normalization
    absorbs, and slot degrees are integers on the h*D scale (D = 1 unless
    slots sit off the (1/h)Z lattice).  Templates live in an object's block
    memo, which every twist tau^n of it shares.

    ``cocycles=False`` or ``boundaries=False`` leaves that row family empty,
    for a caller that already knows its rank (see :func:`hom_dim`); the
    variables are always enumerated, so ``nvars`` is always set.
    """

    def __init__(self, src, dst, cocycles=True, boundaries=True):
        _expect(GradedMF, src, dst)
        _same_potential(src, dst)
        self.src, self.dst = src, dst
        W = src.W
        a, b, c, h = W.a, W.b, W.c, W.h
        D = math.lcm(src.h_degrees()[0], dst.h_degrees()[0])
        ss, sbs = src.h_slots(D)
        sd, sbd = dst.h_slots(D)
        self._slots = (sd, ss), (sbd, sbs)
        self._step = step = 2 * D  # one unit of integer weighted degree
        one = h * D  # normalized degree 1
        rd, rs = dst.r, src.r
        # no entry in play has a degree above the slot spread plus one; with
        # B at least 64, most systems share one B, and so their templates
        slots = (*ss, *sbs, *sd, *sbd)
        top = (max(slots) + one - min(slots)) // step if slots else 0
        self.B = B = max(64, 1 << top.bit_length())
        E = B ** 3
        table = _code_table(a, b, c, step, B)

        def admissible(drow, dcol, shift=0):
            """[(i, j, codes)] over the entries whose degree
            (drow[i] - shift - dcol[j]) / step admits monomials, in (i, j)
            order."""
            out = []
            for i, di in enumerate(drow):
                di -= shift
                for j, dj in enumerate(dcol):
                    if dj <= di:
                        codes = table[di - dj]
                        if codes:
                            out.append((i, j, codes))
            return out

        self._entries = [(blk, i, j, ((blk * rd + i) * rs + j) * E, codes)
                         for blk, (drow, dcol) in enumerate(self._slots)
                         for i, j, codes in admissible(drow, dcol)]
        self.nvars = sum([len(e[4]) for e in self._entries])
        self.boundary_rows = rows = []
        self._templates = None
        if not self.nvars or not (cocycles or boundaries):
            return
        L = math.lcm(_denominator(src), _denominator(dst))
        dphi = _lines(dst, "phi", True, L, 1, rs, B)
        if cocycles:
            self._templates = dphi, _lines(src, "phi", False, L, -1, 1, B)
        if not boundaries:
            return
        # Boundary generators: the image of every admissible homotopy
        # monomial hA (dst-first x src-second) and hB (dst-second x
        # src-first) under H -> (phi'*hB + hA*psi, psi'*hA + hB*phi); the
        # block 0 template comes first, so the columns increase.
        spsi = _lines(src, "psi", False, L, 1, 1, B)
        dpsi = _lines(dst, "psi", True, L, 1, rs, B)
        sphi = _lines(src, "phi", False, L, 1, 1, B)
        for (c0, r0, i0), (c1, r1, i1), o0, o1, codes in (
                [(spsi[j], dpsi[i], i * rs * E, (rd * rs + j) * E, codes)
                 for i, j, codes in admissible(sd, sbs, one)]
                + [(dphi[i], sphi[j], j * E, (rd + i) * rs * E, codes)
                   for i, j, codes in admissible(sbd, ss, one)]):
            res, ims = r0 + r1, i0 + i1
            for cm in codes:
                a0, a1 = o0 + cm, o1 + cm
                rows.append(([t + a0 for t in c0] + [t + a1 for t in c1],
                             res, ims))

    def images_off(self, skip):
        """d(e_v) for every variable v not in ``skip``, in column order; []
        when no cocycles were assembled."""
        if self._templates is None:
            return []
        (dphi, nsphi), E, rs = self._templates, self.B ** 3, self.src.r
        out = []
        for blk, i, j, base, codes in self._entries:
            # dst.phi[k][i] * phi1[i][j] lands in E0[k][j] and
            # -phi0[i][j] * src.phi[j][k] in E0[i][k]
            cols, res, ims = dphi[i] if blk else nsphi[j]
            off = j * E if blk else i * rs * E
            for cm in codes:
                if base + cm not in skip:
                    o = off + cm
                    out.append(([t + o for t in cols], res, ims))
        return out

    images = functools.cached_property(lambda self: self.images_off(()))
    columns = functools.cached_property(lambda self: [
        base + cm for *_, base, codes in self._entries for cm in codes])

    @functools.cached_property
    def cocycle_rows(self):
        """The transpose of ``images``, keyed by the column of E0."""
        eqs = {}
        for v, (cols, res, ims) in zip(self.columns, self.images):
            for t, re, im in zip(cols, res, ims):
                vs, eq_res, eq_ims = eqs.setdefault(t, ([], [], []))
                vs.append(v)
                eq_res.append(re)
                eq_ims.append(im)
        return [eqs[t] for t in sorted(eqs)]

    def code(self, blk, i, j, mon):
        """The column of variable (blk, i, j, mon); None unless monomial mon
        has the degree of that entry."""
        (drow, dcol), (m0, m1, m2), W = self._slots[blk], mon, self.src.W
        if self._step * (W.a * m0 + W.b * m1 + W.c * m2) != drow[i] - dcol[j]:
            return None
        B = self.B
        return (((blk * self.dst.r + i) * self.src.r + j) * B ** 3
                + (m0 * B + m1) * B + m2)

    def key(self, code):
        """(blk, i, j, monomial) of the variable at column ``code``."""
        B = self.B
        q, m = divmod(code, B ** 3)
        q, j = divmod(q, self.src.r)
        blk, i = divmod(q, self.dst.r)
        return blk, i, j, (m // (B * B),) + divmod(m % (B * B), B)

    def pivot_variables(self, pivots):
        """The columns of the block-1 variables (1, i, k, m) at the E0 entries
        (i, k) and monomials m of ``pivots``, a :class:`_Pivots` of a system
        with this one's rd and rs, re-coded if its B differs from this one's.

        ArithmeticError if a monomial has an exponent of B or more: it is no
        variable, and its code would land on another column.
        """
        B, Bp, shift = self.B, pivots.B, self.dst.r * self.src.r
        if Bp == B:
            off = shift * B ** 3
            return {c + off for c in pivots.cols}
        out = set()
        for c in pivots.cols:
            q, m = divmod(c, Bp ** 3)
            m0, m = divmod(m, Bp * Bp)
            m1, m2 = divmod(m, Bp)
            if max(m0, m1, m2) >= B:
                raise ArithmeticError("pivot monomial past this system's B")
            out.add((q + shift) * B ** 3 + (m0 * B + m1) * B + m2)
        return out

    def morphism_from_row(self, row):
        """Integer kernel row in variable space -> Morphism."""
        phi = [[[Poly()] * self.src.r for _ in range(self.dst.r)]
               for _ in range(2)]
        for c, re, im in zip(*row):
            blk, i, j, mon = self.key(c)
            phi[blk][i][j] += Poly.monomial(mon, GaussRat(re, im))
        return Morphism(self.src, self.dst, *phi)


def _vectorize(sys, m):
    """Morphism -> (kernel row, scale): row equals scale * coefficient vector
    over the columns of ``sys``, the morphism's ``_System``."""
    items = []
    for blk, mat in ((0, m.phi0), (1, m.phi1)):
        for i, row in enumerate(mat):
            for j, p in enumerate(row):
                for mon, c in p.terms.items():
                    code = sys.code(blk, i, j, mon)
                    if code is None:
                        raise PolyError(
                            "morphism entry (%d,%d,%d) has a monomial of "
                            "inadmissible degree" % (blk, i, j))
                    items.append((code, c))
    return _clear_row(items)


class HomSpace:
    """Hom(src, dst) in the homotopy category with a witness basis.

    ``basis`` lists closed morphisms whose classes form a basis; coordinates
    of any closed morphism in that basis (modulo boundaries) come from an
    exact solve.
    """

    def __init__(self, src, dst, dim, basis, system, solve_columns):
        self.src = src
        self.dst = dst
        self.dim = dim
        self.basis = basis
        self._system = system
        self._solve_columns = solve_columns

    def coordinates(self, m):
        """Coefficients of [m] over ``basis``; raises if m is not closed.

        PolyError unless m is a Morphism from ``src`` to ``dst``.
        """
        _expect(Morphism, m)
        _same_object(m.src, self.src, "morphism from another source")
        _same_object(m.dst, self.dst, "morphism to another target")
        row, scale = _vectorize(self._system, m)
        sol = kernel.solve(self._solve_columns, row)
        if sol is None:
            raise PolyError("morphism is not a closed cocycle")
        (cols, res, ims), den = sol
        out = [ZERO] * self.dim
        den *= scale
        for c, re, im in zip(cols, res, ims):
            if c >= self.dim:
                break
            out[c] = GaussRat.from_ints(re, im, den)
        return out


def hom_space(src, dst):
    """Full Hom space with witness basis and coordinate solver."""
    sys = _System(src, dst)
    _, zrows = kernel.nullspace(sys.cocycle_rows, sys.columns)
    chosen, rank_b = kernel.select_independent(sys.boundary_rows, zrows)
    basis = [sys.morphism_from_row(zrows[i]) for i in chosen]
    # rank B + len(chosen) = rank(B + Z) >= len(Z), with equality iff B lies
    # in span Z
    dim = len(zrows) - rank_b
    if dim != len(chosen):
        raise ArithmeticError("boundary image escapes the cocycle space")
    solve_columns = [zrows[i] for i in chosen] + sys.boundary_rows
    return HomSpace(src, dst, dim, basis, sys, solve_columns)


def _free_images(sys):
    """(rank B, the images of the variables off the pivots of B's echelon).

    B lies in the kernel of the cocycle map d^0, and for each pivot p its
    span holds a vector that is 1 at p and 0 at every other pivot, so the
    image of p is a combination of the images of the non-pivot variables.
    Those nvars - rank B images therefore span the image of d^0, and
    exactly dim Hom of them are dependent.  The argument holds for any
    information set of span(B) in place of the pivots (see :func:`hom_dim`).
    """
    ech = kernel.echelon(sys.boundary_rows)
    return ech.rank, sys.images_off(ech.pivots)


class _Pivots:
    """A differential's rank as the pivot columns ``cols`` (E0 columns of a
    system whose B is ``B``) of an echelon of its images; see :func:`hom_dim`.
    ``cols`` is an ``array('q')``, or a tuple for columns past 2^63.
    """

    __slots__ = ("B", "cols")

    def __init__(self, B, cols):
        self.B = B
        try:
            self.cols = array("q", cols)
        except OverflowError:
            self.cols = tuple(cols)

    def __len__(self):
        return len(self.cols)


def _memo_rank(value):
    """The rank a rank-memo value records: None (unknown), an int, or the
    length of a :class:`_Pivots`; PolyError for any other value."""
    if value is None or type(value) is int:
        return value
    if isinstance(value, _Pivots):
        return len(value)
    raise PolyError("a rank memo value must be an int or a pivot set, got %r"
                    % (value,))


def hom_dim(src, dst, ranks=None):
    """dim Hom(src, dst) = nvars - rank Z - rank B, from exact ranks over Q(i).

    Rank-only: no witness basis is built (see :func:`hom_space`).  Z is the
    image of the cocycle map and B the span of the boundary rows, which lies
    in its kernel, so rank Z + rank B <= nvars.

    - Neither rank known: B is echeloned once and rank Z is the rank of the
      images of the variables off its pivots (see :func:`_free_images`).
    - Rank B known as a :class:`_Pivots`: B is the cocycle map of the system
      before this one on the chain (see :func:`_class_dim`), and its pivots
      are E0 entries (i, k) at monomials m.  Such an entry of that system's
      images is, up to sign, the block-1 entry (i, k, m) of a boundary row
      here, and E0 = 0 forces E1 = 0 (see :class:`_System`), so span(B)
      projects injectively onto block 1, and the pivots, mapped to the
      variables (1, i, k, m) by :meth:`_System.pivot_variables`, are an
      information set of span(B).  Rank Z is then ranked from the nvars -
      rank B images off them, and no boundary row is assembled.
    - Rank B known as an int and rank Z not: the int is not read, as the
      images skip only the variables of a pivot set; B is echeloned as if
      unknown.
    - Rank Z known and rank B not: the boundary rows are ranked only until
      their rank reaches nvars - rank Z, which is exact and cuts the
      elimination short whenever the dimension is 0.

    ``ranks`` is ``(memo, z_key, b_key)``, a dict and the keys of the two
    differentials of the Hom complex whose ranks are rank Z and rank B (see
    :func:`_class_dim`).  A memo value is an int in [0, nvars] or a
    :class:`_Pivots`, else PolyError.  A rank found in the memo is not
    computed again, and a rank computed is stored, rank Z as a
    :class:`_Pivots` whenever it was ranked from images.  A pivot set read
    as rank B is replaced by its length: no other system reads it.
    ArithmeticError if the pivots leave other than nvars - rank B images or
    the dimension comes out negative.
    """
    if ranks is None:
        ranks = {}, "Z", "B"
    try:  # a tuple of a dict and two keys, which must hash
        if not (isinstance(ranks, tuple) and isinstance(ranks[0], dict)):
            raise TypeError
        memo, z_key, b_key = ranks
        z_val, b_val = memo.get(z_key), memo.get(b_key)
    except (TypeError, ValueError, IndexError):
        raise PolyError("ranks must be a (dict, key, key) triple, got %r"
                        % (ranks,)) from None
    rank_z, rank_b = _memo_rank(z_val), _memo_rank(b_val)
    pivots = b_val if isinstance(b_val, _Pivots) else None
    sys = _System(src, dst, rank_z is None,
                  pivots is None and None in (rank_z, rank_b))
    for r in (rank_z, rank_b):
        if r is not None and not 0 <= r <= sys.nvars:
            raise PolyError("memoized rank %d outside [0, %d]" % (r, sys.nvars))
    if pivots is not None:
        memo[b_key] = rank_b
    elif rank_z is None:
        rank_b = None  # the images skip only the variables of a pivot set
    if not sys.nvars:
        return 0
    if rank_z is None:
        if pivots is None:
            rank_b, images = _free_images(sys)
            memo[b_key] = rank_b
        else:
            images = sys.images_off(sys.pivot_variables(pivots))
        if len(images) != sys.nvars - rank_b:
            raise ArithmeticError("the pivots of B are not %d variables"
                                  % rank_b)
        ech = kernel.echelon(images)
        rank_z = ech.rank
        memo[z_key] = _Pivots(sys.B, ech.pivots)
    elif rank_b is None:
        rank_b = memo[b_key] = kernel.rank(sys.boundary_rows, sys.nvars - rank_z)
    dim = sys.nvars - rank_z - rank_b
    if dim < 0:
        raise ArithmeticError("memoized ranks exceed the %d variables"
                              % sys.nvars)
    return dim


# ---------------------------------------------------------------------------
# morphism arithmetic


def compose(after, before):
    """after o before (apply ``before`` first)."""
    _expect(Morphism, after, before)
    _same_object(after.src, before.dst, "composition of incompatible morphisms")
    return Morphism(before.src, after.dst,
                    mat_mul(after.phi0, before.phi0),
                    mat_mul(after.phi1, before.phi1))


def _mat_add(A, B):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def _parallel(a, b):
    """PolyError unless morphisms a and b share source and target."""
    _expect(Morphism, a, b)
    _same_object(a.src, b.src, "morphisms between different objects")
    _same_object(a.dst, b.dst, "morphisms between different objects")


def morphism_add(a, b):
    _parallel(a, b)
    return Morphism(a.src, a.dst, _mat_add(a.phi0, b.phi0),
                    _mat_add(a.phi1, b.phi1))


def morphism_sub(a, b):
    return morphism_add(a, morphism_scale(-1, b))


def morphism_scale(c, m):
    if not isinstance(c, (int, Fraction, GaussRat)):
        raise PolyError("scalar expected")
    return morphism_scale_poly(Poly.const(c), m)


def morphism_eq(a, b):
    _parallel(a, b)
    return a.phi0 == b.phi0 and a.phi1 == b.phi1


def boundary_of(src, dst, hA, hB):
    """The boundary morphism of a homotopy pair (hA, hB).

    hA maps src second-half slots to dst first-half slots, hB the other
    diagonal; the boundary is (dst.phi*hB + hA*src.psi,
    dst.psi*hA + hB*src.phi).
    """
    return Morphism(src, dst,
                    _mat_add(mat_mul(dst.phi, hB), mat_mul(hA, src.psi)),
                    _mat_add(mat_mul(dst.psi, hA), mat_mul(hB, src.phi)))


def jacobi_homotopy(m, name):
    """Explicit homotopy killing (d f/d name) * m.

    Returns (hA, hB) with boundary exactly equal to the scaled morphism:
    hA = phi0 * d(src.phi), hB = phi1 * d(src.psi).
    """
    _expect(Morphism, m)
    if name not in _VARS:
        raise PolyError("unknown variable %r" % (name,))
    src = m.src
    dphi = tuple(tuple(p.diff(name) for p in row) for row in src.phi)
    dpsi = tuple(tuple(p.diff(name) for p in row) for row in src.psi)
    hA = mat_mul(m.phi0, dphi)
    hB = mat_mul(m.phi1, dpsi)
    return hA, hB


def check_jacobi_annihilation(m):
    """Verify d_v f * m = boundary(jacobi_homotopy(m, v)) for v in x, y, z."""
    for name in _VARS:
        hA, hB = jacobi_homotopy(m, name)
        target = morphism_scale_poly(m.src.f.diff(name), m)
        got = boundary_of(m.src, m.dst, hA, hB)
        if not morphism_eq(got, target):
            return False
    return True


def morphism_scale_poly(p, m):
    """Multiply a morphism by a polynomial (an R-module action)."""
    _expect(Morphism, m)
    phi0 = tuple(tuple(p * q for q in row) for row in m.phi0)
    phi1 = tuple(tuple(p * q for q in row) for row in m.phi1)
    return Morphism(m.src, m.dst, phi0, phi1)


# ---------------------------------------------------------------------------
# idempotent splitting
# The engine no longer calls this block (decompose takes complements as
# reduced cones); it stays because the benchmark tracer wraps it by name.


def _constant_part(mat, sleft, sright):
    out = [[GaussRat(0)] * len(mat[0]) for _ in mat] if mat else []
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            c = p.constant_term()
            if c:
                if sleft[i] != sright[j]:
                    raise ArithmeticError("constant entry between unequal slots")
                out[i][j] = c
    return out


def _scalar_to_poly(mat):
    return tuple(tuple(Poly.const(c) for c in row) for row in mat)


def _scalar_mul(A, B):
    """Exact product of two GaussRat matrices, visiting nonzero entries only."""
    if A and len(A[0]) != len(B):
        raise PolyError("_scalar_mul of %dx%d by %dx%d matrices"
                        % (len(A), len(A[0]), len(B), len(B[0]) if B else 0))
    m = len(B[0]) if B else 0
    brows = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for row in A:
        acc = [ZERO] * m
        for t, a in enumerate(row):
            if a:
                for j, b in brows[t]:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return out


def _rank_factor(E):
    """Idempotent scalar matrix E = W*V with V*W = id; returns (W, V, cols)."""
    n = len(E)
    # column j of E as (kernel row, scale)
    ecols = [_clear_row([(i, E[i][j]) for i in range(n) if E[i][j]])
             for j in range(n)]
    cols = []
    ech = kernel.Echelon()
    for j in range(n):
        if ech.insert(ecols[j][0]):
            cols.append(j)
    m = len(cols)
    Wm = [[E[i][j] for j in cols] for i in range(n)]
    wcols = [ecols[j][0] for j in cols]
    V = [[GaussRat(0)] * n for _ in range(m)]
    for j in range(n):
        rhs, scale = ecols[j]
        sol = kernel.solve(wcols, rhs)
        if sol is None:
            raise ArithmeticError("column outside the image of the idempotent")
        (tcols, res, ims), den = sol
        den *= scale
        for t, re, im in zip(tcols, res, ims):
            V[t][j] = GaussRat.from_ints(re, im, den)
    prod = _scalar_mul(V, Wm)
    for i in range(m):
        for j in range(m):
            if prod[i][j] != (GaussRat(1) if i == j else GaussRat(0)):
                raise ArithmeticError("rank factorization failed")
    return Wm, V, cols


def _neumann_inverse(N):
    """(1 + N)^-1 for a matrix with positive-degree entries (nilpotent)."""
    m = len(N)
    acc = mat_identity(m)
    term = mat_identity(m)
    negN = tuple(tuple(-p for p in row) for row in N)
    for _ in range(4 * m + 64):
        term = mat_mul(negN, term)
        if mat_is_zero(term):
            return acc if isinstance(acc, tuple) else tuple(map(tuple, acc))
        acc = tuple(tuple(x + y for x, y in zip(ra, rb))
                    for ra, rb in zip(acc, term))
    raise ArithmeticError("Neumann series did not terminate")


def _strict_split(g, ehat):
    """Split a strict idempotent endomorphism into (summand, incl, proj)."""
    S = g.S
    r = g.r
    s_half, sbar_half = S[:r], S[r:]
    iotas, rhos, degs = [], [], []
    for blk, (emat, slots) in enumerate(
            ((ehat.phi0, s_half), (ehat.phi1, sbar_half))):
        E0 = _constant_part(emat, slots, slots)
        if _scalar_mul(E0, E0) != E0:
            raise ArithmeticError("constant part is not idempotent")
        Wm, V, cols = _rank_factor(E0)
        Wp = _scalar_to_poly(Wm)
        Vp = _scalar_to_poly(V)
        # U = 1 + eta(2*E0 - 1) conjugates E0 into emat: emat*U = U*E0,
        # so U*W frames the image of emat and V*U^{-1} retracts onto it.
        eta = [list(row) for row in emat]
        refl = [[Poly()] * r for _ in range(r)]
        for i in range(r):
            refl[i][i] = Poly.const(-1)
            for j, c in enumerate(E0[i]):
                if c:
                    eta[i][j] = emat[i][j] - Poly.const(c)
                    refl[i][j] = Poly.const(2 * c - (1 if i == j else 0))
        D = mat_mul(eta, refl)
        U = tuple(tuple(D[i][j] + Poly.const(1) if i == j else D[i][j]
                        for j in range(r)) for i in range(r))
        iota = mat_mul(U, Wp)
        rho = mat_mul(Vp, _neumann_inverse(D))
        m = len(cols)
        if m == 0:
            # rank-zero image: the idempotent must vanish outright
            if not mat_is_zero(emat):
                raise ArithmeticError("splitting does not recover the idempotent")
            iota = tuple(() for _ in range(r))
            rho = ()
        else:
            if mat_mul(rho, iota) != mat_identity(m):
                raise ArithmeticError("splitting retraction failed")
            if mat_mul(iota, rho) != emat:
                raise ArithmeticError("splitting does not recover the idempotent")
        iotas.append(iota)
        rhos.append(rho)
        degs.append(tuple(slots[j] for j in cols))
    S_y = degs[0] + degs[1]
    phi_y = mat_mul(rhos[0], mat_mul(g.phi, iotas[1]))
    psi_y = mat_mul(rhos[1], mat_mul(g.psi, iotas[0]))
    Y = GradedMF(g.f, g.W, phi_y, psi_y, S_y, label="summand")
    bad = verify_mf(Y) + verify_grading(Y)
    if bad:
        raise ArithmeticError("split summand is broken: %s" % bad[0])
    incl = Morphism(Y, g, iotas[0], iotas[1])
    proj = Morphism(g, Y, rhos[0], rhos[1])
    for mm in (incl, proj):
        errs = verify_morphism(mm)
        if errs:
            raise ArithmeticError("splitting maps not closed: %s" % errs[0])
    return Y, incl, proj


def lift_idempotent(g, e):
    """Newton-lift a homotopy idempotent on a reduced object to a strict one.

    e^2 - e is a boundary, hence has entries of positive order when g has no
    unit entries; the correction e <- 3e^2 - 2e^3 doubles that order, and the
    bounded entry degrees force exact convergence.
    """
    cur = e
    for _ in range(64):
        sq = compose(cur, cur)
        if morphism_eq(sq, cur):
            return cur
        cur = morphism_sub(morphism_scale(3, sq),
                           morphism_scale(2, compose(sq, cur)))
    raise ArithmeticError("idempotent lift did not converge")


# ---------------------------------------------------------------------------
# identification against the catalog


def _constant_coords(sys, keys):
    """Per cocycle kernel row of sys, {t: (re, im)} over the nonzero
    coordinates of the constant monomial of phi0 entry keys[t].

    A kernel row is the coefficient vector of its morphism (see
    :meth:`_System.morphism_from_row`), so these are that morphism's
    constant terms, as Gaussian integers.
    """
    where = [(t, sys.code(*key, (0, 0, 0))) for t, key in enumerate(keys)]
    where = [(t, v) for t, v in where if v is not None]
    out = []
    for row in kernel.nullspace(sys.cocycle_rows, sys.columns)[1]:
        cols, res, ims = row
        vec = {}
        for t, vidx in where:
            p = bisect_left(cols, vidx)
            if p < len(cols) and cols[p] == vidx:
                vec[t] = (res[p], ims[p])
        out.append((row, vec))
    return out


def _pair_nonzero(u, v):
    """True when the Gaussian-integer dot product of u and v is nonzero."""
    re = im = 0
    for t, (a, b) in u.items():
        w = v.get(t)
        if w is not None:
            c, d = w
            re += a * c - b * d
            im += a * d + b * c
    return bool(re or im)


def _retraction(cat, g, k, n):
    """incl: M(k, n) -> g, a witness-basis vector of Hom(M, g) with some
    proj: g -> M making proj o incl != 0 in End(M); None if there is none.

    M is reduced and End(M) = k*id, so [proj o incl] = c*[id] with c the
    constant term of the (0, 0) entry of (proj o incl).phi0: the dot
    product of the constants of proj's row 0 and incl's column 0.  They are
    read off the cocycle kernel rows of both systems, with no boundary row
    and no witness basis, and give the witness-basis answer.  The pairing
    vanishes when either side is a boundary (proj o incl is then
    null-homotopic, with no constant term).  So some cocycle proj pairs
    nonzero iff some witness does, and the first kernel row of Hom(M, g)
    that pairs nonzero is a witness: the witness basis skips only rows in
    the span of the boundaries and earlier picks, which all pair to zero.
    """
    M = cat.object(k, n)
    projs = [vec for _, vec in _constant_coords(
        _System(g, M, boundaries=False), [(0, 0, j) for j in range(g.r)])
        if vec]
    if not projs:
        return None
    into = _System(M, g, boundaries=False)
    for row, col in _constant_coords(into, [(0, i, 0) for i in range(g.r)]):
        if col and any(_pair_nonzero(col, vec) for vec in projs):
            return into.morphism_from_row(row)
    return None


def identify_object(cat, g):
    """Identify g with a catalog object: returns (k, n) or None.

    Reduced g is that object when its first catalog summand (see
    :func:`_find_summand`) leaves the empty complement.
    """
    _on_catalog(cat, g)
    found = _find_summand(cat, reduce(g))
    if found is None or found[2].r:
        return None
    return found[:2]


@_per_catalog
def t_image(cat, k):
    """(k', n') with T(M^k_0) isomorphic to M^{k'}_{n'}, certified."""
    res = identify_object(cat, shift_T(cat.object(k, 0)))
    if res is None:
        raise ArithmeticError("T-image of vertex %d not found in catalog" % k)
    return res


@_per_catalog
def serre_image(cat, k):
    """(k', n') with S(M^k_0) isomorphic to M^{k'}_{n'}, certified.

    S(M^k_0) = tau^t T(M^k_0) by value (see :func:`_serre_t_offset`), so it
    is the certified T-image twisted t more.
    """
    kT, nT = t_image(cat, k)
    return kT, nT + _serre_t_offset(cat, k)


# ---------------------------------------------------------------------------
# class-level Hom dimensions


def class_hom_dim(cat, k, kprime, c):
    """dim Hom(M^k_n, M^k'_n') as a function of c = h*(phase' - phase).

    The linear system depends on the grading only through slot differences,
    so the dimension is a class function of (k, k', c); c values of the
    wrong parity admit no object pairs and count as zero.
    """
    _expect(Catalog, cat)
    n_prime = cat.twist(kprime, c, cat.sigma(k))
    if n_prime is None:
        return 0
    return _class_dim(cat, k, kprime, n_prime)


@_per_catalog
def _class_dim(cat, k, kprime, n_prime):
    """dim Hom(M^k_0, M^k'_n'), with its ranks shared through ``cat.memo``.

    Write X_m = M^k'_m.  The Hom complex C(M^k_0, X) is 2-periodic, with
    C^1(-, X) = C^0(-, TX), so its differential d^0_m out of C^0(-, X_m) is
    both the cocycle map of Hom(-, X_m) and the boundary map of
    Hom(-, T X_m), and d^1_m out of C^0(-, T X_m) is both the cocycle map
    of Hom(-, T X_m) and the boundary map of Hom(-, X_{m+h}), as
    T^2 X_m = X_{m+h} by value.  The memo holds rank d^p_m under
    ``("rank_d", k, k', p, m)``, filled here and by :func:`_serre_rhs_dim`:
    the pivot set of the echelon of its images (a :class:`_Pivots`) from
    the system that ranked it as its cocycle map, until the system that
    reads it as its boundary map, the next on the chain, replaces it by
    its rank (see :func:`hom_dim`).
    """
    return hom_dim(cat.object(k, 0), cat.object(kprime, n_prime),
                   (cat.memo, ("rank_d", k, kprime, 0, n_prime),
                    ("rank_d", k, kprime, 1, n_prime - cat.h)))


def hom_multiset(cat, k, kprime):
    """Sorted ((c, dim), ...) over the fundamental window c in [0, h-2].

    Scans c in [-4, h+2] and insists the margins are empty; a nonzero
    dimension outside the window is an engine error, not data.
    """
    _expect(Catalog, cat)
    out = []
    for c in range(-4, cat.h + 3):
        d = class_hom_dim(cat, k, kprime, c)
        if not d:
            continue
        if c < 0 or c > cat.h - 2:
            raise ArithmeticError(
                "nonzero Hom at c=%d outside [0, h-2] for (%s, k=%d, k'=%d)"
                % (c, cat.type_str, k, kprime))
        out.append((c, d))
    return tuple(out)


def serre_rhs_dim(cat, k_y, k_x, cprime):
    """dim Hom(M^k_y_0, S(M^k_x_n)) computed on the explicit Serre image.

    n is pinned so that h*(phase(S X) - phase(Y)) = cprime; returns 0 when no
    integral n exists.  The Serre image is used as a raw block pair, not
    identified against the catalog.
    """
    _expect(Catalog, cat)
    n = cat.twist(k_x, cprime, 2 - cat.h + cat.sigma(k_y))
    if n is None:
        return 0
    return _serre_rhs_dim(cat, k_y, k_x, n)


@_per_catalog
def _serre_rhs_dim(cat, k_y, k_x, n):
    # S commutes with tau, so S(M^k_x_n) = tau^n S(M^k_x_0), and every twist
    # shares the blocks of the one memoized image.  That image is T M^k_x_t
    # by value, so the target is T M^k_x_m with m = n + t, whose cocycle
    # map is d^1_m and boundary map d^0_m (see _class_dim).
    m = n + _serre_t_offset(cat, k_x)
    return hom_dim(cat.object(k_y, 0), _twisted_serre(cat, k_x, n),
                   (cat.memo, ("rank_d", k_y, k_x, 1, m),
                    ("rank_d", k_y, k_x, 0, m)))


@_per_catalog
def _vertex_serre(cat, k):
    """S(M^k_0) as a raw block pair, never identified against the catalog."""
    return serre(cat.object(k, 0))


@_per_catalog
def _twisted_serre(cat, k, n):
    """tau^n S(M^k_0), sharing the blocks of :func:`_vertex_serre`."""
    return tau(_vertex_serre(cat, k), n)


@_per_catalog
def _serre_t_offset(cat, k):
    """The t with S(M^k_0) = tau^t T(M^k_0) by value, read off the image.

    ArithmeticError unless the image has the blocks of T(M^k_0) and every
    slot moved by one common 2t/h, t an int: only then may the Serre
    right-hand side share ranks with the class path.
    """
    image, shifted = _vertex_serre(cat, k), shift_T(cat.object(k, 0))
    if image.phi != shifted.phi or image.psi != shifted.psi:
        raise ArithmeticError("Serre image of vertex %d does not have the "
                              "blocks of its T-image" % k)
    steps = {(s - s0) * cat.h / 2 for s, s0 in zip(image.S, shifted.S)}
    if len(steps) == 1 and min(steps).denominator == 1:
        return int(min(steps))
    raise ArithmeticError("Serre image of vertex %d is not a twist of its "
                          "T-image" % k)


def serre_duality_report(cat, lo=0, hi=2):
    """Check dim Hom(X,Y) = dim Hom(Y, S X) over a phase window; violations.

    The left side is computed on catalog objects, the right on the explicit
    Serre-image block pair (never identified back into the catalog), each
    from a linear system of its own.  Results are cached per dimension
    class, so the sweep builds one system per (k, k', c) class, not per
    object pair.  Systems on one chain share the ranks of their
    differentials (see :func:`_class_dim`), so each differential is ranked
    once: the left side of a comparison reads the chain (X, Y), the right
    the chain (Y, X), and ranks pass between comparisons.  Only when X and
    Y sit on one vertex and c = h - 1, which needs h odd, do the two sides
    of one comparison read one shared rank, that of the differential
    between their two systems; both sides are then 0.
    """
    _expect(Catalog, cat)
    window = cat.objects_in_window(lo, hi)
    viol = []
    for _, k_x, n_x in window:
        for _, k_y, n_y in window:
            c = cat.coord(k_y, n_y) - cat.coord(k_x, n_x)
            lhs = class_hom_dim(cat, k_x, k_y, c)
            rhs = serre_rhs_dim(cat, k_y, k_x, cat.h - 2 - c)
            if lhs != rhs:
                viol.append(
                    "dim Hom(M^%d_%d, M^%d_%d) = %d but dim Hom(-, S-) = %d"
                    % (k_x, n_x, k_y, n_y, lhs, rhs))
    return viol


def serre_multiset_mirror(cat, k, kprime):
    """Check c(k', k^S) = {h - 2 - c : c in c(k, k')} with multiplicity."""
    k_s, _ = serre_image(cat, k)
    left = hom_multiset(cat, kprime, k_s)
    right = tuple(sorted((cat.h - 2 - c, d)
                         for c, d in hom_multiset(cat, k, kprime)))
    return left == right


# ---------------------------------------------------------------------------
# Auslander-Reiten triangles


def ar_triangle_check(cat, k):
    """Check the AR-triangle at vertex k; returns a list of violations.

    The triangle is S^-1 X -> E -> X built on the unique class in
    Hom(S^-1 X, X); E is the cone, and its certified decomposition must be
    the sum of the diagram neighbors one phase step above X, the targets of
    the irreducible maps out of X in the doubled Dynkin quiver.
    """
    _expect(Catalog, cat)
    X = cat.object(k, 0)
    H = hom_space(serre_inverse(X), X)
    if H.dim != 1:
        return ["dim Hom(S^-1 X, X) = %d != 1 at k=%d" % (H.dim, k)]
    want = []
    for i in cat.diagram.neighbors(k):
        n_i = cat.twist(i, cat.sigma(k) + 1)
        if n_i is None:
            return ["neighbor %d not on the opposite parity class" % i]
        want.append((i, n_i))
    try:
        got = decompose(cat, cone(H.basis[0]))
    except ArithmeticError as exc:
        return ["cone does not decompose at k=%d: %s" % (k, exc)]
    if sorted(got) != sorted(want):
        return ["cone decomposes as %s, not the neighbor sum %s at k=%d"
                % (sorted(got), sorted(want), k)]
    return []


# ---------------------------------------------------------------------------
# decomposition into catalog objects


@_per_catalog
def _vertex_slots(cat, k):
    """Counters of M(k, 0)'s slot offsets from its phase per half, as ints
    on the h scale, where every catalog slot lies."""
    g = cat.object(k, 0)
    c = cat.coord(k, 0)
    degrees = g.h_degrees()[1]
    return [Counter(s - c for s in half)
            for half in (degrees[:g.r], degrees[g.r:])]


def _candidate_classes(cat, work):
    """(phase, k, n) candidates whose slot multisets embed into work's.

    An embedded candidate puts its top first-half slot on one of work's
    first-half slots, so one phase per distinct slot value is tried; one
    early-exit count test covers both halves.  Slots are ints on the h scale,
    where work's off-lattice slots meet no candidate's.  Sorted by (-phase, k).
    """
    D, degrees = work.h_degrees()
    s0 = Counter(s // D for s in degrees[:work.r] if not s % D)
    s1 = Counter(s // D for s in degrees[work.r:] if not s % D)
    cands = []
    for k in cat.diagram.vertices:
        want0, want1 = _vertex_slots(cat, k)
        top = max(want0)
        for v in s0:
            c = v - top
            if not (all(s0[q + c] >= m for q, m in want0.items())
                    and all(s1[q + c] >= m for q, m in want1.items())):
                continue
            n = cat.twist(k, c)
            if n is not None:
                cands.append((Fraction(c, cat.h), k, n))
    cands.sort(key=lambda t: (-t[0], t[1]))
    return cands


def _find_summand(cat, work):
    """Find one catalog summand of reduced work: (k, n, complement) or None.

    A retraction onto M makes incl: M -> work a split mono, so work is
    M + cone(incl); the reduced cone is reduced and homotopy equivalent to
    the complement, hence isomorphic to it.  A retract of work's size is
    work itself and leaves the empty complement.  Work equal by value to a
    candidate is that catalog object, which is indecomposable, so no
    smaller candidate retracts from it: it is settled before any Hom
    system is built.
    """
    empty = GradedMF(work.f, work.W, (), (), (), label="0")
    cands = _candidate_classes(cat, work)
    for _, k, n in cands:
        if cat.object(k, 0).r == work.r and work == cat.object(k, n):
            return k, n, empty
    for _, k, n in cands:
        incl = _retraction(cat, work, k, n)
        if incl is None:
            continue
        if incl.src.r == work.r:
            return k, n, empty
        rest = reduce(cone(incl))
        bad = verify_mf(rest) + verify_grading(rest)
        if rest.r != work.r - incl.src.r:
            bad.append("%d slots, not %d" % (rest.r, work.r - incl.src.r))
        if bad:
            raise ArithmeticError("complement of M^%d_%d: %s" % (k, n, bad[0]))
        return k, n, rest
    return None


def decompose(cat, g):
    """Split g into catalog classes: sorted list of (k, n), repetitions kept.

    g is reduced first and cut into the connected pieces of its block
    support (a slot relabeling, so an isomorphism; Krull-Schmidt lets each
    piece split alone).  A piece of a block sum equals its catalog summand
    by value and builds no Hom system.  In every other piece summands are
    found through nonzero Hom pairings (a retract onto an indecomposable is
    a direct summand) and split off as reduced cones until nothing remains.
    """
    _on_catalog(cat, g)
    out = []
    for work in _block_components(reduce(g)):
        guard = work.r + 1
        while work.r:
            found = _find_summand(cat, work)
            if found is None:
                raise ArithmeticError("object has a non-catalog summand")
            k, n, work = found
            out.append((k, n))
            guard -= 1
            if guard <= 0:
                raise ArithmeticError("decomposition did not terminate")
    out.sort(key=lambda t: (-cat.phase(*t), t[0]))
    return out
