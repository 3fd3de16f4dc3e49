"""Morphism spaces and categorical structure in the homotopy category.

A closed morphism between graded matrix factorizations is a matrix pair
satisfying the cocycle equations; null-homotopic morphisms form the image
of the boundary map.  Both are finite linear problems over Q(i) once the
grading pins the admissible monomials of every entry, so Hom dimensions,
witness bases, endomorphism algebras, idempotent splittings and
Auslander-Reiten triangles all reduce to exact rank computations.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction

from . import kernel
from .gring import ZERO, GaussRat, Poly, PolyError, weighted_monomials
from .mf import (
    GradedMF,
    Morphism,
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


def _on_catalog(cat, g):
    """PolyError unless g is a GradedMF of the catalog's potential."""
    _expect(GradedMF, g)
    _same_potential(cat, g)


def _term_table(mat, scale, by_col):
    """mat -> {line: [(other, [(mon, re, im), ...])]}, grouped by row or col.

    Every coefficient is multiplied by ``scale`` (a multiple of all of its
    denominators) and stored as its integer real and imaginary parts; the
    monomials of each entry are in ascending lex order.
    """
    table = {}
    for i, row in enumerate(mat):
        for j, p in enumerate(row):
            if not p.terms:
                continue
            terms = [(mon, c.a * (scale // c.d), c.b * (scale // c.d))
                     for mon, c in sorted(p.terms.items())]
            line, other = (j, i) if by_col else (i, j)
            table.setdefault(line, []).append((other, terms))
    return table


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


def _term_tables(g, scale, by_col):
    """(phi, psi) term tables of g at ``scale``, built once per blocks."""
    key = ("tables", scale, by_col)
    tables = g._block_memo.get(key)
    if tables is None:
        tables = g._block_memo[key] = (_term_table(g.phi, scale, by_col),
                                       _term_table(g.psi, scale, by_col))
    return tables


def _h_slots(g, D):
    """g's slot degrees on the h*D scale; D is a multiple of g's own."""
    own, degrees = g.h_degrees()
    if own != D:
        degrees = [s * (D // own) for s in degrees]
    return degrees[:g.r], degrees[g.r:]


class _System:
    """The linear model of Hom(src, dst): variables, cocycle rows, boundaries.

    Variables enumerate the admissible monomials of every entry of the block
    pair (phi0, phi1); the cocycle equations and the boundary generators are
    assembled monomial by monomial and handed to the kernel as sparse rows.
    Only the phi-block E0 = dst.phi*phi1 - phi0*src.phi is assembled: as
    dst.psi*dst.phi = src.phi*src.psi = f*1, dst.psi*E0*src.psi = -f*E1 for
    the psi-block E1 = dst.psi*phi0 - phi1*src.psi, and k[x,y,z] is a domain,
    E0 = 0 forces E1 = 0.  This needs src and dst to factor one f, as does
    dim = nvars - rank Z - rank B (boundaries are cocycles only then).

    Assembly runs on Python ints only.  The coefficients of the four blocks
    (dst.phi, dst.psi, src.phi, src.psi) are multiplied by one common
    denominator L, 1 whenever every block is over the Gaussian integers, so
    each row is a positive integer multiple of the row cleared on its own
    (and equal to it when L = 1); the kernel normalizes row content, so the
    two span the same space.  Slot degrees are kept as exact integers on the
    h*D scale, where D, the common denominator of all h*S, is 1 unless the
    slots sit off the (1/h)Z lattice; a pair of slots whose difference is not
    an even integer on the h scale admits no monomials.

    What depends on one object alone is built once and read back: its L and
    its term tables from its block memo, which every twist tau^n of it
    shares, and its integer slot degrees from ``h_degrees``.  Tables are
    kept per scale, so only a partner that raises L costs new tables, and
    degrees are rescaled only for a partner that raises D.
    """

    def __init__(self, src, dst):
        _expect(GradedMF, src, dst)
        _same_potential(src, dst)
        self.src = src
        self.dst = dst
        W = src.W
        a, b, c, h = W.a, W.b, W.c, W.h
        rs, rd = src.r, dst.r

        D = math.lcm(src.h_degrees()[0], dst.h_degrees()[0])
        ss, sbs = _h_slots(src, D)
        sd, sbd = _h_slots(dst, D)
        step = 2 * D  # one unit of integer weighted degree on the h*D scale
        one = h * D  # normalized degree 1

        def basis(t):
            if t < 0 or t % step:
                return ()
            return weighted_monomials(a, b, c, t // step)

        self.var_keys = var_keys = []
        # (blk, i, j) -> {mon: variable index}; entries without monomials
        # have no key
        self.entry = entry = {}
        for blk, drow, dcol in ((0, sd, ss), (1, sbd, sbs)):
            for i in range(rd):
                for j in range(rs):
                    mons = basis(drow[i] - dcol[j])
                    if not mons:
                        continue
                    index = entry[blk, i, j] = {}
                    for mon in mons:
                        index[mon] = len(var_keys)
                        var_keys.append((blk, i, j, mon))
        self.nvars = len(var_keys)
        if not self.nvars:
            self.cocycle_rows = []
            self.boundary_rows = []
            return

        L = math.lcm(_denominator(src), _denominator(dst))
        dphi, dpsi = _term_tables(dst, L, True)
        sphi, spsi = _term_tables(src, L, False)

        # One row per entry and monomial of E0.  A variable meets a row in at
        # most one term and variables come in index order, so every row has
        # strictly increasing columns and no zero entry.
        eqs = defaultdict(list)
        for vidx, (blk, i, j, (m0, m1, m2)) in enumerate(self.var_keys):
            if blk:
                for k, terms in dphi.get(i, ()):
                    for (e0, e1, e2), re, im in terms:
                        eqs[k, j, m0 + e0, m1 + e1, m2 + e2].append((vidx, re, im))
            else:
                for k, terms in sphi.get(j, ()):
                    for (e0, e1, e2), re, im in terms:
                        eqs[i, k, m0 + e0, m1 + e1, m2 + e2].append((vidx, -re, -im))

        self.cocycle_rows = [tuple(map(list, zip(*eqs[key])))
                             for key in sorted(eqs)]

        # Boundary generators: the image in the variable space of every
        # admissible homotopy monomial hA (dst-first x src-second) and hB
        # (dst-second x src-first), under H -> (phi'*hB + hA*psi,
        # psi'*hA + hB*phi).  Block 0 variables precede block 1 ones and
        # var_keys is in lex order, so emitting the block 0 part first gives
        # strictly increasing columns.
        self.boundary_rows = rows = []

        def extend(row, mons, terms, m0, m1, m2):
            cols, res, ims = row
            for (e0, e1, e2), re, im in terms:
                cols.append(mons[m0 + e0, m1 + e1, m2 + e2])
                res.append(re)
                ims.append(im)

        for i in range(rd):
            for j in range(rs):
                for m0, m1, m2 in basis(sd[i] - sbs[j] - one):
                    row = ([], [], [])
                    for k, terms in spsi.get(j, ()):
                        extend(row, entry[0, i, k], terms, m0, m1, m2)
                    for k, terms in dpsi.get(i, ()):
                        extend(row, entry[1, k, j], terms, m0, m1, m2)
                    rows.append(row)
        for i in range(rd):
            for j in range(rs):
                for m0, m1, m2 in basis(sbd[i] - ss[j] - one):
                    row = ([], [], [])
                    for k, terms in dphi.get(i, ()):
                        extend(row, entry[0, k, j], terms, m0, m1, m2)
                    for k, terms in sphi.get(j, ()):
                        extend(row, entry[1, i, k], terms, m0, m1, m2)
                    rows.append(row)

    def morphism_from_row(self, row):
        """Integer kernel row in variable space -> Morphism."""
        phi0 = [[Poly() for _ in range(self.src.r)] for _ in range(self.dst.r)]
        phi1 = [[Poly() for _ in range(self.src.r)] for _ in range(self.dst.r)]
        cols, res, ims = row
        for idx in range(len(cols)):
            blk, i, j, mon = self.var_keys[cols[idx]]
            tgt = phi0 if blk == 0 else phi1
            tgt[i][j] = tgt[i][j] + Poly.monomial(mon, GaussRat(res[idx], ims[idx]))
        return Morphism(self.src, self.dst, tuple(map(tuple, phi0)),
                        tuple(map(tuple, phi1)))


def _vectorize(entry, m):
    """Morphism -> (kernel row, scale): row equals scale * coefficient vector.

    ``entry`` is the variable map of the morphism's ``_System``.
    """
    items = []
    for blk, mat in ((0, m.phi0), (1, m.phi1)):
        for i, row in enumerate(mat):
            for j, p in enumerate(row):
                for mon, c in p.terms.items():
                    vidx = entry.get((blk, i, j), {}).get(mon)
                    if vidx is None:
                        raise PolyError(
                            "morphism entry (%d,%d,%d) has a monomial of "
                            "inadmissible degree" % (blk, i, j))
                    items.append((vidx, c))
    return _clear_row(items)


class HomSpace:
    """Hom(src, dst) in the homotopy category with a witness basis.

    ``basis`` lists closed morphisms whose classes form a basis; coordinates
    of any closed morphism in that basis (modulo boundaries) come from an
    exact solve.
    """

    def __init__(self, src, dst, dim, basis, entry, solve_columns):
        self.src = src
        self.dst = dst
        self.dim = dim
        self.basis = basis
        self._entry = entry  # the variable map of the system, not its rows
        self._solve_columns = solve_columns

    def coordinates(self, m):
        """Coefficients of [m] over ``basis``; raises if m is not closed."""
        if not self._entry:
            if m.is_zero():
                return [GaussRat(0)] * self.dim
            raise PolyError("nonzero morphism in a trivial variable space")
        row, scale = _vectorize(self._entry, m)
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
    if not sys.nvars:
        return HomSpace(src, dst, 0, [], {}, [])
    _, zrows = kernel.nullspace(sys.cocycle_rows, sys.nvars)
    chosen = kernel.select_independent(sys.boundary_rows, zrows)
    basis = [sys.morphism_from_row(zrows[i]) for i in chosen]
    rank_b = kernel.rank(sys.boundary_rows)
    dim = len(zrows) - rank_b
    if dim != len(chosen):
        raise ArithmeticError("boundary image escapes the cocycle space")
    solve_columns = [zrows[i] for i in chosen] + sys.boundary_rows
    return HomSpace(src, dst, dim, basis, sys.entry, solve_columns)


def hom_dim(src, dst):
    """dim Hom(src, dst) = nvars - rank Z - rank B, from exact ranks over Q(i).

    Rank-only: no witness basis is built (see :func:`hom_space`).
    """
    sys = _System(src, dst)
    if not sys.nvars:
        return 0
    return (sys.nvars - kernel.rank(sys.cocycle_rows)
            - kernel.rank(sys.boundary_rows))


# ---------------------------------------------------------------------------
# morphism arithmetic


def compose(after, before):
    """after o before (apply ``before`` first)."""
    if after.src.S != before.dst.S or after.src.r != before.dst.r:
        raise PolyError("composition of incompatible morphisms")
    return Morphism(before.src, after.dst,
                    mat_mul(after.phi0, before.phi0),
                    mat_mul(after.phi1, before.phi1))


def morphism_add(a, b):
    phi0 = tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a.phi0, b.phi0))
    phi1 = tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a.phi1, b.phi1))
    return Morphism(a.src, a.dst, phi0, phi1)


def morphism_sub(a, b):
    return morphism_add(a, morphism_scale(-1, b))


def morphism_scale(c, m):
    if not isinstance(c, (int, Fraction, GaussRat)):
        raise PolyError("scalar expected")
    phi0 = tuple(tuple(p * c for p in row) for row in m.phi0)
    phi1 = tuple(tuple(p * c for p in row) for row in m.phi1)
    return Morphism(m.src, m.dst, phi0, phi1)


def morphism_eq(a, b):
    return a.phi0 == b.phi0 and a.phi1 == b.phi1


def boundary_of(src, dst, hA, hB):
    """The boundary morphism of a homotopy pair (hA, hB).

    hA maps src second-half slots to dst first-half slots, hB the other
    diagonal; the boundary is (dst.phi*hB + hA*src.psi,
    dst.psi*hA + hB*src.phi).
    """
    b0 = tuple(tuple(x + y for x, y in zip(ra, rb))
               for ra, rb in zip(mat_mul(dst.phi, hB), mat_mul(hA, src.psi)))
    b1 = tuple(tuple(x + y for x, y in zip(ra, rb))
               for ra, rb in zip(mat_mul(dst.psi, hA), mat_mul(hB, src.phi)))
    return Morphism(src, dst, b0, b1)


def jacobi_homotopy(m, name):
    """Explicit homotopy killing (d f/d name) * m.

    Returns (hA, hB) with boundary exactly equal to the scaled morphism:
    hA = phi0 * d(src.phi), hB = phi1 * d(src.psi).
    """
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
    f = m.src.f
    for name in _VARS:
        hA, hB = jacobi_homotopy(m, name)
        target = morphism_scale_poly(f.diff(name), m)
        got = boundary_of(m.src, m.dst, hA, hB)
        if not morphism_eq(got, target):
            return False
    return True


def morphism_scale_poly(p, m):
    """Multiply a morphism by a polynomial (an R-module action)."""
    phi0 = tuple(tuple(p * q for q in row) for row in m.phi0)
    phi1 = tuple(tuple(p * q for q in row) for row in m.phi1)
    return Morphism(m.src, m.dst, phi0, phi1)


# ---------------------------------------------------------------------------
# endomorphism algebras and indecomposability


def is_indecomposable(g):
    """True when End(g) is local.

    dim End = 1 decides immediately; otherwise the radical of the trace
    form of the regular representation (= the Jacobson radical in
    characteristic zero) must have codimension 1.  Objects whose semisimple
    quotient is a nonsplit division algebra over Q(i) would be misreported,
    but none arise from the ADE catalog.
    """
    E = hom_space(g, g)
    if E.dim == 0:
        return False
    if E.dim == 1:
        return True
    d = E.dim
    L = []
    for i in range(d):
        cols = [E.coordinates(compose(E.basis[i], E.basis[b])) for b in range(d)]
        L.append([[cols[b][a] for b in range(d)] for a in range(d)])
    rows = []
    for i in range(d):
        items = []
        for j in range(d):
            tr = GaussRat(0)
            for a in range(d):
                for b in range(d):
                    tr = tr + L[i][a][b] * L[j][b][a]
            if tr:
                items.append((j, tr))
        rows.append(_clear_row(items)[0])
    return kernel.rank(rows) == 1


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


def _retraction(cat, g, k, n):
    """incl: M(k, n) -> g with a proj: g -> M making proj o incl != 0 in the
    one-dimensional End(M), both from witness bases; None if there is none.
    """
    M = cat.object(k, n)
    P = hom_space(g, M)
    if P.dim == 0:
        return None
    Iw = hom_space(M, g)
    if Iw.dim == 0:
        return None
    EM = _endomorphisms(cat, k, n)
    for incl in Iw.basis:
        for proj in P.basis:
            if EM.coordinates(compose(proj, incl))[0]:
                return incl
    return None


def _isomorphic(cat, g, k, n):
    """True when reduced g is isomorphic to M(k, n), certified.

    g must have M's size, and then a retraction onto M is an isomorphism
    (a retract of equal size is); g equal to M by value needs none.
    """
    return 2 * cat.nu(k) == g.r and (g == cat.object(k, n)
                                      or _retraction(cat, g, k, n) is not None)


def identify_object(cat, g):
    """Identify g with a catalog object: returns (k, n) or None.

    The candidates are the classes whose slot multisets embed into reduced
    g's; the first one isomorphic to it (see :func:`_isomorphic`) is g's.
    """
    _on_catalog(cat, g)
    g0 = reduce(g)
    for _, k, n in _candidate_classes(cat, g0):
        if _isomorphic(cat, g0, k, n):
            return (k, n)
    return None


def _per_catalog(fn):
    """Memoize ``fn(cat, *args)`` in ``cat.memo`` under ``(fn.__name__,) + args``."""

    @functools.wraps(fn)
    def memoized(cat, *args):
        key = (fn.__name__,) + args
        if key not in cat.memo:
            cat.memo[key] = fn(cat, *args)
        return cat.memo[key]

    return memoized


@_per_catalog
def _endomorphisms(cat, k, n):
    """End(M(k, n)); its basis is canonical, so reuse changes nothing."""
    M = cat.object(k, n)
    return hom_space(M, M)


@_per_catalog
def t_image(cat, k):
    """(k', n') with T(M^k_0) isomorphic to M^{k'}_{n'}, certified."""
    res = identify_object(cat, shift_T(cat.object(k, 0)))
    if res is None:
        raise ArithmeticError("T-image of vertex %d not found in catalog" % k)
    return res


@_per_catalog
def serre_image(cat, k):
    """(k', n') with S(M^k_0) isomorphic to M^{k'}_{n'}, certified."""
    res = identify_object(cat, serre(cat.object(k, 0)))
    if res is None:
        raise ArithmeticError("Serre image of vertex %d not found" % k)
    kT, _ = t_image(cat, k)
    if res[0] != kT:
        raise ArithmeticError("Serre image disagrees with the T-image vertex")
    return res


# ---------------------------------------------------------------------------
# class-level Hom dimensions


def class_hom_dim(cat, k, kprime, c):
    """dim Hom(M^k_n, M^k'_n') as a function of c = h*(phase' - phase).

    The linear system depends on the grading only through slot differences,
    so the dimension is a class function of (k, k', c); c values of the
    wrong parity admit no object pairs and count as zero.
    """
    n_prime = cat.twist(kprime, c, cat.sigma(k))
    if n_prime is None:
        return 0
    return _class_dim(cat, k, kprime, n_prime)


@_per_catalog
def _class_dim(cat, k, kprime, n_prime):
    return hom_dim(cat.object(k, 0), cat.object(kprime, n_prime))


def hom_multiset(cat, k, kprime):
    """Sorted ((c, dim), ...) over the fundamental window c in [0, h-2].

    Scans c in [-4, h+2] and insists the margins are empty; a nonzero
    dimension outside the window is an engine error, not data.
    """
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
    n = cat.twist(k_x, cprime, 2 - cat.h + cat.sigma(k_y))
    if n is None:
        return 0
    return _serre_rhs_dim(cat, k_y, k_x, n)


@_per_catalog
def _serre_rhs_dim(cat, k_y, k_x, n):
    # S commutes with tau, so S(M^k_x_n) = tau^n S(M^k_x_0), and every twist
    # shares the blocks of the one memoized image
    return hom_dim(cat.object(k_y, 0), tau(_vertex_serre(cat, k_x), n))


@_per_catalog
def _vertex_serre(cat, k):
    """S(M^k_0) as a raw block pair, never identified against the catalog."""
    return serre(cat.object(k, 0))


def serre_duality_report(cat, lo=0, hi=2):
    """Check dim Hom(X,Y) = dim Hom(Y, S X) over a phase window; violations.

    Both sides are computed independently: the left on catalog objects, the
    right on the explicit Serre-image block pair (never identified back into
    the catalog).  Results are cached per dimension class, so the sweep costs
    one linear system per (k, k', c) class, not per object pair.
    """
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
    Hom(S^-1 X, X); E must be the reduced cone, whose slot multiset, End
    dimension and Homs onto the diagram neighbors are pinned by the doubled
    Dynkin quiver.
    """
    X = cat.object(k, 0)
    Xm = serre_inverse(X)
    H = hom_space(Xm, X)
    viol = []
    if H.dim != 1:
        viol.append("dim Hom(S^-1 X, X) = %d != 1 at k=%d" % (H.dim, k))
        return viol
    w = H.basis[0]
    mid = reduce(cone(w))
    nbrs = cat.diagram.neighbors(k)
    sig = cat.sigma(k)
    expected0, expected1 = [], []
    mids = []
    # the middle receives the irreducible maps out of X, one phase step up
    for i in nbrs:
        n_i = cat.twist(i, sig + 1)
        if n_i is None:
            viol.append("neighbor %d not on the opposite parity class" % i)
            return viol
        Mi = cat.object(i, n_i)
        mids.append(Mi)
        expected0.extend(Mi.s_row)
        expected1.extend(Mi.sbar_row)
    if (sorted(mid.s_row) != sorted(expected0)
            or sorted(mid.sbar_row) != sorted(expected1)):
        viol.append("cone slot multiset differs from the neighbor sum at k=%d"
                    % k)
    e_dim = hom_space(mid, mid).dim if mid.r else 0
    if e_dim != len(nbrs):
        viol.append("dim End(cone) = %d != %d neighbors at k=%d"
                    % (e_dim, len(nbrs), k))
    for i, Mi in zip(nbrs, mids):
        d = hom_dim(mid, Mi)
        if d != 1:
            viol.append("dim Hom(cone, M^%d) = %d != 1 at k=%d" % (i, d, k))
    return viol


# ---------------------------------------------------------------------------
# decomposition into catalog objects


@_per_catalog
def _vertex_slots(cat, k):
    """Counters of M(k, 0)'s slot offsets per half, as ints on the h scale."""
    return [Counter(q.numerator * cat.h // q.denominator for q in slots)
            for slots in cat.slot_values(k)]


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
    the complement, hence isomorphic to it.  A candidate of work's size is
    work itself (see :func:`_isomorphic`) and leaves the empty complement.
    """
    for _, k, n in _candidate_classes(cat, work):
        if 2 * cat.nu(k) == work.r:
            if _isomorphic(cat, work, k, n):
                return k, n, GradedMF(work.f, work.W, (), (), (), label="0")
            continue
        incl = _retraction(cat, work, k, n)
        if incl is None:
            continue
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

    g is reduced first; summands are found through nonzero Hom pairings
    (a retract onto an indecomposable is a direct summand) and split off as
    reduced cones until nothing remains.
    """
    _on_catalog(cat, g)
    work = reduce(g)
    out = []
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
