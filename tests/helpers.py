"""Shared scope lists, small utilities, engine call counters, object
relabelings and a disguised-sum generator for the test suite."""

from __future__ import annotations

import functools
import random

from mfcat import homcat
from mfcat.gring import Poly, PolyError, weighted_monomials
from mfcat.mf import (
    GradedMF,
    Morphism,
    _expect,
    _restrict,
    direct_sum,
    mat_identity,
    mat_mul,
    mat_neg,
)

# Every catalog the package ships: (type_str, b) with b meaningful only
# for A types (one catalog per 1 <= b <= l).
CATALOG_SCOPE = (
    [("A%d" % l, b) for l in range(1, 9) for b in range(1, l + 1)]
    + [("D%d" % l, None) for l in range(4, 9)]
    + [("E%d" % l, None) for l in (6, 7, 8)]
)

# The grid-reproduction scope: the explicit E grids, the D rows checked
# through both the row formulas and direct computation, and the A closed
# formula for every b.
TABLE_SCOPE = (
    [("A%d" % l, b) for l in range(2, 7) for b in range(1, l + 1)]
    + [("D%d" % l, None) for l in (4, 5, 6)]
    + [("E%d" % l, None) for l in (6, 7, 8)]
)

# One entry per underlying polynomial family (A types with default b).
TYPE16 = (
    [("A%d" % l, None) for l in range(1, 9)]
    + [("D%d" % l, None) for l in range(4, 9)]
    + [("E%d" % l, None) for l in (6, 7, 8)]
)


def type_label(type_str, b):
    return "%s b=%s" % (type_str, b) if b is not None else type_str


def count_calls(monkeypatch, *names):
    """Wrap homcat functions by name; returns {name: [args, ...]}."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _real=getattr(homcat, name), _log=calls[name]):
            _log.append(args)
            return _real(*args)
        monkeypatch.setattr(homcat, name, counted)
    return calls


def count_systems(monkeypatch):
    """Record every _System built, in order, with the row families asked for
    as ``rows``; arguments are passed through, keywords included."""
    built = []

    class Counted(homcat._System):
        def __init__(self, src, dst, cocycles=True, boundaries=True):
            super().__init__(src, dst, cocycles=cocycles, boundaries=boundaries)
            self.rows = (cocycles, boundaries)
            built.append(self)

    monkeypatch.setattr(homcat, "_System", Counted)
    return built


def identity_morphism(g):
    _expect(GradedMF, g)
    return Morphism(g, g, mat_identity(g.r), mat_identity(g.r))


def permute_slots(g, perm0, perm1):
    """Relabel slots: perm0 on the phi-row half, perm1 on the psi-row half.

    new_phi[i][j] = phi[perm0[i]][perm1[j]]; an isomorphism of graded MFs.
    PolyError unless perm0 and perm1 are permutations of range(r).
    """
    _expect(GradedMF, g)
    r = g.r
    if not all(isinstance(p, (list, tuple)) and sorted(p) == list(range(r))
               for p in (perm0, perm1)):
        raise PolyError("slot relabelings must be permutations of range(%d)"
                        % r)
    return _restrict(g, g.phi, g.psi, perm0, perm1)


def _unipotent(W, slots, rng):
    """(U, U^-1) for a seeded unipotent U of degree 0 on ``slots``.

    Off the diagonal, U[i][j] is a random monomial of normalized degree
    slots[i] - slots[j] with a small nonzero coefficient when that degree is
    positive and attainable, and 0 otherwise.  So U - 1 is nilpotent and
    U^-1 = sum_k (1 - U)^k is a finite sum.
    """
    n = len(slots)
    N = [[Poly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = (slots[i] - slots[j]) * W.h / 2  # integer weighted degree
            if w > 0 and w.denominator == 1:
                mons = weighted_monomials(W.a, W.b, W.c, int(w))
                if mons:
                    N[i][j] = Poly.monomial(rng.choice(mons),
                                            rng.randint(-5, 5) or 1)
    one = mat_identity(n)
    U = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(one, N)]
    inv, term = one, one
    for _ in range(n):
        term = mat_neg(mat_mul(term, N))
        inv = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(inv, term)]
    return U, inv


def disguised_sum(parts, seed):
    """The direct sum of ``parts`` after a seeded graded base change.

    The phi-row slots change by a unipotent A and the psi-row slots by B
    (see :func:`_unipotent`): phi becomes A phi B^-1 and psi becomes
    B psi A^-1.  The result is isomorphic to the plain sum and keeps its S,
    but its blocks show no block structure, and since A and B are 1 plus
    entries of positive degree it has no constant entry either.
    """
    rng = random.Random(seed)
    g = functools.reduce(direct_sum, parts)
    A, A_inv = _unipotent(g.W, g.s_row, rng)
    B, B_inv = _unipotent(g.W, g.sbar_row, rng)
    return GradedMF(g.f, g.W, mat_mul(mat_mul(A, g.phi), B_inv),
                    mat_mul(mat_mul(B, g.psi), A_inv), g.S)
