"""Dynkin quivers: orientations, path counting, and positive roots.

This module is pure graph/root combinatorics on the diagrams — it never
touches matrix factorizations — so its counts serve as independent
cross-checks for the categorical side (Hom grids of vertex objects,
heart sizes, total endomorphism-algebra dimensions).
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from .catalog import DynkinDiagram, get_catalog, principal_decomposition
from .gring import PolyError
from .mf import _expect

__all__ = [
    "DynkinQuiver",
    "PathAlgebraSummary",
    "principal_orientation",
    "random_orientation",
    "path_hom_dims",
    "positive_roots",
    "positive_root_count",
    "highest_root",
]


class DynkinQuiver:
    """A diagram with one direction chosen per edge (acyclic on a tree)."""

    __slots__ = ("diagram", "orientation")

    def __init__(self, diagram, orientation):
        _expect(DynkinDiagram, diagram)
        if not isinstance(orientation, Mapping):
            raise PolyError("orientation must map edges to arrows, got %s"
                            % type(orientation).__name__)
        self.diagram = diagram
        arrows = []
        for edge in diagram.edges:
            arrow = orientation.get(edge, ())
            if not isinstance(arrow, (tuple, list)):
                raise PolyError("arrow of edge %r must be a pair, got %r"
                                % (edge, arrow))
            arrow = tuple(arrow)
            if arrow != edge and arrow != edge[::-1]:
                raise PolyError("orientation must redirect the diagram edges")
            arrows.append(arrow)
        self.orientation = dict(zip(diagram.edges, arrows))

    @property
    def arrows(self):
        """Arrows as (tail, head), in the diagram's edge order."""
        return tuple(self.orientation[e] for e in self.diagram.edges)

    def successors(self, k):
        return sorted(h for (t, h) in self.arrows if t == k)


class PathAlgebraSummary:
    """Path counts of a quiver: total dimension and the pairwise grid."""

    __slots__ = ("quiver", "dim", "hom_dims")

    def __init__(self, quiver, dim, hom_dims):
        self.quiver = quiver
        self.dim = dim
        self.hom_dims = hom_dims


def principal_orientation(type_str, b=None):
    """Every arrow runs from an odd-distance vertex into an even one."""
    dia = get_catalog(type_str, b).diagram
    _, pi1, _ = principal_decomposition(type_str, b)
    odd = set(pi1)
    orientation = {}
    for u, v in dia.edges:
        # exactly one endpoint of a tree edge has odd distance to the base
        orientation[(u, v)] = (u, v) if u in odd else (v, u)
    return DynkinQuiver(dia, orientation)


def random_orientation(type_str, b=None, seed=0):
    """Uniformly random direction per edge, reproducible from the int seed."""
    if not isinstance(seed, int):
        raise PolyError("seed must be an int, got %r" % (seed,))
    dia = get_catalog(type_str, b).diagram
    rng = random.Random(seed)
    orientation = {}
    for u, v in dia.edges:
        orientation[(u, v)] = (u, v) if rng.random() < 0.5 else (v, u)
    return DynkinQuiver(dia, orientation)


def path_hom_dims(q):
    """Count directed paths between all ordered vertex pairs.

    hom_dims[i][j] (0-based) is the number of paths from vertex i+1 to
    vertex j+1, counting the empty path on the diagonal; dim is the
    total.  On a tree every count is 0 or 1.
    """
    _expect(DynkinQuiver, q)
    l = q.diagram.l
    counts = [[0] * l for _ in range(l)]
    for k in range(1, l + 1):
        # depth-first accumulation; a tree quiver has no directed cycles
        stack = [k]
        while stack:
            v = stack.pop()
            counts[k - 1][v - 1] += 1
            stack.extend(q.successors(v))
    dim = sum(sum(row) for row in counts)
    summary = PathAlgebraSummary(q, dim, tuple(tuple(row) for row in counts))
    if any(summary.hom_dims[i][i] != 1 for i in range(l)):
        raise PolyError("path counting hit a directed cycle")
    return summary


# ---------------------------------------------------------------------------
# positive roots from the Cartan matrix (no external tables)
# ---------------------------------------------------------------------------


def _cartan(dia):
    l = dia.l
    C = [[0] * l for _ in range(l)]
    for i in range(l):
        C[i][i] = 2
    for u, v in dia.edges:
        C[u - 1][v - 1] = -1
        C[v - 1][u - 1] = -1
    return C


def positive_roots(type_str):
    """All positive roots as coefficient tuples over the simple roots.

    The root system is generated by closing the simple roots under the
    simple reflections s_i(beta) = beta - <beta, alpha_i> alpha_i; the
    positive roots are the members with all coefficients >= 0.
    """
    dia = get_catalog(type_str).diagram
    l = dia.l
    C = _cartan(dia)
    simple = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(l):
                pairing = sum(C[i][j] * beta[j] for j in range(l))
                ref = list(beta)
                ref[i] -= pairing
                ref = tuple(ref)
                if ref not in roots:
                    roots.add(ref)
                    nxt.append(ref)
        frontier = nxt
    positive = sorted(r for r in roots if all(c >= 0 for c in r))
    if 2 * len(positive) != len(roots):
        raise PolyError("root enumeration lost the sign symmetry")
    return tuple(positive)


def positive_root_count(type_str):
    return len(positive_roots(type_str))


def highest_root(type_str):
    """Coefficient vector of the unique root maximal in every coordinate."""
    roots = positive_roots(type_str)
    best = max(roots, key=sum)
    if any(any(r[i] > best[i] for i in range(len(best))) for r in roots):
        raise PolyError("no coordinatewise-maximal root found")
    return best
