"""Hom-degree grids of the ADE catalogs: the mesh recursion of ZQ.

For vertices k, k' of the diagram, the multiset c(k, k') collects the
integers c = h * (phase(Y) - phase(X)) at which Hom(X, Y) is nonzero,
with multiplicity dim Hom, for X in the orbit of vertex k and Y in the
orbit of vertex k'.  It depends on (k, k') alone, not on b or the twists.
The graded MF category is D^b(mod kQ), whose Auslander-Reiten quiver is
ZQ (Happel), so these Hom dimensions obey the mesh recursion of ZQ and
are read off the diagram and the Coxeter number h: nothing is stored.
Multisets are sorted tuples of (c, multiplicity) pairs.
"""

from .catalog import _per_catalog, get_catalog
from .gring import PolyError

__all__ = ["golden_multiset", "grid", "serre_vertex"]


@_per_catalog
def _mesh_row(cat, k):
    """{k': c(k, k')} by the mesh recursion over cat.diagram, kept in cat.memo.

    Seed m(0) = delta_k and step m_j(v + 1) = sum of m_i(v) over the
    neighbours i of j, minus m_j(v - 1); m_j(v) is the multiplicity of
    c = v in c(k, j).  ArithmeticError unless every level is nonnegative
    and level h - 1 vanishes, as they do for a Dynkin diagram and its h.
    """
    dia = cat.diagram
    prev = dict.fromkeys(dia.vertices, 0)
    levels = [{j: int(j == k) for j in dia.vertices}]
    for v in range(1, cat.h):
        cur = levels[-1]
        nxt = {j: sum(cur[i] for i in dia.neighbors(j)) - prev[j]
               for j in dia.vertices}
        if min(nxt.values()) < 0:
            raise ArithmeticError("mesh row of %s k=%d turns negative at "
                                  "level %d" % (cat.type_str, k, v))
        prev = cur
        levels.append(nxt)
    if any(levels.pop().values()):
        raise ArithmeticError("mesh row of %s k=%d does not vanish at "
                              "level h - 1 = %d" % (cat.type_str, k, cat.h - 1))
    return {j: tuple((c, m[j]) for c, m in enumerate(levels) if m[j])
            for j in dia.vertices}


def _vertex_catalog(type_str, *vertices):
    cat = get_catalog(type_str)
    if not all(isinstance(v, int) and 1 <= v <= cat.l for v in vertices):
        raise PolyError("vertex out of range for %s" % type_str)
    return cat


def golden_multiset(type_str, k, kp):
    """c(k, k') as a sorted ((c, mult), ...) tuple."""
    return _mesh_row(_vertex_catalog(type_str, k, kp), k)[kp]


def grid(type_str):
    """Full grid {(k, k'): multiset} over all vertex pairs."""
    cat = get_catalog(type_str)
    return {(k, kp): ms for k in cat.diagram.vertices
            for kp, ms in _mesh_row(cat, k).items()}


def serre_vertex(type_str, k):
    """The vertex k' of the Serre dual of orbit k: the one with h - 2 in c(k, k')."""
    cat = _vertex_catalog(type_str, k)
    top = [kp for kp, ms in _mesh_row(cat, k).items()
           if any(c == cat.h - 2 for c, _ in ms)]
    if len(top) != 1:
        raise ArithmeticError("%s k=%d has %d vertices in top degree h - 2"
                              % (cat.type_str, k, len(top)))
    return top[0]
