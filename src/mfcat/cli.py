"""Command-line surface: verify, tabulate, and export the ADE catalogs.

Verbs
-----
verify     run the full invariant suite for one type (exit 0 iff clean)
hom        one Hom multiset as "c^mult" tokens (or json / tsv)
table3     the full l x l grid of Hom multisets, diffed against the
           mesh recursion of ZQ (exit 1 on any mismatch)
ar         Auslander-Reiten triangle checks per vertex
stability  central-charge table over a phase window; --check runs the
           stability axioms
quiver     orientation, path counts and root data of the Dynkin quiver
export     one graded factorization as JSON
catalog    all vertices of one catalog (text summary or JSON objects)

Exit codes: 0 success, 1 check failure, 2 unknown type or bad flags,
3 malformed range or vertex, 4 I/O failure.  Output is deterministic:
identical invocations print identical bytes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .catalog import get_catalog
from .gring import PolyError
from .homcat import (
    ar_triangle_check,
    hom_multiset,
    serre_duality_report,
    serre_image,
    serre_multiset_mirror,
)
from .mf import mf_to_json, verify_grading, verify_mf
from .quiver import (
    highest_root,
    path_hom_dims,
    positive_root_count,
    principal_orientation,
    random_orientation,
)
from .stability import (
    central_charge,
    check_stability_axioms,
    exceptional_collection,
    mass_certified,
    strong_exceptionality_check,
)
from .tables import golden_multiset, serre_vertex


def _fail(code, message):
    click.echo("mfcat: error: %s" % message, err=True)
    sys.exit(code)


def _load_catalog(type_str, b):
    try:
        return get_catalog(type_str, b)
    except PolyError as exc:
        _fail(2, str(exc))


def _check_vertex(cat, k, flag):
    if not 1 <= k <= cat.l:
        _fail(3, "%s=%d out of range 1..%d for %s" % (flag, k, cat.l, cat.type_str))


def _parse_window(text):
    parts = text.split("..")
    try:
        if len(parts) != 2:
            raise ValueError(text)
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        _fail(3, "malformed window %r, expected lo..hi" % text)
    if lo >= hi:
        _fail(3, "empty window %r" % text)
    return lo, hi


def _tokens(ms):
    """Multiset ((c, mult), ...) as the table notation "c^mult"."""
    if not ms:
        return "-"
    return " ".join("%d^%d" % (c, m) if m > 1 else "%d" % c for c, m in ms)


def _report(name, violations, ok_detail=""):
    """Print ``ok   name`` (with ok_detail), or ``FAIL name`` and each
    violation indented below it; return True iff there are violations."""
    if not violations:
        click.echo("ok   %s%s" % (name, ok_detail))
        return False
    click.echo("FAIL %s" % name)
    for v in violations:
        click.echo("  %s" % v)
    return True


def _exit_report(violations, ok_line):
    """Print one ``FAIL v`` line per violation and exit 1, or print ok_line
    and exit 0."""
    for v in violations:
        click.echo("FAIL %s" % v)
    if violations:
        sys.exit(1)
    click.echo(ok_line)
    sys.exit(0)


def _grid_cells(cat):
    """Yield ((k, k'), hom multiset, mismatch) over the l x l grid, row by
    row; mismatch is None, or the text comparing it with golden_multiset."""
    for k in cat.diagram.vertices:
        for kp in cat.diagram.vertices:
            ms = hom_multiset(cat, k, kp)
            want = golden_multiset(cat.type_str, k, kp)
            yield (k, kp), ms, None if ms == want else (
                "(%d,%d): computed %s, table %s"
                % (k, kp, _tokens(ms), _tokens(want)))


_type_option = click.option("--type", "type_str", required=True,
                            help="ADE type, e.g. A5, D7, E8.")
_b_option = click.option("--b", type=int, default=None,
                         help="second exponent for A types (default 1).")


@click.group()
def cli():
    """Exact graded matrix factorizations of ADE singularities."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_suite(cat):
    """Run every per-type invariant; yield (name, violations) pairs."""
    bad = []
    for k in cat.diagram.vertices:
        g = cat.object(k, 0)
        bad += verify_mf(g) + verify_grading(g)
        bad += verify_mf(cat.object(k, 3)) + verify_grading(cat.object(k, 3))
    yield "factorization and grading contracts", bad

    bad = []
    for k in cat.diagram.vertices:
        g = cat.object(k, 0)
        ph = cat.phase(k, 0)
        if sum(g.S[:g.r]) != g.r * ph or sum(g.S[g.r:]) != g.r * ph:
            bad.append("S-half sums at k=%d are not r*phase" % k)
        cc = central_charge(g)
        if (cc.phase != ph or not mass_certified(cat, cc.mass_terms)
                or not cc.consistent()):
            bad.append("central charge inconsistent at k=%d" % k)
    yield "slot sums and central charges", bad

    bad = []
    lift_want = Fraction(cat.h - 2, cat.h)  # T adds 1, tau^{-1} takes 2/h
    for k in cat.diagram.vertices:
        ks, ns = serre_image(cat, k)
        if ks != serre_vertex(cat.type_str, k):
            bad.append("Serre involution sends k=%d to %d" % (k, ks))
        lift = cat.phase(ks, ns) - cat.phase(k, 0)
        if lift != lift_want:
            bad.append("Serre image of k=%d lifts the phase by %s, not %s"
                       % (k, lift, lift_want))
    yield "Serre involution on vertices", bad

    bad = []
    for (k, kp), _, mismatch in _grid_cells(cat):
        if mismatch:
            bad.append("hom multiset " + mismatch)
        if not serre_multiset_mirror(cat, k, kp):
            bad.append("multiset mirror fails at (%d,%d)" % (k, kp))
    yield "Hom grid against the embedded table", bad

    yield "Serre duality on the (0,2] window", serre_duality_report(cat)

    bad = []
    for k in cat.diagram.vertices:
        bad += ar_triangle_check(cat, k)
    yield "Auslander-Reiten triangles", bad

    bad = []
    heart = len(cat.objects_in_window(0, 1))
    roots = positive_root_count(cat.type_str)
    if not heart == roots == cat.l * cat.h // 2:
        bad.append("heart count %d, root count %d, l*h/2 = %d"
                   % (heart, roots, cat.l * cat.h // 2))
    yield "heart object count", bad


@cli.command()
@_type_option
@_b_option
def verify(type_str, b):
    """Run the full invariant suite for one type."""
    cat = _load_catalog(type_str, b)
    click.echo("verify %s (h=%d)" % (cat.name, cat.h))
    failed = False
    for name, violations in _verify_suite(cat):
        failed |= _report(name, violations)
    sys.exit(1 if failed else 0)


# ---------------------------------------------------------------------------
# hom / table3
# ---------------------------------------------------------------------------


def _hom_json(ms):
    return [{"c": c, "dim": m} for c, m in ms]


def _tsv_rows(cat, cells):
    lines = ["type\tk\tkprime\tc\tmult"]
    for (k, kp), ms in cells:
        for c, m in ms:
            lines.append("%s\t%d\t%d\t%d\t%d" % (cat.type_str, k, kp, c, m))
    return "\n".join(lines)


@cli.command()
@_type_option
@_b_option
@click.option("--from", "k_from", type=int, required=True, help="source vertex k.")
@click.option("--to", "k_to", type=int, required=True, help="target vertex k'.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "tsv"]),
              default="text")
def hom(type_str, b, k_from, k_to, fmt):
    """Hom multiset c(k, k') as "c^mult" tokens."""
    cat = _load_catalog(type_str, b)
    _check_vertex(cat, k_from, "--from")
    _check_vertex(cat, k_to, "--to")
    ms = hom_multiset(cat, k_from, k_to)
    if fmt == "json":
        click.echo(json.dumps(_hom_json(ms), sort_keys=True))
    elif fmt == "tsv":
        click.echo(_tsv_rows(cat, [((k_from, k_to), ms)]))
    else:
        click.echo(_tokens(ms))


@cli.command()
@_type_option
@_b_option
@click.option("--format", "fmt", type=click.Choice(["text", "json", "tsv"]),
              default="text")
def table3(type_str, b, fmt):
    """Full l x l grid of Hom multisets, diffed against the golden table."""
    cat = _load_catalog(type_str, b)
    cells = []
    mismatches = []
    for pos, ms, mismatch in _grid_cells(cat):
        cells.append((pos, ms))
        if mismatch:
            mismatches.append(mismatch)
    if fmt == "json":
        out = {
            "type": cat.type_str,
            "b": cat.b,
            "h": cat.h,
            "entries": [{"k": k, "kprime": kp, "classes": _hom_json(ms)}
                        for (k, kp), ms in cells],
            "match": not mismatches,
        }
        click.echo(json.dumps(out, sort_keys=True))
    elif fmt == "tsv":
        click.echo(_tsv_rows(cat, cells))
    else:
        l = cat.l
        grid = {pos: _tokens(ms) for pos, ms in cells}
        widths = [max([len("%d" % kp)] + [len(grid[(k, kp)]) for k in range(1, l + 1)])
                  for kp in range(1, l + 1)]
        head = ["k\\k'"] + ["%d" % kp for kp in range(1, l + 1)]
        lines = ["%s  h=%d" % (cat.name, cat.h)]
        lines.append("  ".join([head[0].ljust(4)]
                               + [head[j + 1].ljust(widths[j]) for j in range(l)]))
        for k in range(1, l + 1):
            row = ["%d" % k] + [grid[(k, kp)] for kp in range(1, l + 1)]
            lines.append("  ".join([row[0].ljust(4)]
                                   + [row[j + 1].ljust(widths[j]) for j in range(l)]))
        click.echo("\n".join(line.rstrip() for line in lines))
    for m in mismatches:
        click.echo("MISMATCH %s" % m, err=True)
    sys.exit(1 if mismatches else 0)


# ---------------------------------------------------------------------------
# ar
# ---------------------------------------------------------------------------


@cli.command()
@_type_option
@_b_option
@click.option("--k", "k_only", type=int, default=None, help="single vertex.")
def ar(type_str, b, k_only):
    """Auslander-Reiten triangle checks at each vertex."""
    cat = _load_catalog(type_str, b)
    if k_only is not None:
        _check_vertex(cat, k_only, "--k")
    vertices = [k_only] if k_only is not None else list(cat.diagram.vertices)
    failed = False
    for k in vertices:
        failed |= _report("k=%d" % k, ar_triangle_check(cat, k),
                          "  neighbors=%d" % len(cat.diagram.neighbors(k)))
    sys.exit(1 if failed else 0)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@cli.command()
@_type_option
@_b_option
@click.option("--window", default="0..1", help="phase window lo..hi (half-open].")
@click.option("--check", "run_check", is_flag=True,
              help="verify the stability axioms on (0,2].")
@click.option("--trials", type=click.IntRange(min=0), default=20,
              help="random direct sums for the filtration axiom.")
@click.option("--seed", type=int, default=0)
def stability(type_str, b, window, run_check, trials, seed):
    """Central charges over a phase window; --check runs the axioms."""
    cat = _load_catalog(type_str, b)
    lo, hi = _parse_window(window)
    click.echo("k\tn\tphase\tmass\tZ")
    for ph, k, n in cat.objects_in_window(lo, hi):
        cc = central_charge(cat.object(k, n))
        click.echo("%d\t%d\t%s\t%r\t%r" % (k, n, ph, cc.mass_float(), cc.value))
    if not run_check:
        sys.exit(0)
    _exit_report(check_stability_axioms(type_str, b, trials=trials, seed=seed),
                 "stability axioms (1)-(4): ok (%d random sums)" % trials)


# ---------------------------------------------------------------------------
# quiver
# ---------------------------------------------------------------------------


@cli.command()
@_type_option
@_b_option
@click.option("--orientation", type=click.Choice(["principal", "random"]),
              default="principal")
@click.option("--seed", type=int, default=0, help="seed for --orientation random.")
@click.option("--paths", "show_paths", is_flag=True,
              help="print the directed-path count grid.")
@click.option("--check", "run_check", is_flag=True,
              help="verify the exceptional collection for this orientation.")
def quiver(type_str, b, orientation, seed, show_paths, run_check):
    """Quiver orientation, path counts, and root data."""
    cat = _load_catalog(type_str, b)
    if orientation == "principal":
        q = principal_orientation(cat.type_str, cat.b)
    else:
        q = random_orientation(cat.type_str, cat.b, seed=seed)
    summary = path_hom_dims(q)
    click.echo("%s  h=%d  orientation=%s" % (cat.name, cat.h, orientation))
    click.echo("arrows: " + " ".join("%d->%d" % a for a in q.arrows))
    click.echo("positive roots: %d  (l*h/2 = %d)"
               % (positive_root_count(cat.type_str), cat.l * cat.h // 2))
    click.echo("highest root: " + " ".join("%d" % c for c in highest_root(cat.type_str)))
    click.echo("path algebra dimension: %d" % summary.dim)
    if show_paths:
        l = cat.l
        click.echo("\n".join(" ".join("%d" % summary.hom_dims[i][j]
                                      for j in range(l)) for i in range(l)))
    if not run_check:
        sys.exit(0)
    violations = strong_exceptionality_check(cat.type_str, cat.b, q)
    _, objects = exceptional_collection(cat.type_str, cat.b, q)
    _exit_report(violations, "exceptional collection: ok  objects="
                 + " ".join("(%d,%d)" % kn for kn in objects))


# ---------------------------------------------------------------------------
# export / catalog
# ---------------------------------------------------------------------------


def _emit(text, out):
    if out is None:
        click.echo(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        _fail(4, "cannot write %s: %s" % (out, exc))


@cli.command()
@_type_option
@_b_option
@click.option("--k", type=int, required=True, help="vertex.")
@click.option("--n", type=int, default=0, help="grading shift (default 0).")
@click.option("--out", default=None, help="output file (default stdout).")
def export(type_str, b, k, n, out):
    """One graded factorization as JSON."""
    cat = _load_catalog(type_str, b)
    _check_vertex(cat, k, "--k")
    _emit(json.dumps(mf_to_json(cat.object(k, n)), sort_keys=True, indent=2), out)


@cli.command("catalog")
@_type_option
@_b_option
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text")
@click.option("--out", default=None, help="output file (default stdout).")
def catalog_cmd(type_str, b, fmt, out):
    """Summary (or full JSON) of every vertex object in one catalog."""
    cat = _load_catalog(type_str, b)
    if fmt == "json":
        payload = {
            "type": cat.type_str,
            "b": cat.b,
            "W": [cat.W.a, cat.W.b, cat.W.c, cat.W.h],
            "objects": [mf_to_json(cat.object(k, 0)) for k in cat.diagram.vertices],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), out)
        return
    lines = ["%s  h=%d  f=%s" % (cat.name, cat.h, mf_to_json(cat.object(1, 0))["f"])]
    for k in cat.diagram.vertices:
        g = cat.object(k, 0)
        lines.append("k=%d  size=%d  nu=%d  sigma=%d  phase=%s"
                     % (k, g.r, g.r // 2, cat.sigma(k), cat.phase(k, 0)))
    _emit("\n".join(lines), out)


def main():
    cli(prog_name="mfcat")


if __name__ == "__main__":
    main()
