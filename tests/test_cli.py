"""Command-line surface: formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import json

from click.testing import CliRunner

from mfcat import cli as climod
from mfcat import homcat
from mfcat.catalog import Catalog
from mfcat.cli import cli
from mfcat.mf import mf_from_json, shift_T, tau, verify_grading, verify_mf


def _run(*args):
    return CliRunner().invoke(cli, list(args))


def test_hom_text_matches_the_table_notation():
    res = _run("hom", "--type", "A3", "--b", "1", "--from", "1", "--to", "3")
    assert res.exit_code == 0
    assert res.output == "2\n"
    res = _run("hom", "--type", "E6", "--from", "5", "--to", "6")
    assert res.exit_code == 0
    assert res.output == "4 10\n"
    res = _run("hom", "--type", "E6", "--from", "2", "--to", "2")
    assert res.output == "0 2^2 4^3 6^3 8^2 10\n"


def test_hom_json_and_tsv_formats():
    res = _run("hom", "--type", "E6", "--from", "5", "--to", "6",
               "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output) == [{"c": 4, "dim": 1}, {"c": 10, "dim": 1}]
    res = _run("hom", "--type", "E6", "--from", "5", "--to", "6",
               "--format", "tsv")
    lines = res.output.splitlines()
    assert lines[0] == "type\tk\tkprime\tc\tmult"
    assert lines[1:] == ["E6\t5\t6\t4\t1", "E6\t5\t6\t10\t1"]


def test_table3_exits_clean_and_is_deterministic():
    a = _run("table3", "--type", "A4", "--b", "2")
    b = _run("table3", "--type", "A4", "--b", "2")
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output == b.output
    js = _run("table3", "--type", "A4", "--b", "2", "--format", "json")
    payload = json.loads(js.output)
    assert payload["match"] is True
    assert len(payload["entries"]) == 16


def test_table3_flags_golden_mismatches(monkeypatch):
    # force one golden cell wrong: the command must exit 1 and say so
    real = climod.golden_multiset

    def tampered(type_str, k, kp):
        out = real(type_str, k, kp)
        if (k, kp) == (1, 1):
            return tuple((c + 2, m) for c, m in out)
        return out

    monkeypatch.setattr(climod, "golden_multiset", tampered)
    res = _run("table3", "--type", "A2")
    assert res.exit_code == 1
    assert "MISMATCH" in res.output


def test_serre_involution_section_catches_an_off_by_one_twist(monkeypatch):
    # S = T tau^{-1}; one twist too many keeps every vertex but moves the
    # phase, which only the phase lift of the section can see
    def sections(cat):
        for name, bad in climod._verify_suite(cat):
            yield name, bad
            if name == "Serre involution on vertices":
                return

    good = dict(sections(Catalog("E6")))
    assert good["Serre involution on vertices"] == []
    monkeypatch.setattr(homcat, "serre", lambda g: tau(shift_T(g), -2))
    # a private catalog, so no mutated Serre image lands in the shared memo
    planted = dict(sections(Catalog("E6")))
    assert len(planted["Serre involution on vertices"]) == 6
    assert all("lifts the phase by" in v
               for v in planted["Serre involution on vertices"])


def test_serre_duality_section_counts_every_off_by_one_twist_violation(
        monkeypatch):
    # the right-hand side shares ranks with the class path under the twist
    # read off the planted image, so it sees the same wrong objects as a
    # memo-free computation would: exactly the violations of the parent
    monkeypatch.setattr(homcat, "serre", lambda g: tau(shift_T(g), -2))
    # a private catalog, so no mutated Serre image lands in the shared memo
    for name, bad in climod._verify_suite(Catalog("E6")):
        if name == "Serre duality on the (0,2] window":
            assert len(bad) == 1298
            return
    raise AssertionError("no Serre duality section")


def test_heart_count_section_catches_a_dropped_heart_object(monkeypatch):
    # a private catalog, so the shared one keeps its whole window
    cat = Catalog("A4", 2)
    real = cat.objects_in_window

    def dropped(lo, hi):
        objs = real(lo, hi)
        return objs[1:] if (lo, hi) == (0, 1) else objs

    monkeypatch.setattr(cat, "objects_in_window", dropped)
    assert dict(climod._verify_suite(cat))["heart object count"] == [
        "heart count 9, root count 10, l*h/2 = 10"]


def test_exit_codes_for_bad_inputs(tmp_path):
    assert _run("hom", "--type", "Z3", "--from", "1", "--to", "1").exit_code == 2
    assert _run("hom", "--type", "A3", "--b", "9", "--from", "1",
                "--to", "1").exit_code == 2
    assert _run("hom", "--type", "A3", "--from", "0", "--to", "1").exit_code == 3
    assert _run("stability", "--type", "A2", "--window", "zz").exit_code == 3
    assert _run("stability", "--type", "A2", "--window", "1..1").exit_code == 3
    res = _run("stability", "--type", "A2", "--check", "--trials", "-2")
    assert res.exit_code == 2 and "stability axioms" not in res.output
    missing = tmp_path / "no" / "dir" / "out.json"
    assert _run("export", "--type", "A2", "--k", "1",
                "--out", str(missing)).exit_code == 4


def test_verify_passes_on_a_small_type():
    res = _run("verify", "--type", "A2")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert res.output.count("ok") >= 6


def test_ar_reports_each_vertex():
    res = _run("ar", "--type", "A3", "--b", "2")
    assert res.exit_code == 0
    assert res.output.count("ok") == 3
    res = _run("ar", "--type", "D4", "--k", "2")
    assert res.exit_code == 0
    assert "k=2" in res.output


def test_stability_table_and_check():
    res = _run("stability", "--type", "A2", "--window", "0..1")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "k\tn\tphase\tmass\tZ"
    assert len(lines) == 1 + 3  # three heart objects for A2
    res2 = _run("stability", "--type", "A2", "--window", "0..1")
    assert res2.output == res.output
    res = _run("stability", "--type", "A2", "--check", "--trials", "4")
    assert res.exit_code == 0
    assert "stability axioms (1)-(4): ok" in res.output


def test_quiver_paths_and_check():
    res = _run("quiver", "--type", "D5", "--orientation", "principal",
               "--paths")
    assert res.exit_code == 0
    assert "positive roots: 20" in res.output
    grid_lines = res.output.splitlines()[-5:]
    grid = [[int(v) for v in line.split()] for line in grid_lines]
    assert [grid[i][i] for i in range(5)] == [1] * 5
    res = _run("quiver", "--type", "A3", "--b", "2", "--check")
    assert res.exit_code == 0
    assert "exceptional collection: ok" in res.output


def test_verify_prints_each_failing_section_with_its_violations(monkeypatch):
    monkeypatch.setattr(climod, "_verify_suite",
                        lambda cat: iter([("clean", []),
                                          ("planted", ["one", "two"])]))
    res = _run("verify", "--type", "A4", "--b", "2")
    assert res.exit_code == 1
    assert res.output == ("verify A4 b=2 (h=5)\n"
                          "ok   clean\n"
                          "FAIL planted\n"
                          "  one\n"
                          "  two\n")


def test_ar_prints_each_failing_vertex_with_its_violations(monkeypatch):
    planted = {2: ["planted one at k=2", "planted two at k=2"]}
    monkeypatch.setattr(climod, "ar_triangle_check",
                        lambda cat, k: planted.get(k, []))
    res = _run("ar", "--type", "D5")
    assert res.exit_code == 1
    assert res.output == ("ok   k=1  neighbors=1\n"
                          "FAIL k=2\n"
                          "  planted one at k=2\n"
                          "  planted two at k=2\n"
                          "ok   k=3  neighbors=3\n"
                          "ok   k=4  neighbors=1\n"
                          "ok   k=5  neighbors=1\n")


def test_stability_check_prints_one_fail_line_per_violation(monkeypatch):
    table = _run("stability", "--type", "A3").output
    monkeypatch.setattr(climod, "check_stability_axioms",
                        lambda *args, **kwargs: ["axiom (2): planted",
                                                 "axiom (4): planted"])
    res = _run("stability", "--type", "A3", "--check")
    assert res.exit_code == 1
    assert res.output == (table + "FAIL axiom (2): planted\n"
                          "FAIL axiom (4): planted\n")


def test_quiver_check_prints_one_fail_line_per_violation(monkeypatch):
    monkeypatch.setattr(climod, "strong_exceptionality_check",
                        lambda *args: ["backward Hom (2 -> 1) nonzero",
                                       "Hom(1, T^1 2) nonzero"])
    res = _run("quiver", "--type", "D4", "--check")
    assert res.exit_code == 1
    assert res.output == ("D4  h=6  orientation=principal\n"
                          "arrows: 1->2 3->2 4->2\n"
                          "positive roots: 12  (l*h/2 = 12)\n"
                          "highest root: 1 2 1 1\n"
                          "path algebra dimension: 7\n"
                          "FAIL backward Hom (2 -> 1) nonzero\n"
                          "FAIL Hom(1, T^1 2) nonzero\n")


def test_export_and_catalog_round_trip(tmp_path):
    res = _run("export", "--type", "E6", "--k", "5", "--n", "1")
    assert res.exit_code == 0
    g = mf_from_json(json.loads(res.output))
    assert verify_mf(g) == [] and verify_grading(g) == []
    out = tmp_path / "obj.json"
    res = _run("export", "--type", "E6", "--k", "5", "--n", "1",
               "--out", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text()) == json.loads(
        _run("export", "--type", "E6", "--k", "5", "--n", "1").output)
    res = _run("catalog", "--type", "D4", "--format", "json")
    payload = json.loads(res.output)
    assert payload["W"] == [2, 2, 3, 6]
    assert len(payload["objects"]) == 4
    for d in payload["objects"]:
        g = mf_from_json(d)
        assert verify_mf(g) == [] and verify_grading(g) == []
    res = _run("catalog", "--type", "D4")
    assert res.exit_code == 0
    assert res.output.count("k=") == 4


def test_every_command_rejects_the_threads_flag():
    # each argument list is complete, so only --threads can be refused
    for args in (("verify",), ("hom", "--from", "1", "--to", "2"),
                 ("table3",), ("ar",), ("stability",), ("quiver",),
                 ("export", "--k", "1"), ("catalog",)):
        res = _run(*args, "--type", "A3", "--threads", "8")
        assert res.exit_code == 2, args
        assert "No such option" in res.output and "--threads" in res.output
