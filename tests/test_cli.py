"""End-to-end tests for the command line interface.

Each test drives main() directly with temp-file documents and checks the
exit code together with the JSON lines printed on stdout.
"""
import itertools
import json
from fractions import Fraction

import pytest

from conepersist.arrangement import CellComplex, orthant_transform
from conepersist.checks import quadrant_cone
from conepersist.cli import main
from conepersist.conv1d import RaySheaf, line_cone
from conepersist.cone import ConeSpec
from conepersist.docio import load_document, save_document
from conepersist.interleave import interleaving_distance
from conepersist.persist import direct_sum, identity_morphism, principal_module, random_module
from conepersist.sites import beta_star


def _line_cx(breaks=(0,)):
    return CellComplex(line_cone(), [breaks])


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


def _save(tmp_path, name, obj):
    path = tmp_path / name
    save_document(str(path), obj)
    return str(path)


# -- validate ------------------------------------------------------------------------


def test_validate_module_document(tmp_path, capsys):
    F = principal_module(_line_cx(), 2, (0,))
    path = _save(tmp_path, "mod.json", F)
    code, lines = _run(capsys, "validate", path)
    assert code == 0
    assert lines == [
        {"ok": True, "kind": "arr-module", "field": 2, "dimension": 1, "total_dim": 2}
    ]


def test_validate_stabilized_document(tmp_path, capsys):
    G = beta_star(principal_module(_line_cx(), 2, (0,)))
    path = _save(tmp_path, "stab.json", G)
    code, lines = _run(capsys, "validate", path)
    assert code == 0
    assert lines[0]["kind"] == "gamma-module"
    assert lines[0]["total_dim"] == G.module.total_dim()


def test_validate_sheaf_document(tmp_path, capsys):
    rs = RaySheaf.make([Fraction(0), Fraction(3)], 5)
    path = _save(tmp_path, "sheaf.json", rs)
    code, lines = _run(capsys, "validate", path)
    assert code == 0
    assert lines == [{"ok": True, "kind": "ray-sheaf", "field": 5, "count": 2}]


def test_validate_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json")
    code, lines = _run(capsys, "validate", str(path))
    assert code == 2
    assert lines[0]["ok"] is False and lines[0]["error"] == "document"


def test_validate_unreadable_path_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, lines = _run(capsys, "validate", str(path))
        assert code == 2
        assert lines[0]["ok"] is False and lines[0]["error"] == "document"


def test_validate_non_list_cells_exits_2(tmp_path, capsys):
    path = tmp_path / "cells.json"
    save_document(str(path), principal_module(_line_cx(), 2, (0,)))
    doc = json.loads(path.read_text())
    doc["payload"]["cells"] = 5
    path.write_text(json.dumps(doc))
    code, lines = _run(capsys, "validate", str(path))
    assert code == 2
    assert lines[0]["ok"] is False and lines[0]["error"] == "document"


def test_validate_wrong_format_exits_2(tmp_path, capsys):
    path = tmp_path / "fmt.json"
    path.write_text(json.dumps({"format": "other/9", "kind": "cone", "payload": {}}))
    code, lines = _run(capsys, "validate", str(path))
    assert code == 2
    assert lines[0]["error"] == "document"


def test_validate_composite_field_exits_3(tmp_path, capsys):
    P1 = principal_module(_line_cx(), 2, (0,))
    P2 = principal_module(CellComplex(quadrant_cone(), [[0], [0]]), 2, (0, 0))
    # (document, field, appended map entries or morphism components): each
    # appended entry sits on a cell that carries no space, some through an
    # index of the wrong length; the empty matrix even has the shape of its
    # two cells.  P1 is zero on its cell (2,)
    cases = [
        (P1, 4, []),
        (RaySheaf.make([0, 1]), 4, []),
        (P2, 2, [{"source": [0], "target": [0, 0], "matrix": [[1]]}]),
        (P2, 2, [{"source": [0, 0, 0], "target": [0, 0], "matrix": [[1]]}]),
        (P1, 2, [{"source": [4], "target": [3], "matrix": [[1, 0], [0, 1]]}]),
        (P2, 2, [{"source": [0], "target": [0, 0, 0], "matrix": []}]),
        (identity_morphism(P1), 2, [{"index": [0, 0, 0], "matrix": [[1, 0], [0, 1]]}]),
        (identity_morphism(P1), 2, [{"index": [2], "matrix": []}]),
    ]
    for obj, field, entries in cases:
        path = tmp_path / "invalid.json"
        save_document(str(path), obj)
        doc = json.loads(path.read_text())
        doc["payload"]["field"] = field
        if entries:
            doc["payload"]["components" if "components" in doc["payload"] else "maps"] += entries
        path.write_text(json.dumps(doc))
        code, lines = _run(capsys, "validate", str(path))
        assert code == 3, lines
        assert lines[0]["ok"] is False and lines[0]["error"] == "invalid"


def _wedge_cx():
    wedge = ConeSpec(normals=[(-1, 0), (1, -1)], generators=[(-1, -1), (0, -1)])
    return CellComplex(wedge, [[0], [Fraction(1, 2)]], transform=orthant_transform(wedge))


def test_validate_zero_denominator_exits_2(tmp_path, capsys):
    P0 = principal_module(_line_cx(), 2, (0,))
    witness = interleaving_distance(P0, principal_module(_line_cx(), 2, (3,)), (1,)).witness
    # (document, path to one rational in its payload)
    cases = [
        (RaySheaf.make([0, 1]), ("births", 1)),
        (P0, ("axes", 0, 0)),
        (line_cone(), ("normals", 0, 0)),
        (random_module(_wedge_cx(), 2, 8), ("cone", "transform", 1, 0)),
        (witness, ("direction", 0)),
    ]
    # a negative denominator is outside the "p/q" (q > 0) format too
    for (obj, where), text in itertools.product(cases, ("1/0", "1/-2")):
        path = tmp_path / "zero.json"
        save_document(str(path), obj)
        doc = json.loads(path.read_text())
        holder = doc["payload"]
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = text
        path.write_text(json.dumps(doc))
        code, lines = _run(capsys, "validate", str(path))
        assert code == 2, (where, text)
        assert lines[0]["ok"] is False and lines[0]["error"] == "document"


# -- functor -------------------------------------------------------------------------


def test_functor_beta_star_writes_stabilization(tmp_path, capsys):
    F = random_module(_line_cx((0, 1)), 2, 5)
    src = _save(tmp_path, "mod.json", F)
    out = str(tmp_path / "stab.json")
    code, lines = _run(capsys, "functor", "beta-star", src, out)
    assert code == 0
    info = lines[0]
    assert info["ok"] is True and info["functor"] == "beta-star"
    assert info["output"] == out
    kind, G = load_document(out)
    assert kind == "gamma-module"
    assert info["total_dim"] == G.module.total_dim()


def test_functor_beta_star_idempotent_on_files(tmp_path, capsys):
    F = random_module(_line_cx((0, 1)), 2, 5)
    src = _save(tmp_path, "mod.json", F)
    out1 = str(tmp_path / "s1.json")
    out2 = str(tmp_path / "s2.json")
    assert _run(capsys, "functor", "beta-star", src, out1)[0] == 0
    # feeding the stabilized document back in reproduces it byte for byte
    assert _run(capsys, "functor", "beta-star", out1, out2)[0] == 0
    assert (tmp_path / "s1.json").read_text() == (tmp_path / "s2.json").read_text()


def test_functor_chain_frozen_dims(tmp_path, capsys):
    # support of the generator at 0 ends at the breakpoint, so the two
    # corner readouts of its stabilization differ there
    F = principal_module(_line_cx(), 2, (0,))
    src = _save(tmp_path, "mod.json", F)
    stab = str(tmp_path / "stab.json")
    code, lines = _run(capsys, "functor", "beta-star", src, stab)
    assert code == 0 and lines[0]["total_dim"] == 2
    back = str(tmp_path / "back.json")
    code, lines = _run(capsys, "functor", "beta-inv", stab, back)
    assert code == 0 and lines[0]["total_dim"] == 1
    assert load_document(back)[0] == "arr-module"
    interior = str(tmp_path / "interior.json")
    code, lines = _run(capsys, "functor", "alpha-star", stab, interior)
    assert code == 0 and lines[0]["total_dim"] == 2
    assert load_document(interior)[0] == "arr-module"


def test_functor_kind_mismatch_exits_4(tmp_path, capsys):
    F = principal_module(_line_cx(), 2, (0,))
    src = _save(tmp_path, "mod.json", F)
    out = str(tmp_path / "out.json")
    code, lines = _run(capsys, "functor", "beta-inv", src, out)
    assert code == 4
    assert lines[0]["error"] == "domain"


# -- distance ------------------------------------------------------------------------


def test_distance_interleaving_exact_with_witness(tmp_path, capsys):
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    # the stabilized (gamma-module) documents are at the same distance
    for F, G in ((P0, P3), (beta_star(P0), beta_star(P3))):
        a = _save(tmp_path, "p0.json", F)
        b = _save(tmp_path, "p3.json", G)
        wpath = str(tmp_path / "w.json")
        code, lines = _run(
            capsys, "distance", "interleaving", a, b, "--direction", "1", "--witness", wpath
        )
        assert code == 0
        info = lines[0]
        assert info["value"] == "3" and info["attained"] is True
        assert info["mode"] == "exact" and info["direction"] == ["1"]
        assert info["witness_parameter"] == "3" and info["witness"] == wpath
        kind, w = load_document(wpath)
        assert kind == "witness" and w.verify()


def test_distance_interleaving_infinite(tmp_path, capsys):
    P0 = principal_module(_line_cx(), 2, (0,))
    a = _save(tmp_path, "double.json", direct_sum(P0, P0))
    b = _save(tmp_path, "single.json", P0)
    code, lines = _run(capsys, "distance", "interleaving", a, b, "--direction", "1")
    assert code == 0
    assert lines[0]["value"] == "inf" and lines[0]["attained"] is None


def test_distance_bracketed(tmp_path, capsys):
    a = _save(tmp_path, "p0.json", principal_module(_line_cx(), 2, (0,)))
    b = _save(tmp_path, "p3.json", principal_module(_line_cx(), 2, (3,)))
    code, lines = _run(
        capsys,
        "distance",
        "interleaving",
        a,
        b,
        "--direction",
        "1",
        "--mode",
        "bracketed",
        "--tol",
        "1/64",
    )
    assert code == 0
    info = lines[0]
    lo, hi = Fraction(info["bracket"][0]), Fraction(info["bracket"][1])
    assert lo < 3 <= hi and hi - lo <= Fraction(1, 64)
    assert Fraction(info["value"]) == hi


def test_distance_bracketed_without_tol_exits_3(tmp_path, capsys):
    a = _save(tmp_path, "p0.json", principal_module(_line_cx(), 2, (0,)))
    for tol in ([], ["--tol", "0"], ["--tol=-1/2"]):
        code, lines = _run(
            capsys, "distance", "interleaving", a, a, "--direction", "1", "--mode", "bracketed", *tol
        )
        assert code == 3
        assert lines[0]["error"] == "invalid"


def test_distance_direction_errors_exit_4(tmp_path, capsys):
    a = _save(tmp_path, "p0.json", principal_module(_line_cx(), 2, (0,)))
    for bad in ("-1", "1,1"):
        code, lines = _run(capsys, "distance", "interleaving", a, a, "--direction", bad)
        assert code == 4
        assert lines[0]["error"] == "domain"


def test_distance_zero_denominator_direction_exits_4(tmp_path, capsys):
    # a zero denominator, a decimal or a non-number in either rational flag
    # is a usage error, never a traceback
    a = _save(tmp_path, "p0.json", principal_module(_line_cx(), 2, (0,)))
    for bad in ("1/0", "0.5", "x"):
        for metric in ("interleaving", "convolution"):
            code, lines = _run(capsys, "distance", metric, a, a, "--direction", bad)
            assert code == 4
            assert lines[0]["ok"] is False and lines[0]["error"] == "domain"
        code, lines = _run(
            capsys, "distance", "interleaving", a, a, "--direction", "1", "--mode", "bracketed", "--tol", bad
        )
        assert code == 4
        assert lines[0]["ok"] is False and lines[0]["error"] == "domain"


def test_distance_negative_budget_exits_4(tmp_path, capsys):
    a = _save(tmp_path, "p0.json", principal_module(_line_cx(), 2, (0,)))
    code, lines = _run(capsys, "distance", "interleaving", a, a, "--direction", "1", "--budget", "-1")
    assert code == 4
    assert lines[0]["ok"] is False and lines[0]["error"] == "domain"


def test_distance_incompatible_complexes_exit_4(tmp_path, capsys):
    a = _save(tmp_path, "line.json", principal_module(_line_cx(), 2, (0,)))
    quad = CellComplex(quadrant_cone(), [(0,), (0,)])
    b = _save(tmp_path, "plane.json", principal_module(quad, 2, (0, 0)))
    code, lines = _run(capsys, "distance", "interleaving", a, b, "--direction", "1")
    assert code == 4
    assert lines[0]["error"] == "domain"


def test_distance_kind_mismatch_exits_4(tmp_path, capsys):
    mod = _save(tmp_path, "mod.json", principal_module(_line_cx(), 2, (0,)))
    sheaf = _save(tmp_path, "sheaf.json", RaySheaf.make([Fraction(0)], 2))
    code, lines = _run(capsys, "distance", "interleaving", sheaf, mod, "--direction", "1")
    assert code == 4 and lines[0]["error"] == "domain"
    code, lines = _run(capsys, "distance", "convolution", mod, sheaf, "--direction", "1")
    assert code == 4 and lines[0]["error"] == "domain"


def test_distance_convolution(tmp_path, capsys):
    a = _save(tmp_path, "s0.json", RaySheaf.make([Fraction(0)], 2))
    b = _save(tmp_path, "s3.json", RaySheaf.make([Fraction(3)], 2))
    code, lines = _run(capsys, "distance", "convolution", a, b, "--direction", "1")
    assert code == 0
    assert lines[0]["value"] == "3" and lines[0]["attained"] is True
    # doubling the gauge speed halves the reported distance
    code, lines = _run(capsys, "distance", "convolution", a, b, "--direction", "2")
    assert code == 0
    assert lines[0]["value"] == "3/2"


def test_distance_convolution_field_mismatch_exits_3(tmp_path, capsys):
    # the field is checked before the counts: unequal counts (once inf)
    # and two empty sheaves (once 0) are refused like equal counts
    for src, dst in (([0], [0]), ([0], [0, 1]), ([], [])):
        a = _save(tmp_path, "f2.json", RaySheaf.make(src, 2))
        b = _save(tmp_path, "f3.json", RaySheaf.make(dst, 3))
        code, lines = _run(capsys, "distance", "convolution", a, b, "--direction", "1")
        assert code == 3 and lines[0]["error"] == "invalid"


def test_distance_convolution_gauge_errors_exit_4(tmp_path, capsys):
    a = _save(tmp_path, "s0.json", RaySheaf.make([Fraction(0)], 2))
    for bad in ("-1", "0", "1,1"):
        code, lines = _run(capsys, "distance", "convolution", a, a, "--direction", bad)
        assert code == 4 and lines[0]["error"] == "domain"
    code, lines = _run(
        capsys, "distance", "convolution", a, a, "--direction", "1", "--mode", "bracketed"
    )
    assert code == 4 and lines[0]["error"] == "domain"


def test_distance_budget_exhausted_exits_5(tmp_path, capsys):
    cx = _line_cx((0, 1))
    a = _save(tmp_path, "f.json", random_module(cx, 2, 176))
    b = _save(tmp_path, "g.json", random_module(cx, 2, 676))
    code, lines = _run(
        capsys, "distance", "interleaving", a, b, "--direction", "1", "--budget", "0"
    )
    assert code == 5
    info = lines[0]
    assert info["ok"] is False and info["error"] == "budget"
    assert info["budget"] == 0 and info["required"] > 0
    # the parameter decided before the bailout is reported as an upper bound
    assert info["known_true"] == "1"


# -- check ---------------------------------------------------------------------------


def test_check_suite_emits_cases_and_summary(capsys):
    code, lines = _run(capsys, "check", "gauge", "--seed", "0", "--count", "3")
    assert code == 0
    cases, summary = lines[:-1], lines[-1]
    assert summary == {"suite": "gauge", "passed": 3, "failed": 0}
    for i, case in enumerate(cases):
        assert case["case"] == i and case["seed"] == i
        assert case["ok"] is True


def test_check_failure_exits_1(capsys, monkeypatch):
    def fake(name, seed, count, field=2):
        yield 0, {"ok": True}
        yield 1, {"ok": False, "detail": "forced"}

    monkeypatch.setattr("conepersist.cli.run_suite", fake)
    code, lines = _run(capsys, "check", "gauge", "--count", "2")
    assert code == 1
    assert lines[-1] == {"suite": "gauge", "passed": 1, "failed": 1}


def test_unknown_arguments_raise_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["distance", "hausdorff", "a", "b", "--direction", "1"])
    capsys.readouterr()
