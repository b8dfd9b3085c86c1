"""Strict JSON document round trips and rejection behavior."""
import copy
import json
from fractions import Fraction

import pytest

from conepersist.arrangement import CellComplex, orthant_transform
from conepersist.cone import ConeSpec
from conepersist.conv1d import RaySheaf
from conepersist.docio import (
    FORMAT,
    DocumentError,
    document_for,
    load_document,
    object_from_document,
    save_document,
)
from conepersist.interleave import interleaving_distance
from conepersist.persist import principal_module, random_module, random_morphism
from conepersist.sites import beta_star


def _line_cx(breaks=(0,)):
    return CellComplex(ConeSpec(normals=[(-1,)], generators=[(-1,)]), [list(breaks)])


def _wedge_cx():
    wedge = ConeSpec(normals=[(-1, 0), (1, -1)], generators=[(-1, -1), (0, -1)])
    return CellComplex(wedge, [[0], [Fraction(1, 2)]], transform=orthant_transform(wedge))


# -- round trips ----------------------------------------------------------------


def test_cone_round_trip(tmp_path):
    cone = ConeSpec(normals=[(-1, 0), (1, -1)], generators=[(-1, -1), (0, -1)])
    path = tmp_path / "cone.json"
    save_document(path, cone)
    kind, back = load_document(path)
    assert kind == "cone" and back == cone


def test_module_round_trip(tmp_path):
    F = random_module(_line_cx((0, 1)), 3, 5)
    path = tmp_path / "mod.json"
    save_document(path, F)
    kind, back = load_document(path)
    assert kind == "arr-module" and back == F


def test_module_round_trip_with_transform(tmp_path):
    F = random_module(_wedge_cx(), 2, 8)
    path = tmp_path / "mod.json"
    save_document(path, F)
    kind, back = load_document(path)
    assert kind == "arr-module" and back == F
    assert back.complex.transform == F.complex.transform


def test_gamma_module_round_trip(tmp_path):
    g = beta_star(random_module(_line_cx((0, 1)), 2, 7))
    path = tmp_path / "gm.json"
    save_document(path, g)
    kind, back = load_document(path)
    assert kind == "gamma-module" and back == g


def test_sheaf_round_trip(tmp_path):
    rs = RaySheaf.make([Fraction(-1, 2), 0, 3], p=5)
    path = tmp_path / "sheaf.json"
    save_document(path, rs)
    kind, back = load_document(path)
    assert kind == "ray-sheaf" and back == rs


def test_morphism_round_trip(tmp_path):
    cx = _line_cx((0,))
    F = random_module(cx, 2, 1)
    G = random_module(cx, 2, 2)
    f = random_morphism(F, G, 3)
    path = tmp_path / "mor.json"
    save_document(path, f)
    kind, back = load_document(path)
    assert kind == "morphism" and back == f


def test_witness_round_trip_verifies_on_load(tmp_path):
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    w = interleaving_distance(P0, P3, (1,)).witness
    path = tmp_path / "wit.json"
    save_document(path, w)
    kind, back = load_document(path)
    assert kind == "witness"
    assert back.verify()
    assert back.v == w.v


def test_document_for_rejects_unknown_types():
    with pytest.raises(TypeError):
        document_for(object())


# -- rejections -----------------------------------------------------------------


def _module_doc():
    # seed 5 fills every cell and both cover maps
    return document_for(random_module(_line_cx((0,)), 2, 5))


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError):
        load_document(path)


def test_rejects_wrong_format_and_kind():
    doc = _module_doc()
    bad = copy.deepcopy(doc)
    bad["format"] = "conepersist/999"
    with pytest.raises(DocumentError):
        object_from_document(bad)
    bad2 = copy.deepcopy(doc)
    bad2["kind"] = "poset-module"
    with pytest.raises(DocumentError):
        object_from_document(bad2)


def test_rejects_unknown_keys_everywhere():
    doc = _module_doc()
    top = copy.deepcopy(doc)
    top["comment"] = "hello"
    with pytest.raises(DocumentError):
        object_from_document(top)
    inner = copy.deepcopy(doc)
    inner["payload"]["extra"] = 1
    with pytest.raises(DocumentError):
        object_from_document(inner)
    cell = copy.deepcopy(doc)
    cell["payload"]["cells"][0]["note"] = "x"
    with pytest.raises(DocumentError):
        object_from_document(cell)


def test_rejects_floats_in_rational_slots():
    doc = document_for(RaySheaf.make([0]))
    bad = copy.deepcopy(doc)
    bad["payload"]["births"] = [0.5]
    with pytest.raises(DocumentError):
        object_from_document(bad)


def test_rejects_non_integer_matrix_entries():
    doc = _module_doc()
    bad = copy.deepcopy(doc)
    if not bad["payload"]["maps"]:
        pytest.skip("seed produced a module with no maps")
    bad["payload"]["maps"][0]["matrix"] = [[0.5]]
    with pytest.raises(DocumentError):
        object_from_document(bad)
    booled = copy.deepcopy(doc)
    booled["payload"]["maps"][0]["matrix"] = [[True]]
    with pytest.raises(DocumentError):
        object_from_document(booled)


def test_rejects_ragged_matrices_via_constructor():
    doc = _module_doc()
    bad = copy.deepcopy(doc)
    if not bad["payload"]["maps"]:
        pytest.skip("seed produced a module with no maps")
    bad["payload"]["maps"][0]["matrix"] = [[1, 0], [1]]
    with pytest.raises(ValueError):
        object_from_document(bad)


def test_rejects_duplicate_cells_and_maps():
    doc = _module_doc()
    dup = copy.deepcopy(doc)
    dup["payload"]["cells"].append(copy.deepcopy(dup["payload"]["cells"][0]))
    with pytest.raises(DocumentError):
        object_from_document(dup)
    dupm = copy.deepcopy(doc)
    if dupm["payload"]["maps"]:
        dupm["payload"]["maps"].append(copy.deepcopy(dupm["payload"]["maps"][0]))
        with pytest.raises(DocumentError):
            object_from_document(dupm)


def test_rejects_non_list_cells_maps_and_components():
    doc = _module_doc()
    for key in ("cells", "maps"):
        for value in (5, None, {"index": [0]}):
            bad = copy.deepcopy(doc)
            bad["payload"][key] = value
            with pytest.raises(DocumentError):
                object_from_document(bad)
    F = random_module(_line_cx((0,)), 2, 5)
    mor = document_for(random_morphism(F, F, seed=1))
    for value in (5, None):
        bad = copy.deepcopy(mor)
        bad["payload"]["components"] = value
        with pytest.raises(DocumentError):
            object_from_document(bad)


def test_unreadable_paths_are_document_errors(tmp_path):
    with pytest.raises(DocumentError):
        load_document(tmp_path / "missing.json")
    with pytest.raises(DocumentError):
        load_document(tmp_path)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(DocumentError):
        load_document(binary)


def test_rejects_kind_mismatch_and_bad_dims():
    doc = _module_doc()
    kinded = copy.deepcopy(doc)
    kinded["payload"]["cells"][0]["kind"] = ["point"]
    with pytest.raises(DocumentError):
        object_from_document(kinded)
    negd = copy.deepcopy(doc)
    negd["payload"]["cells"][0]["dim"] = -1
    with pytest.raises(DocumentError):
        object_from_document(negd)
    boold = copy.deepcopy(doc)
    boold["payload"]["cells"][0]["dim"] = True
    with pytest.raises(DocumentError):
        object_from_document(boold)


def test_rejects_composite_field():
    doc = _module_doc()
    for good in (doc, document_for(RaySheaf.make([0, 1]))):
        bad = copy.deepcopy(good)
        bad["payload"]["field"] = 4
        with pytest.raises(ValueError):
            object_from_document(bad)
    structural = copy.deepcopy(doc)
    structural["payload"]["field"] = "2"
    with pytest.raises(DocumentError):
        object_from_document(structural)


def test_rejects_invalid_witness_data(tmp_path):
    P0 = principal_module(_line_cx(), 2, (0,))
    P3 = principal_module(_line_cx(), 2, (3,))
    w = interleaving_distance(P0, P3, (1,)).witness
    doc = document_for(w)
    bad = copy.deepcopy(doc)
    comps = bad["payload"]["f"]["components"]
    if not comps:
        pytest.skip("witness has no forward components to corrupt")
    comps[0]["matrix"] = [[0] for _ in comps[0]["matrix"]]
    with pytest.raises(ValueError):
        object_from_document(bad)


def test_saved_documents_are_stable_json(tmp_path):
    F = random_module(_line_cx((0,)), 2, 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_document(p1, F)
    save_document(p2, F)
    assert p1.read_text() == p2.read_text()
    doc = json.loads(p1.read_text())
    assert doc["format"] == FORMAT
