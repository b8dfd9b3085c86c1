"""Strict JSON documents for cones, modules, sheaves, morphisms and
interleaving witnesses.

Every document is {"format": "conepersist/1", "kind": ..., "payload": ...}
with rationals as "p/q" strings and matrices as integer row lists.
Unknown keys anywhere are rejected; structural problems raise
DocumentError, while semantic invariant violations surface as ValueError
from the constructors."""
from __future__ import annotations

import json
from pathlib import Path

from .arrangement import CellComplex
from .cone import ConeSpec
from .conv1d import RaySheaf
from .exactla import FieldMat
from .interleave import InterleavingWitness
from .persist import ArrModule, ModMorphism
from .rational import format_vector, parse_rational
from .sites import GammaModule

__all__ = [
    "DocumentError",
    "FORMAT",
    "load_document",
    "save_document",
    "document_for",
    "object_from_document",
]

FORMAT = "conepersist/1"


class DocumentError(ValueError):
    """Malformed document structure."""


def _expect(obj, required, optional=()):
    if not isinstance(obj, dict):
        raise DocumentError(f"expected object with keys {required}, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    unknown = [k for k in obj if k not in required and k not in optional]
    if missing:
        raise DocumentError(f"missing keys: {missing}")
    if unknown:
        raise DocumentError(f"unknown keys: {unknown}")


def _list(x, what):
    if not isinstance(x, list):
        raise DocumentError(f"{what} must be a list")
    return x


def _vector(x, what="vector"):
    _list(x, what)
    try:
        return tuple(parse_rational(v) for v in x)
    except (ValueError, TypeError) as e:
        raise DocumentError(f"bad {what}: {e}") from None


def _int_matrix(m, what="matrix"):
    if not isinstance(m, list) or not all(isinstance(r, list) for r in m):
        raise DocumentError(f"{what} must be a list of rows")
    for r in m:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise DocumentError(f"{what} entries must be integers")
    return m


def _field(p):
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise DocumentError("field must be a prime integer")
    return p


def _cell_index(x, what="cell index"):
    if not isinstance(x, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in x
    ):
        raise DocumentError(f"{what} must be a list of integers")
    return tuple(x)


# -- cone -----------------------------------------------------------------------


def cone_to_payload(cone: ConeSpec) -> dict:
    return {
        "normals": [format_vector(n) for n in cone.normals],
        "generators": [format_vector(g) for g in cone.generators],
    }


def cone_from_payload(payload) -> ConeSpec:
    _expect(payload, ("normals", "generators"))
    if not isinstance(payload["normals"], list) or not isinstance(payload["generators"], list):
        raise DocumentError("normals and generators must be lists of vectors")
    normals = [_vector(n, "normal") for n in payload["normals"]]
    generators = [_vector(g, "generator") for g in payload["generators"]]
    return ConeSpec(normals, generators)


# -- modules --------------------------------------------------------------------


def _complex_payload(cx: CellComplex) -> dict:
    cone = dict(cone_to_payload(cx.cone))
    if cx.transform is not None:
        cone["transform"] = [format_vector(row) for row in cx.transform]
    return {
        "cone": cone,
        "axes": [format_vector(ax.breaks) for ax in cx.axes],
    }


def _complex_from(payload) -> CellComplex:
    _expect(payload["cone"], ("normals", "generators"), optional=("transform",))
    transform = None
    cone_payload = dict(payload["cone"])
    if "transform" in cone_payload:
        raw = cone_payload.pop("transform")
        if not isinstance(raw, list):
            raise DocumentError("transform must be a matrix")
        transform = [_vector(row, "transform row") for row in raw]
    cone = cone_from_payload(cone_payload)
    axes = payload["axes"]
    if not isinstance(axes, list):
        raise DocumentError("axes must be a list of breakpoint lists")
    breaks = [_vector(a, "breakpoints") for a in axes]
    return CellComplex(cone, breaks, transform)


def module_to_payload(mod: ArrModule) -> dict:
    cells = [
        {"index": list(c), "kind": list(mod.complex.cell_kind(c)), "dim": d}
        for c, d in sorted(mod.dims.items())
    ]
    maps = [
        {
            "source": list(b),
            "target": list(a),
            "matrix": [list(r) for r in m.entries],
        }
        for (a, b), m in sorted(mod.maps.items())
    ]
    payload = {"field": mod.p, "dimension": mod.complex.dim}
    payload.update(_complex_payload(mod.complex))
    payload["cells"] = cells
    payload["maps"] = maps
    return payload


def module_from_payload(payload) -> ArrModule:
    _expect(payload, ("field", "dimension", "cone", "axes", "cells", "maps"))
    p = _field(payload["field"])
    cx = _complex_from(payload)
    n = payload["dimension"]
    if not isinstance(n, int) or n != cx.dim:
        raise DocumentError("dimension does not match the cone and axes")
    dims = {}
    for cell in _list(payload["cells"], "cells"):
        _expect(cell, ("index", "kind", "dim"))
        idx = _cell_index(cell["index"])
        if cell["kind"] != list(cx.cell_kind(idx)):
            raise DocumentError(f"cell kind mismatch at {idx}")
        d = cell["dim"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise DocumentError("cell dim must be a nonnegative integer")
        if idx in dims:
            raise DocumentError(f"duplicate cell {idx}")
        dims[idx] = d
    maps = {}
    for m in _list(payload["maps"], "maps"):
        _expect(m, ("source", "target", "matrix"))
        b = _cell_index(m["source"], "source cell")
        a = _cell_index(m["target"], "target cell")
        mat = FieldMat.make(p, _int_matrix(m["matrix"]))
        if (a, b) in maps:
            raise DocumentError(f"duplicate map {a} <- {b}")
        maps[(a, b)] = mat
    return ArrModule(cx, p, dims, maps)


def gamma_module_from_payload(payload) -> GammaModule:
    return GammaModule(module_from_payload(payload))


# -- ray sheaf ------------------------------------------------------------------


def sheaf_to_payload(rs: RaySheaf) -> dict:
    return {"field": rs.p, "births": format_vector(rs.births)}


def sheaf_from_payload(payload) -> RaySheaf:
    _expect(payload, ("field", "births"))
    p = _field(payload["field"])
    births = _vector(payload["births"], "births")
    return RaySheaf.make(births, p)


# -- morphisms and witnesses ------------------------------------------------------


def morphism_to_payload(f: ModMorphism) -> dict:
    return {
        "field": f.src.p,
        "source": module_to_payload(f.src),
        "target": module_to_payload(f.dst),
        "components": [
            {"index": list(c), "matrix": [list(r) for r in m.entries]}
            for c, m in sorted(f.components.items())
        ],
    }


def morphism_from_payload(payload) -> ModMorphism:
    _expect(payload, ("field", "source", "target", "components"))
    p = _field(payload["field"])
    src = module_from_payload(payload["source"])
    dst = module_from_payload(payload["target"])
    if src.p != p or dst.p != p:
        raise DocumentError("morphism field disagrees with endpoint fields")
    comps = {}
    for c in _list(payload["components"], "components"):
        _expect(c, ("index", "matrix"))
        idx = _cell_index(c["index"])
        if idx in comps:
            raise DocumentError(f"duplicate component at {idx}")
        comps[idx] = FieldMat.make(p, _int_matrix(c["matrix"]))
    return ModMorphism(src, dst, comps)


def witness_to_payload(w: InterleavingWitness) -> dict:
    return {
        "direction": format_vector(w.v),
        "first": module_to_payload(w.F),
        "second": module_to_payload(w.G),
        "f": morphism_to_payload(w.f),
        "g": morphism_to_payload(w.g),
    }


def witness_from_payload(payload) -> InterleavingWitness:
    _expect(payload, ("direction", "first", "second", "f", "g"))
    v = _vector(payload["direction"], "direction")
    F = module_from_payload(payload["first"])
    G = module_from_payload(payload["second"])
    f = morphism_from_payload(payload["f"])
    g = morphism_from_payload(payload["g"])
    w = InterleavingWitness(v=v, f=f, g=g, F=F, G=G)
    if not w.verify():
        raise ValueError("witness data does not satisfy the interleaving equations")
    return w


# -- documents --------------------------------------------------------------------

_TO_PAYLOAD = [
    (GammaModule, "gamma-module", lambda g: module_to_payload(g.module)),
    (ArrModule, "arr-module", module_to_payload),
    (ConeSpec, "cone", cone_to_payload),
    (RaySheaf, "ray-sheaf", sheaf_to_payload),
    (ModMorphism, "morphism", morphism_to_payload),
    (InterleavingWitness, "witness", witness_to_payload),
]

_FROM_PAYLOAD = {
    "cone": cone_from_payload,
    "arr-module": module_from_payload,
    "gamma-module": gamma_module_from_payload,
    "ray-sheaf": sheaf_from_payload,
    "morphism": morphism_from_payload,
    "witness": witness_from_payload,
}


def document_for(obj) -> dict:
    for cls, kind, fn in _TO_PAYLOAD:
        if isinstance(obj, cls):
            return {"format": FORMAT, "kind": kind, "payload": fn(obj)}
    raise TypeError(f"no document form for {type(obj).__name__}")


def object_from_document(doc):
    _expect(doc, ("format", "kind", "payload"))
    if doc["format"] != FORMAT:
        raise DocumentError(f"unsupported format {doc['format']!r}")
    kind = doc["kind"]
    if kind not in _FROM_PAYLOAD:
        raise DocumentError(f"unknown kind {kind!r}")
    return kind, _FROM_PAYLOAD[kind](doc["payload"])


def load_document(path):
    """(kind, object) of the document at path; a file that cannot be read
    as text is a malformed document too."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DocumentError(f"cannot read document: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    return object_from_document(doc)


def save_document(path, obj) -> None:
    doc = document_for(obj)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
