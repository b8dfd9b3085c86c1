"""Cone-order open sets and the comparison functors between the two
sheaf-theoretic models of a persistence module.

Open sets are finite unions of translates of the cone (kind "closed") or
of its interior (kind "interior").  Modules on a cell arrangement are
compared with their corner stabilizations: the downward functor reads a
module just inside the cone corner at each cell, the upward one reads it
just inside the antipodal corner.  Stabilized modules satisfy a corner
invariant (the map into the adjacent fully open cell is an isomorphism),
and the stabilization of a stabilization changes nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arrangement import ANTIPODAL, INTERIOR, CellComplex
from .cone import ConeSpec
from .persist import (
    ArrModule,
    ModMorphism,
    pointwise_image,
    pointwise_kernel,
    random_module,
    restrict_module,
    restrict_morphism,
)
from .rational import Vec, as_vec

__all__ = [
    "OpenPiece",
    "OpenSet",
    "alpha_t",
    "beta_t",
    "open_union",
    "open_intersect",
    "open_contains",
    "open_equal",
    "GammaModule",
    "beta_star",
    "beta_inv",
    "alpha_star",
    "beta_star_morphism",
    "beta_inv_morphism",
    "alpha_star_morphism",
    "is_ephemeral",
    "strict_restrictions_vanish",
    "exactness_probe",
    "random_gamma_module",
]

CLOSED = "closed"
OPEN = "interior"


@dataclass(frozen=True)
class OpenPiece:
    kind: str
    point: Vec

    def __post_init__(self):
        if self.kind not in (CLOSED, OPEN):
            raise ValueError(f"piece kind must be {CLOSED!r} or {OPEN!r}")
        object.__setattr__(self, "point", as_vec(self.point))


def _piece_contains(cone: ConeSpec, outer: OpenPiece, inner: OpenPiece) -> bool:
    d = tuple(a - b for a, b in zip(inner.point, outer.point))
    if outer.kind == OPEN and inner.kind == CLOSED:
        # a closed translate fits in an interior one only strictly
        return cone.interior_contains(d)
    return cone.contains(d)


class OpenSet:
    """Finite union of cone translates, canonically pruned to the maximal
    pieces."""

    def __init__(self, cone: ConeSpec, pieces):
        self.cone = cone
        cleaned = []
        for p in pieces:
            if not isinstance(p, OpenPiece):
                kind, point = p
                p = OpenPiece(kind, as_vec(point))
            if len(p.point) != cone.dim:
                raise ValueError("piece dimension mismatch")
            cleaned.append(p)
        self.pieces = self._prune(cone, cleaned)

    @staticmethod
    def _prune(cone, pieces):
        # distinct pieces never contain each other mutually (the cone is
        # proper), so dropping dominated ones leaves a canonical antichain
        pieces = sorted(set(pieces), key=lambda p: (p.kind, p.point))
        keep = []
        for i, p in enumerate(pieces):
            if not any(
                j != i and _piece_contains(cone, q, p) for j, q in enumerate(pieces)
            ):
                keep.append(p)
        return tuple(keep)

    def kinds(self) -> set[str]:
        return {p.kind for p in self.pieces}

    def __eq__(self, other):
        if not isinstance(other, OpenSet):
            return NotImplemented
        return open_contains(self, other) and open_contains(other, self)

    def __hash__(self):
        return hash((self.cone, self.pieces))

    def __repr__(self):
        return f"OpenSet({list(self.pieces)!r})"


def open_contains(outer: OpenSet, inner: OpenSet) -> bool:
    """Whether every piece of inner lies in some piece of outer.  For cone
    translates a union contains a translate exactly when one piece does, so
    this decides genuine set containment."""
    if outer.cone != inner.cone:
        raise ValueError("open sets over different cones")
    return all(
        any(_piece_contains(outer.cone, q, p) for q in outer.pieces)
        for p in inner.pieces
    )


def open_equal(u: OpenSet, v: OpenSet) -> bool:
    return open_contains(u, v) and open_contains(v, u)


def open_union(u: OpenSet, v: OpenSet) -> OpenSet:
    if u.cone != v.cone:
        raise ValueError("open sets over different cones")
    return OpenSet(u.cone, u.pieces + v.pieces)


def _orthant_signs(cone: ConeSpec) -> list[int]:
    try:
        return CellComplex._axis_signs(cone)
    except ValueError:
        raise ValueError("intersection needs an axis-aligned cone") from None


def open_intersect(u: OpenSet, v: OpenSet) -> OpenSet:
    """Intersection of two unions of like-kind translates of an
    axis-aligned cone: pieces intersect pairwise in the oriented
    componentwise maximum."""
    if u.cone != v.cone:
        raise ValueError("open sets over different cones")
    kinds = u.kinds() | v.kinds()
    if len(kinds) > 1:
        raise ValueError("intersection of mixed-kind open sets is not supported")
    signs = _orthant_signs(u.cone)
    out = []
    for p in u.pieces:
        for q in v.pieces:
            m = tuple(
                x if s * x >= s * y else y
                for s, x, y in zip(signs, p.point, q.point)
            )
            out.append(OpenPiece(p.kind, m))
    return OpenSet(u.cone, out)


def alpha_t(u: OpenSet) -> OpenSet:
    """Interior operator on generated opens: closed translates open up to
    interior translates at the same points; interior translates are already
    open and pass through unchanged."""
    kinds = u.kinds()
    if kinds <= {OPEN}:
        return u
    if kinds == {CLOSED}:
        return OpenSet(u.cone, [OpenPiece(OPEN, p.point) for p in u.pieces])
    raise ValueError("mixed-kind open set")


def beta_t(u: OpenSet) -> OpenSet:
    """Inclusion of interior-kind opens into the cone-order opens."""
    if u.kinds() <= {OPEN}:
        return u
    raise ValueError("only interior-kind open sets lie in the smaller site")


# -- corner stabilization functors ----------------------------------------------


class GammaModule:
    """Module satisfying the corner invariant: at every cell, the structure
    map into the fully open cell just inside the cone corner is an
    isomorphism."""

    def __init__(self, module: ArrModule, validate: bool = True):
        self.module = module
        if validate:
            self.validate()

    @property
    def complex(self) -> CellComplex:
        return self.module.complex

    @property
    def p(self) -> int:
        return self.module.p

    def validate(self):
        m = self.module
        for c in m.complex.cells():
            inner = m.complex.just_inside(c, INTERIOR)
            if inner == c:
                continue
            f = m.structure_map(inner, c)
            if f.nrows != f.ncols or f.rank() != f.nrows:
                raise ValueError(f"corner map at {c} is not an isomorphism")

    def is_zero(self) -> bool:
        return self.module.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GammaModule):
            return NotImplemented
        return self.module == other.module

    def __repr__(self):
        return f"GammaModule({self.module!r})"


def _look(cx: CellComplex, direction: str):
    """Cell map sending each cell to the cell just inside it on the given
    side; the corner functors pull back along it."""
    return {c: cx.just_inside(c, direction) for c in cx.cells()}.__getitem__


def _corner_pushforward(mod: ArrModule, direction: str) -> ArrModule:
    return restrict_module(mod, mod.complex, _look(mod.complex, direction))


def beta_star(mod: ArrModule) -> GammaModule:
    """Stabilize toward the cone corner: each cell reads the value just
    inside the interior side.  The result is canonical: its corner maps
    are literally identities."""
    return GammaModule(_corner_pushforward(mod, INTERIOR), validate=False)


def beta_inv(g: GammaModule) -> ArrModule:
    """Stabilize toward the antipodal corner: each cell reads the value of
    the underlying module just inside the antipodal side."""
    return _corner_pushforward(g.module, ANTIPODAL)


def alpha_star(g: GammaModule) -> ArrModule:
    """Underlying-module readout toward the cone corner; on stabilized
    modules this is the identity presentation."""
    return _corner_pushforward(g.module, INTERIOR)


def _corner_pushforward_morphism(f: ModMorphism, direction: str) -> ModMorphism:
    return restrict_morphism(f, f.src.complex, _look(f.src.complex, direction))


def beta_star_morphism(f: ModMorphism) -> ModMorphism:
    return _corner_pushforward_morphism(f, INTERIOR)


def beta_inv_morphism(f: ModMorphism) -> ModMorphism:
    return _corner_pushforward_morphism(f, ANTIPODAL)


def alpha_star_morphism(f: ModMorphism) -> ModMorphism:
    return _corner_pushforward_morphism(f, INTERIOR)


def is_ephemeral(mod: ArrModule) -> bool:
    """A module dies under corner stabilization exactly when it vanishes on
    every fully open cell."""
    return all(
        mod.dim_at(c) == 0 for c in mod.complex.cells() if mod.complex.is_fully_open(c)
    )


def strict_restrictions_vanish(mod: ArrModule) -> bool:
    """One-axis reformulation: every restriction map realized by a strict
    pair of parameters is zero.  A cell pair (a, b) with a <= b admits
    parameters s < t unless both are the same singleton cell; equal open
    cells admit s < t inside, so their identity must vanish."""
    if mod.complex.dim != 1:
        raise ValueError("strict-restriction test is a one-axis diagnostic")
    cells = list(mod.complex.cells())
    for a in cells:
        for b in cells:
            if not mod.complex.cell_leq(a, b):
                continue
            if a == b and a[0] % 2 == 1:
                continue
            if not mod.structure_map(a, b).is_zero():
                return False
    return True


@dataclass
class ExactnessReport:
    ok: bool
    failures: list[str]
    dims: dict[str, int]


def exactness_probe(f: ModMorphism) -> ExactnessReport:
    """Push a kernel/image exact sequence through corner stabilization and
    verify it stays exact cellwise (the stabilization is exact, unlike a
    naive interior readout of unstabilized data)."""
    ker, incl = pointwise_kernel(f)
    im, _, cores = pointwise_image(f)
    sk = beta_star_morphism(incl)
    sq = beta_star_morphism(cores)
    failures = []
    mid = sk.dst
    if sq.src != mid:
        # same construction applied to the same module; must agree
        failures.append("stabilized middle modules disagree")
    comp = sq.compose(sk)
    if not comp.is_zero():
        failures.append("stabilized composite kernel -> image is nonzero")
    for c in mid.complex.cells():
        dk = sk.src.dim_at(c)
        dm = mid.dim_at(c)
        di = sq.dst.dim_at(c)
        if dk + di != dm:
            failures.append(f"dimension additivity fails at {c}: {dk}+{di} != {dm}")
            continue
        if dk and sk.at(c).rank() != dk:
            failures.append(f"stabilized kernel inclusion drops rank at {c}")
        if di and sq.at(c).rank() != di:
            failures.append(f"stabilized image projection drops rank at {c}")
    tot = ExactnessReport(
        ok=not failures,
        failures=failures,
        dims={
            "kernel": sk.src.total_dim(),
            "middle": mid.total_dim(),
            "image": sq.dst.total_dim(),
        },
    )
    return tot


def random_gamma_module(
    complex_: CellComplex, p: int, seed: int, max_dim: int = 3
) -> GammaModule:
    return beta_star(random_module(complex_, p, seed, max_dim=max_dim))
