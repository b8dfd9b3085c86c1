"""Exact linear algebra over prime fields.

Matrices are tuples of tuples of residues mod p.  The two consumers are
structure maps of persistence modules and the block-unknown linear
systems that back morphism search.  Three eliminations serve them:

- `_rref`, dense Gauss-Jordan over F_p and (for `qlinalg`) Q, for
  `FieldMat`'s small matrices; `_null_basis` and `_solve_aug` read kernels
  and solutions off it.
- `_rref_f2_packed`, rows as bitmasks, for the solution spaces and for
  `FieldMat.rank` at p = 2.
- `_rref_sparse`, rows as dicts column -> residue, for the solution spaces
  at every other p; `_null_basis` reads their kernels too.

The matrices are tiny and the work is per call, so results the module
computes itself are built by `_mat`, which skips the row-length check of
the public constructor, and zero and identity matrices are shared.
Field orders are primes below 2**31 (`_MAX_FIELD`), which bounds the work
of checking them.
"""
from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "FieldMat",
    "SolutionSpace",
    "affine_solution_space",
]

# field orders from here on are refused: trial division to the square
# root then stays below 50,000 steps
_MAX_FIELD = 2**31


def _check_prime(p: int) -> None:
    if p >= _MAX_FIELD:
        raise ValueError("field order must be a prime below 2**31")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"field order must be prime, got {p}")


@dataclass(frozen=True, slots=True)
class FieldMat:
    """Immutable dense matrix over F_p.

    The column count is stored explicitly so matrices with zero rows keep
    their shape (compositions through a zero dimensional space must still
    typecheck).  `FieldMat(...)` and `make` check every row length; the
    results of products, sums, negation, stacks, transposes, eliminations
    and solution spaces are built by `_mat` without that check, because
    their shapes hold by construction.  `zero` and `identity` return one
    shared instance per shape.  `rank` eliminates packed bitmask rows at
    p = 2.
    """

    p: int
    entries: tuple[tuple[int, ...], ...]
    cols: int = -1

    def __post_init__(self):
        if self.cols < 0:
            inferred = len(self.entries[0]) if self.entries else 0
            object.__setattr__(self, "cols", inferred)
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("row length disagrees with column count")

    @staticmethod
    def make(p: int, rows: Sequence[Sequence[int]], cols: int = -1) -> "FieldMat":
        _check_prime(p)
        ent = tuple(tuple(int(x) % p for x in row) for row in rows)
        return FieldMat(p, ent, cols)

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def zero(p: int, rows: int, cols: int) -> "FieldMat":
        # immutable, so one shared instance per shape serves every caller
        return _mat(p, ((0,) * cols,) * rows, cols)

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def identity(p: int, n: int) -> "FieldMat":
        return _mat(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return self.cols

    def __add__(self, other: "FieldMat") -> "FieldMat":
        self._compat(other, same_shape=True)
        p = self.p
        return _mat(
            p,
            tuple(tuple((a + b) % p for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "FieldMat") -> "FieldMat":
        self._compat(other, same_shape=True)
        p = self.p
        return _mat(
            p,
            tuple(tuple((a - b) % p for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.cols,
        )

    def __neg__(self) -> "FieldMat":
        p = self.p
        return _mat(p, tuple(tuple((-a) % p for a in row) for row in self.entries), self.cols)

    def __mul__(self, other: "FieldMat") -> "FieldMat":
        p = self.p
        if p != other.p:
            raise ValueError("field mismatch")
        rows, inner, cols = self.entries, self.cols, other.cols
        if inner != len(other.entries):
            raise ValueError(f"shape mismatch {len(rows)}x{inner} * {len(other.entries)}x{cols}")
        if not (rows and inner and cols):
            return FieldMat.zero(p, len(rows), cols)
        # the right factor's columns, read once
        bt = tuple(zip(*other.entries))
        return _mat(p, tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in rows), cols)

    __matmul__ = __mul__

    def _compat(self, other: "FieldMat", same_shape: bool = False) -> None:
        if self.p != other.p:
            raise ValueError("field mismatch")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def transpose(self) -> "FieldMat":
        entries = tuple(zip(*self.entries)) if self.entries else ((),) * self.cols
        return _mat(self.p, entries, self.nrows)

    @staticmethod
    def vstack(a: "FieldMat", b: "FieldMat") -> "FieldMat":
        if a.ncols != b.ncols:
            raise ValueError("column count mismatch")
        return _mat(a.p, a.entries + b.entries, a.ncols)

    @staticmethod
    def hstack(a: "FieldMat", b: "FieldMat") -> "FieldMat":
        if a.nrows != b.nrows:
            raise ValueError("row count mismatch")
        return _mat(a.p, tuple(ra + rb for ra, rb in zip(a.entries, b.entries)), a.ncols + b.ncols)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.entries)

    def rref(self) -> tuple["FieldMat", tuple[int, ...]]:
        rows = [list(r) for r in self.entries]
        pivots = _rref(rows, self.p)
        return _mat(self.p, tuple(tuple(r) for r in rows), self.cols), tuple(pivots)

    def rank(self) -> int:
        entries, p = self.entries, self.p
        if not (entries and self.cols):
            return 0
        if len(entries) == 1:
            return int(any(x % p for x in entries[0]))
        if p == 2:
            # entries need not be reduced, so bit j is the parity of x
            return len(_rref_f2_packed(sum((x & 1) << j for j, x in enumerate(row)) for row in entries))
        return len(_rref([list(r) for r in entries], p))

    def kernel_basis(self) -> "FieldMat":
        """Matrix whose columns span the right kernel (ncols x k)."""
        rows = [list(r) for r in self.entries]
        basis = _null_basis(rows, _rref(rows, self.p), self.ncols, self.p)
        return _mat(self.p, tuple(tuple(v[i] for v in basis) for i in range(self.ncols)), len(basis))

    def column_space_basis(self) -> "FieldMat":
        """Matrix whose columns are a basis of the column space (nrows x r):
        the pivot columns of the original matrix."""
        piv = _rref([list(r) for r in self.entries], self.p)
        return _mat(self.p, tuple(tuple(row[c] for c in piv) for row in self.entries), len(piv))

    def inverse(self) -> "FieldMat | None":
        if self.nrows != self.ncols:
            return None
        # a one-sided inverse of a square matrix is two-sided
        return self.solve(FieldMat.identity(self.p, self.nrows))

    def solve(self, rhs: "FieldMat") -> "FieldMat | None":
        """Any X with self @ X = rhs, or None. rhs has matching row count."""
        self._compat(rhs)
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        aug = [list(r) + list(b) for r, b in zip(self.entries, rhs.entries)]
        x = _solve_aug(aug, self.ncols, rhs.ncols, self.p)
        return None if x is None else _mat(self.p, tuple(map(tuple, x)), rhs.ncols)

    def __repr__(self):
        return f"FieldMat(p={self.p}, {self.nrows}x{self.ncols})"


_new = object.__new__
# the slot setters, which write past the frozen __setattr__
_set_p, _set_entries, _set_cols = (FieldMat.__dict__[name].__set__ for name in ("p", "entries", "cols"))


def _mat(p: int, entries: tuple, cols: int) -> FieldMat:
    """FieldMat(p, entries, cols) without the row-length check, for results
    whose every row has cols entries by construction."""
    m = _new(FieldMat)
    _set_p(m, p)
    _set_entries(m, entries)
    _set_cols(m, cols)
    return m


def _rref(rows: list[list], p: int) -> list[int]:
    """In-place reduced row echelon form over F_p for a prime p, or over Q
    when p is 0 (entries ints or Fractions); returns the pivot columns.

    The field is picked once per pivot so the row operations stay plain
    comprehensions.  Over Q the pivot row is scaled by a Fraction, so
    integer input never turns into floats."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if p:
            pr = next((i for i in range(r, nr) if rows[i][c] % p), None)
        else:
            pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if p:
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = piv = [(x * inv) % p for x in rows[r]]
            for i in range(nr):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
        else:
            inv = Fraction(1) / rows[r][c]
            rows[r] = piv = [x * inv for x in rows[r]]
            for i in range(nr):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [x - f * y for x, y in zip(rows[i], piv)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def _null_basis(red: Sequence, pivots: Sequence[int], n: int, p: int) -> list[list]:
    """Basis of the right null space of the first n columns of a reduced
    row echelon form: one vector per free column.  red[r] is the pivot row
    of pivots[r], a list or a mapping that reads absent columns as 0."""
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] % p if p else -red[r][fc]
        basis.append(v)
    return basis


def _solve_aug(aug: list[list], n: int, k: int, p: int) -> list[list] | None:
    """Reduce [A | B] in place (n unknowns, k right-hand columns); return one
    X with A X = B, or None when inconsistent."""
    pivots = _rref(aug, p)
    if pivots and pivots[-1] >= n:
        return None
    zero = 0 if p else Fraction(0)
    x = [[zero] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        x[c] = aug[r][n:]
    return x


def _rref_f2_packed(rows: Iterable[int]) -> dict[int, int]:
    """Gauss-Jordan over F_2 with rows as bitmasks (bit j = column j).

    Rows enter one at a time: each is reduced by the pivot rows it hits,
    and a nonzero remainder becomes a pivot row at its lowest set bit,
    which is then cleared from the earlier pivot rows.  The result, keyed
    by pivot bit (1 << column), is the reduced row echelon form."""
    pivrow: dict[int, int] = {}
    pivmask = 0
    for r in rows:
        hit = r & pivmask
        while hit:
            low = hit & -hit
            r ^= pivrow[low]
            hit ^= low
        if not r:
            continue
        low = r & -r
        for k, pr in pivrow.items():
            if pr & low:
                pivrow[k] = pr ^ r
        pivrow[low] = r
        pivmask |= low
    return pivrow


def _rref_sparse(rows: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Gauss-Jordan over F_p with rows as dicts column -> nonzero residue.

    The same shape as _rref_f2_packed: each row is reduced by the pivot
    rows it hits, and a nonzero remainder, scaled to lead with 1, becomes
    the pivot row of its lowest column, which is then cleared from the
    earlier pivot rows.  The result, keyed by pivot column, is the reduced
    row echelon form.  The row dicts are modified in place."""
    pivrow: dict[int, dict[int, int]] = {}
    for r in rows:
        hits = r.keys() & pivrow.keys()
        if hits:
            # pivot rows are zero at each other's pivots, so each hit is
            # cleared by one subtraction, in any order
            for c in hits:
                f = r[c]
                for k, x in pivrow[c].items():
                    r[k] = r.get(k, 0) - f * x
            r = {k: v % p for k, v in r.items() if v % p}
            if not r:
                continue
        lead = min(r)
        inv = pow(r[lead], p - 2, p)
        if inv != 1:
            r = {k: v * inv % p for k, v in r.items()}
        for pr in pivrow.values():
            f = pr.get(lead)
            if f:
                for k, x in r.items():
                    v = (pr.get(k, 0) - f * x) % p
                    if v:
                        pr[k] = v
                    else:
                        del pr[k]
        pivrow[lead] = r
    return pivrow


# -- block-unknown linear systems -------------------------------------------


Term = tuple  # (left: FieldMat | None, unknown name, right: FieldMat | None)


class SolutionSpace:
    """Affine solution set of a linear system in named matrix unknowns.

    particular is None when the system is infeasible; basis spans the
    homogeneous solutions.  Elements come back as dicts name -> FieldMat.
    """

    def __init__(self, p, layout, particular, basis):
        self.p = p
        self._layout = layout  # list of (name, rows, cols, offset)
        self._particular = particular
        self._basis = basis

    @property
    def feasible(self) -> bool:
        return self._particular is not None

    @property
    def dim(self) -> int:
        return len(self._basis)

    def _unflatten(self, vec: list[int]) -> dict:
        out = {}
        for name, r, c, off in self._layout:
            out[name] = _mat(self.p, tuple(tuple(vec[off + i * c : off + (i + 1) * c]) for i in range(r)), c)
        return out

    def element(self, coeffs: Sequence[int]) -> dict:
        if not self.feasible:
            raise ValueError("infeasible system has no elements")
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count mismatch")
        vec = list(self._particular)
        for c, b in zip(coeffs, self._basis):
            if c % self.p:
                vec = [(x + c * y) % self.p for x, y in zip(vec, b)]
        return self._unflatten(vec)

    def particular(self) -> dict | None:
        return self._unflatten(list(self._particular)) if self.feasible else None


def affine_solution_space(
    p: int,
    unknowns: dict,
    equations: Iterable[tuple[list, "FieldMat"]],
) -> SolutionSpace:
    """Solve a system linear in matrix unknowns.

    unknowns: name -> (rows, cols).  Each equation is (terms, rhs) where a
    term (L, name, R) contributes L @ X_name @ R (None means identity of
    the fitting size) and the term sum must equal rhs.
    """
    _check_prime(p)
    layout = []
    off = 0
    for name, (r, c) in unknowns.items():
        layout.append((name, r, c, off))
        off += r * c
    total = off
    index = {name: (r, c, o) for name, r, c, o in layout}
    if p == 2:
        return _solve_space_f2(layout, total, _f2_rows(index, total, equations))
    return _solve_space_sparse(p, layout, total, _sparse_rows(p, index, total, equations))


def _check_term(L, R, r, c, m, n) -> None:
    if L is not None and (L.nrows != m or L.ncols != r):
        raise ValueError("left factor shape mismatch")
    if R is not None and (R.nrows != c or R.ncols != n):
        raise ValueError("right factor shape mismatch")


def _sparse_rows(p, index, total, equations) -> list[dict[int, int]]:
    """The F_p rows as dicts column -> nonzero residue (column total holds
    the right-hand side), built term by term: the row of entry (i, j) of
    L @ X @ R gets L[i][a] * R[b][j] at the column of X[a][b], for each
    nonzero L[i][a] and R[b][j].  Zero rows and repeated rows are dropped."""
    rows: list[dict[int, int]] = []
    seen: set[frozenset] = set()
    for terms, rhs in equations:
        m, n = rhs.nrows, rhs.ncols
        if not (m and n):
            continue
        parts = []
        for L, name, R in terms:
            r, c, o = index[name]
            _check_term(L, R, r, c, m, n)
            if L is None:
                lrows = [[(o + i * c, 1)] if i < r else [] for i in range(m)]
            else:
                lrows = [[(o + a * c, x) for a, x in enumerate(row) if x] for row in L.entries]
            if R is None:
                rcols = [[(j, 1)] if j < c else [] for j in range(n)]
            else:
                rcols = [[(b, row[j]) for b, row in enumerate(R.entries) if row[j]] for j in range(n)]
            parts.append((lrows, rcols))
        for i in range(m):
            rhs_row = rhs.entries[i]
            for j in range(n):
                v = rhs_row[j] % p
                row = {total: v} if v else {}
                for lrows, rcols in parts:
                    rcol = rcols[j]
                    for sh, x in lrows[i]:
                        for b, y in rcol:
                            k = sh + b
                            row[k] = (row.get(k, 0) + x * y) % p
                if 0 in row.values():
                    row = {k: v for k, v in row.items() if v}
                if row:
                    key = frozenset(row.items())
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
    return rows


def _f2_rows(index, total, equations) -> list[int]:
    """The F_2 rows as bitmasks (bit k = unknown entry k, bit total = right
    hand side), built term by term: the entry (i, j) of L @ X @ R touches
    X[a][b] exactly when L[i][a] and R[b][j] are odd, so each term adds the
    odd-support mask of column j of R at the offset of every such row a."""
    packed: list[int] = []
    rhs_bit = 1 << total
    for terms, rhs in equations:
        m, n = rhs.nrows, rhs.ncols
        if not (m and n):
            continue
        parts = []
        for L, name, R in terms:
            r, c, o = index[name]
            _check_term(L, R, r, c, m, n)
            if L is None:
                lrows = [[i] if i < r else [] for i in range(m)]
            else:
                lrows = [[a for a, x in enumerate(row) if x & 1] for row in L.entries]
            if R is None:
                rmasks = [1 << j if j < c else 0 for j in range(n)]
            else:
                rmasks = [0] * n
                for b, row in enumerate(R.entries):
                    for j, x in enumerate(row):
                        if x & 1:
                            rmasks[j] |= 1 << b
            parts.append(([[o + a * c for a in ar] for ar in lrows], rmasks))
        for i in range(m):
            rhs_row = rhs.entries[i]
            for j in range(n):
                word = rhs_bit if rhs_row[j] & 1 else 0
                for shifts, rmasks in parts:
                    mask = rmasks[j]
                    if mask:
                        for sh in shifts[i]:
                            word ^= mask << sh
                if word:
                    packed.append(word)
    return packed


def _solve_space_f2(layout, total, packed) -> SolutionSpace:
    rhs_bit = 1 << total
    pivrow = _rref_f2_packed(packed)
    if rhs_bit in pivrow:
        return SolutionSpace(2, layout, None, [])
    pivots = [(low.bit_length() - 1, row) for low, row in pivrow.items()]
    particular = [0] * total
    for c, row in pivots:
        if row & rhs_bit:
            particular[c] = 1
    basis = []
    for fc in range(total):
        bit = 1 << fc
        if bit in pivrow:
            continue
        v = [0] * total
        v[fc] = 1
        for c, row in pivots:
            if row & bit:
                v[c] = 1
        basis.append(v)
    return SolutionSpace(2, layout, particular, basis)


def _solve_space_sparse(p, layout, total, rows) -> SolutionSpace:
    pivrow = _rref_sparse(rows, p)
    if total in pivrow:
        return SolutionSpace(p, layout, None, [])
    pivots = sorted(pivrow)
    particular = [0] * total
    for c in pivots:
        particular[c] = pivrow[c].get(total, 0)
    # absent columns of a sparse row read as 0
    red = [defaultdict(int, pivrow[c]) for c in pivots]
    return SolutionSpace(p, layout, particular, _null_basis(red, pivots, total, p))
