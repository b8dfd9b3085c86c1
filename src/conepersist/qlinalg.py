"""Dense exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (or int; no float ever appears).
Sizes are tiny (cone dimensions); elimination is `exactla._rref` at p = 0.
"""
from __future__ import annotations

from fractions import Fraction

from .exactla import _null_basis, _rref, _solve_aug

QMat = list[list[Fraction]]


def qmat(rows) -> QMat:
    return [[Fraction(x) for x in row] for row in rows]


def qidentity(n: int) -> QMat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def qmatvec(m: QMat, v) -> tuple[Fraction, ...]:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)


def qmatmul(a: QMat, b: QMat) -> QMat:
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def qrref(m: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    a = [row[:] for row in m]
    return a, _rref(a, 0)


def qrank(m: QMat) -> int:
    return len(_rref([row[:] for row in m], 0))


def qsolve(a: QMat, b) -> tuple[Fraction, ...] | None:
    """One solution of a x = b, or None if inconsistent."""
    if not a:
        return () if all(x == 0 for x in b) else None
    x = _solve_aug([row[:] + [Fraction(b[i])] for i, row in enumerate(a)], len(a[0]), 1, 0)
    return None if x is None else tuple(v[0] for v in x)


def qnullspace(m: QMat) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space."""
    if not m:
        return []
    a = [row[:] for row in m]
    return [tuple(v) for v in _null_basis(a, _rref(a, 0), len(m[0]), 0)]


def qinverse(m: QMat) -> QMat | None:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse needs a square matrix")
    eye = qidentity(n)
    return _solve_aug([row[:] + eye[i] for i, row in enumerate(m)], n, n, 0)
