"""Dense exact linear algebra over the rationals.

Matrices are numpy object arrays with ``fractions.Fraction`` (or int)
entries, and every result is exact.  The kernels compute on Python
integers with a common denominator: a rational array is scaled once to
an integer array plus the lcm of its denominators, the products and the
elimination run on the integers, and the result is un-scaled once at the
end.  ``det``, ``solve``, ``inv`` and ``rank`` share one fraction-free
(Bareiss) eliminator, whose divisions are all exact, so no intermediate
rational is ever reduced.  Everything is sized for the small systems of
the elimination machinery (m <= 8), not for large n.

The lcm scaling is for one small matrix.  Grid columns are not scaled by
one lcm, which would grow with the number of distinct denominators on the
grid: the moment, solve and Hankel kernels bring each distinct node over
its own denominator and hand this module integer matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

import numpy as np

from .errors import SingularMatrixError


def fraction_matrix(rows) -> np.ndarray:
    """Object array with every entry coerced to ``Fraction``."""
    data = [[Fraction(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0])), dtype=object)
    for i, row in enumerate(data):
        if len(row) != len(data[0]):
            raise ValueError("ragged rows")
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def identity(n: int) -> np.ndarray:
    return _unscaled(np.eye(n, dtype=object), 1)


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in np.asarray(a, dtype=object).flat)


def _rational(x):
    """``x`` as a Python int or ``Fraction`` (numpy integers become ints)."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Integral):
        return int(x)
    return Fraction(x)


def _scaled(a) -> tuple:
    """``(ints, d)``: an integer object array and the lcm ``d`` of the
    denominators of ``a``, with ``a == ints / d`` entry by entry."""
    a = np.asarray(a, dtype=object)
    values = [_rational(x) for x in a.flat]
    d = math.lcm(*[x.denominator for x in values])
    ints = np.array([x.numerator * (d // x.denominator) for x in values], dtype=object)
    return ints.reshape(a.shape), d


def _unscaled(ints: np.ndarray, d: int) -> np.ndarray:
    """Object array of ``Fraction(x, d)`` for the integer entries ``x``."""
    out = np.array([Fraction(x, d) for x in ints.flat], dtype=object)
    return out.reshape(ints.shape)


def _check_square(a: np.ndarray) -> int:
    if np.ndim(a) != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"needs a square matrix, got shape {np.shape(a)}")
    return a.shape[0]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b``: one integer product, un-scaled once."""
    ia, da = _scaled(a)
    ib, db = _scaled(b)
    return _unscaled(ia @ ib, da * db)


def mat_pow(a: np.ndarray, k: int) -> np.ndarray:
    """Exact ``a^k`` for k >= 0 (a new array, also for k = 1)."""
    n = _check_square(a)
    if k < 0:
        raise ValueError("mat_pow needs k >= 0")
    if k == 0:
        return identity(n)
    ints, d = _scaled(a)
    out = ints
    for _ in range(k - 1):
        out = out @ ints
    return _unscaled(out, d**k)


def _eliminate(a: np.ndarray, aug: np.ndarray | None = None) -> tuple:
    """Fraction-free (Bareiss) elimination of the square matrix ``a``.

    ``[a | aug]`` is scaled to integer rows by one common denominator ``d``,
    and each step replaces a row by ``(pivot * row - f * pivot_row) //
    previous_pivot``, a division that is always exact.  A column with no
    pivot is skipped, so the number of pivots found is the rank.  Without
    ``aug`` only the rows below a pivot are cleared; with ``aug`` the rows
    above are cleared too (Gauss-Jordan), which leaves ``pivot * I`` in the
    first n columns when ``a`` is non-singular, so ``rows[i][n:] / pivot``
    is row i of ``a^-1 aug``.

    Returns ``(rank, det, pivot, rows)`` with ``det`` the exact determinant
    of ``a`` and ``pivot`` the last pivot.
    """
    n = _check_square(a)
    full = a if aug is None else np.concatenate([a, np.reshape(aug, (n, -1))], axis=1)
    ints, d = _scaled(full)
    rows = ints.tolist()
    sign, prev, rank = 1, 1, 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        p = top[c]
        for i in range(n) if aug is not None else range(rank + 1, n):
            if i != rank:
                f = rows[i][c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        rank += 1
    det = Fraction(sign * prev, d**n) if rank == n else Fraction(0)
    return rank, det, prev, rows


def det(a: np.ndarray) -> Fraction:
    """Exact determinant; raises ``ValueError`` for a non-square matrix."""
    return _eliminate(a)[1]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solution of ``a x = b``; raises ``SingularMatrixError``."""
    if np.shape(b) != np.shape(a)[:1]:
        raise ValueError(f"right side of shape {np.shape(b)} for a matrix of shape {np.shape(a)}")
    rank, _, pivot, rows = _eliminate(a, b)
    if rank < len(rows):
        raise SingularMatrixError("matrix is singular")
    return np.array([Fraction(row[-1], pivot) for row in rows], dtype=object)


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse; raises ``SingularMatrixError``."""
    n = len(a)
    rank, _, pivot, rows = _eliminate(a, np.eye(n, dtype=object))
    if rank < n:
        raise SingularMatrixError("matrix is singular")
    return _unscaled(np.array([row[n:] for row in rows], dtype=object), pivot)


def rank(a: np.ndarray) -> int:
    """Exact rank (of the zero-padded square matrix when ``a`` is not square)."""
    rows, cols = np.shape(a)
    square = np.zeros((max(rows, cols),) * 2, dtype=object)
    square[:rows, :cols] = a
    return _eliminate(square)[0]


def char_poly(a: np.ndarray) -> tuple:
    """Coefficients ``(c_0=1, c_1, ..., c_n)`` of ``det(lambda I - A) =
    sum_k c_k lambda^(n-k)``, computed exactly (Faddeev-LeVerrier).

    With ``A = ints / d`` the coefficients are ``c_k(ints) / d^k``, and those
    of the integer matrix are integers, so the recursion runs on integers.
    """
    n = _check_square(a)
    ints, d = _scaled(a)
    coeffs = [Fraction(1)]
    m = np.eye(n, dtype=object)
    for k in range(1, n + 1):
        m = ints @ m
        c = -sum(m[i, i] for i in range(n)) // k
        coeffs.append(Fraction(c, d**k))
        for i in range(n):
            m[i, i] = m[i, i] + c
    return tuple(coeffs)
