import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonrange import SingularMatrixError
from radonrange.exactla import (
    char_poly,
    det,
    fraction_matrix,
    identity,
    inv,
    is_zero,
    mat_pow,
    matmul,
    rank,
    solve,
)


def test_det_known_values():
    assert det(fraction_matrix([[2]])) == 2
    assert det(fraction_matrix([[1, 2], [3, 4]])) == -2
    assert det(fraction_matrix([[Fraction(1, 2), 0], [7, Fraction(2, 3)]])) == Fraction(1, 3)
    assert det(fraction_matrix([[1, 2], [2, 4]])) == 0


def test_det_matches_float_determinant(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        a = fraction_matrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        )
        exact = det(a)
        approx = np.linalg.det(np.asarray(a, dtype=float))
        assert float(exact) == pytest.approx(approx, rel=1e-9, abs=1e-9)


def test_inverse_round_trip(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            a = fraction_matrix(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            if det(a) != 0:
                break
        assert is_zero(a @ inv(a) - identity(n))
        assert is_zero(inv(a) @ a - identity(n))


def test_solve_and_singular():
    a = fraction_matrix([[2, 1], [1, 3]])
    b = np.array([5, 10], dtype=object)
    x = solve(a, b)
    assert list(a @ x) == list(b)
    with pytest.raises(SingularMatrixError):
        solve(fraction_matrix([[1, 2], [2, 4]]), np.array([1, 1], dtype=object))
    with pytest.raises(SingularMatrixError):
        inv(fraction_matrix([[0]]))


def test_rank():
    assert rank(fraction_matrix([[1, 2], [2, 4]])) == 1
    assert rank(fraction_matrix([[1, 0], [0, 1]])) == 2
    assert rank(fraction_matrix([[0, 0], [0, 0]])) == 0
    assert rank(fraction_matrix([[1, 2, 3], [4, 5, 6]])) == 2


def test_char_poly_diagonal():
    a = fraction_matrix([[2, 0], [0, 3]])
    # det(lambda I - A) = lambda^2 - 5 lambda + 6
    assert char_poly(a) == (1, -5, 6)


def test_char_poly_matches_det_at_points(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = fraction_matrix(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        )
        coeffs = char_poly(a)
        for lam in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            shifted = a.copy()
            for i in range(n):
                shifted[i, i] = shifted[i, i] - lam
            evaluated = sum(c * lam ** (n - k) for k, c in enumerate(coeffs))
            assert evaluated == (-1) ** n * det(shifted)


def test_mat_pow():
    a = fraction_matrix([[1, 1], [0, 1]])
    assert (mat_pow(a, 5) == fraction_matrix([[1, 5], [0, 1]])).all()
    assert is_zero(mat_pow(fraction_matrix([[0, 1], [0, 0]]), 2))


def test_mat_pow_one_is_a_copy():
    a = fraction_matrix([[1, 2], [3, 4]])
    out = mat_pow(a, 1)
    assert out is not a and (out == a).all()
    out[0, 0] = 7
    assert a[0, 0] == 1


def test_non_square_and_negative_power_rejected():
    wide = fraction_matrix([[1, 0, 5], [0, 1, 7]])
    with pytest.raises(ValueError):
        solve(wide, np.array([1, 2], dtype=object))
    with pytest.raises(ValueError):
        solve(identity(2), np.array([1, 2, 3, 4], dtype=object))
    with pytest.raises(ValueError):
        inv(wide)
    with pytest.raises(ValueError):
        det(wide)
    with pytest.raises(ValueError):
        mat_pow(wide, 2)
    with pytest.raises(ValueError):
        mat_pow(fraction_matrix([[1, 1], [0, 1]]), -1)


# ---------------------------------------------------------------------------
# differential properties against plain-Fraction references that share no
# code with the integer kernels: cofactor expansion, Cramer's rule, the
# adjugate, nonzero minors and sums of principal minors
# ---------------------------------------------------------------------------

_ENTRIES = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


def _object_array(rows):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def _ref_matmul(a, b):
    return _object_array(
        [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
         for i in range(len(a))]
    )


def _ref_det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    return sum(
        ((-1) ** j * a[0][j] * _ref_det([[row[c] for c in range(n) if c != j] for row in a[1:]])
         for j in range(n)),
        Fraction(0),
    )


def _minor(a, rows, cols):
    return _ref_det([[a[i][j] for j in cols] for i in rows])


def _without(n, index):
    return [i for i in range(n) if i != index]


def _ref_rank(a):
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                if _minor(a, r, c) != 0:
                    return k
    return 0


def _ref_inv(a):
    n, d = len(a), _ref_det(a)
    return _object_array(
        [[(-1) ** (i + j) * _minor(a, _without(n, j), _without(n, i)) / d for j in range(n)]
         for i in range(n)]
    )


def _ref_solve(a, b):
    n, d = len(a), _ref_det(a)
    return [
        _ref_det([[b[i] if j == c else a[i][j] for j in range(n)] for i in range(n)]) / d
        for c in range(n)
    ]


def _ref_char_poly(a):
    n = len(a)
    return tuple(
        (-1) ** k * sum((_minor(a, s, s) for s in itertools.combinations(range(n), k)), Fraction(0))
        if k else Fraction(1)
        for k in range(n + 1)
    )


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Random, rank-deficient (a product through a narrower middle) or all-zero
    matrices of mixed int / Fraction entries."""
    rows = rows or draw(st.integers(min_value=1, max_value=4))
    cols = cols or draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["random", "rank-deficient", "zero"]))
    if kind == "zero":
        return _object_array([[0] * cols for _ in range(rows)])
    if kind == "random":
        return _object_array([draw(st.lists(_ENTRIES, min_size=cols, max_size=cols))
                              for _ in range(rows)])
    inner = draw(st.integers(min_value=1, max_value=max(1, min(rows, cols) - 1)))
    left = draw(_matrices(rows, inner))
    right = draw(_matrices(inner, cols))
    return _ref_matmul(left, right)


@st.composite
def _square(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return draw(_matrices(n, n))


def _equal(a, b):
    return np.shape(a) == np.shape(b) and all(x == y for x, y in zip(np.ravel(a), np.ravel(b)))


_PROPERTY = settings(max_examples=80, deadline=None)


@_PROPERTY
@given(a=_square())
def test_det_matches_cofactor_expansion(a):
    assert det(a) == _ref_det(a)


@_PROPERTY
@given(a=_square(), data=st.data())
def test_solve_matches_cramer(a, data):
    b = data.draw(st.lists(_ENTRIES, min_size=len(a), max_size=len(a)))
    if _ref_det(a) == 0:
        with pytest.raises(SingularMatrixError):
            solve(a, np.asarray(b, dtype=object))
    else:
        assert _equal(solve(a, np.asarray(b, dtype=object)), _ref_solve(a, b))


@_PROPERTY
@given(a=_square())
def test_inv_matches_adjugate(a):
    if _ref_det(a) == 0:
        with pytest.raises(SingularMatrixError):
            inv(a)
    else:
        assert _equal(inv(a), _ref_inv(a))


@_PROPERTY
@given(a=_matrices())
def test_rank_matches_nonzero_minors(a):
    assert rank(a) == _ref_rank(a)


@_PROPERTY
@given(data=st.data())
def test_matmul_matches_the_triple_loop(data):
    rows, inner, cols = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    a = data.draw(_matrices(rows, inner))
    b = data.draw(_matrices(inner, cols))
    assert _equal(matmul(a, b), _ref_matmul(a, b))
    vector = np.asarray(data.draw(st.lists(_ENTRIES, min_size=inner, max_size=inner)), dtype=object)
    assert _equal(matmul(a, vector), _ref_matmul(a, vector[:, None])[:, 0])


@_PROPERTY
@given(a=_square(), k=st.integers(min_value=0, max_value=4))
def test_mat_pow_matches_repeated_products(a, k):
    want = _object_array([[Fraction(i == j) for j in range(len(a))] for i in range(len(a))])
    for _ in range(k):
        want = _ref_matmul(want, a)
    assert _equal(mat_pow(a, k), want)


@_PROPERTY
@given(a=_square())
def test_char_poly_matches_principal_minors(a):
    assert char_poly(a) == _ref_char_poly(a)
