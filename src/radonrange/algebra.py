"""Elimination identities for moment sequences of tangential data.

Fix a direction and abbreviate r = rho(omega), q_j = q_j(omega).  The even
moments p_{2k} = sum_j c(2k, j) r^(2k-j) q_j satisfy an m-term linear
recurrence whose companion matrix has the single m-fold eigenvalue r^2;
conjugating the companion matrix into the basis formed by the coefficient
columns makes it upper triangular with an explicit superdiagonal
2r, 4r, ..., 2(m-1)r.  Chaining these facts through the Krylov criterion
shows the m x m Hankel matrix of consecutive moments is non-singular
wherever the top density q_{m-1} does not vanish - the linchpin that lets
rho^2 be solved from moments alone.

Everything here evaluates over exact rationals at sampled rho values (the
decidable stand-in for identities in the field of rational functions);
the same formulas accept floats for the numeric pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla, moments
from .circle import distinct_nodes, is_exact_scalar
from .errors import (
    HypothesisViolatedError,
    InternalConsistencyError,
    InvalidParameterError,
)
from .geometry import TangentialData


def difference_residual(m: int, r: int, j: int) -> int:
    """m-th finite difference of k -> c(2r + 2k, j), an exact integer.

    As a function of k the falling factorial c(2k, j) is a polynomial of
    degree j, so the alternating binomial sum annihilates it whenever
    j <= m - 1; the returned value must then be 0.
    """
    return sum(
        (-1) ** k * math.comb(m, k) * moments.falling_factorial(2 * r + 2 * k, j)
        for k in range(m + 1)
    )


def recurrence_coeffs(m: int, rho2) -> list:
    """Coefficients r_0..r_{m-1} with p_{2r+2m} = sum_k r_k p_{2r+2k}.

    Defined by r_k = -binom(m, k) (-rho^2)^(m-k); equivalently
    (t - rho^2)^m = t^m - sum_k r_k t^k as polynomials in t.
    """
    if m < 1:
        raise InvalidParameterError("m must be positive")
    return [-math.comb(m, k) * (-rho2) ** (m - k) for k in range(m)]


def recurrence_poly_coeffs(m: int, rho2) -> list:
    """Coefficients of t^m - sum_k r_k t^k in increasing powers of t."""
    r = recurrence_coeffs(m, rho2)
    return [-rk for rk in r] + [1]


def binomial_poly_coeffs(m: int, rho2) -> list:
    """Coefficients of (t - rho^2)^m in increasing powers of t (direct expansion)."""
    return [math.comb(m, k) * (-rho2) ** (m - k) for k in range(m + 1)]


def shift_matrix(m: int, rho2) -> np.ndarray:
    """Companion matrix of the moment recurrence: ones on the superdiagonal
    and r_0..r_{m-1} in the last row.

    Maps (p_{2k}, ..., p_{2k+2m-2}) to (p_{2k+2}, ..., p_{2k+2m}); it has
    determinant rho^(2m) and characteristic polynomial (lambda - rho^2)^m.
    A float array of rho^2 values gives one matrix per value, stacked
    along the leading axes.
    """
    exact = is_exact_scalar(rho2)
    out = np.zeros(np.shape(rho2) + (m, m), dtype=object if exact else float)
    for i in range(m - 1):
        out[..., i, i + 1] = 1
    for k, rk in enumerate(recurrence_coeffs(m, rho2)):
        out[..., m - 1, k] = rk
    return out


def coefficient_matrix(m: int, rho) -> np.ndarray:
    """The m x m matrix b[k, j] = c(2k, j) rho^(2k - j) linking densities to
    moments: (p_0, ..., p_{2m-2}) = B (q_0, ..., q_{m-1}).

    Non-singular for every rho != 0 (its columns reduce to a Vandermonde
    system); rho = 0 is rejected.  A float array of rho values gives one
    matrix per value, stacked along the leading axes, and is rejected when
    any value is zero.
    """
    exact = is_exact_scalar(rho)
    if np.any(rho == 0):
        raise InvalidParameterError("rho must be nonzero")
    out = np.zeros(np.shape(rho) + (m, m), dtype=object if exact else float)
    for k in range(m):
        for j in range(m):
            c = moments.falling_factorial(2 * k, j)
            if c:
                out[..., k, j] = c * rho ** (2 * k - j)
    return out


def conjugated_shift(m: int, rho) -> np.ndarray:
    """The shift matrix conjugated by the coefficient matrix: B^-1 S B.

    The result is asserted to be upper triangular with constant diagonal
    rho^2 and first superdiagonal 2*rho*k (k = 1..m-1); a violation raises
    :class:`InternalConsistencyError` since it can only mean a bug, not bad
    data.  Exact for rational rho.
    """
    if not is_exact_scalar(rho):
        raise InvalidParameterError("conjugation runs over exact rationals; pass a Fraction")
    rho = Fraction(rho)
    s = shift_matrix(m, rho * rho)
    b = coefficient_matrix(m, rho)
    out = exactla.matmul(exactla.matmul(exactla.inv(b), s), b)
    for i in range(m):
        if out[i, i] != rho * rho:
            raise InternalConsistencyError("conjugated shift has a wrong diagonal entry")
        for j in range(i):
            if out[i, j] != 0:
                raise InternalConsistencyError("conjugated shift is not upper triangular")
    for i in range(m - 1):
        if out[i, i + 1] != 2 * rho * (i + 1):
            raise InternalConsistencyError("conjugated shift has a wrong superdiagonal")
    return out


def nilpotent_part(m: int, rho) -> np.ndarray:
    """N = B^-1 S B - rho^2 I; strictly upper triangular, nilpotent of index m."""
    out = conjugated_shift(m, rho).copy()
    rho = Fraction(rho)
    for i in range(m):
        out[i, i] = out[i, i] - rho * rho
    return out


def krylov_matrix(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Columns z, Az, ..., A^(m-1) z."""
    m = a.shape[0]
    cols = [np.asarray(z, dtype=object)]
    for _ in range(m - 1):
        cols.append(exactla.matmul(a, cols[-1]))
    out = np.empty((m, m), dtype=object)
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def krylov_spans(a: np.ndarray, z: np.ndarray, eigenvalue) -> bool:
    """Whether z, Az, ..., A^(m-1) z span, for A with one m-fold eigenvalue.

    Requires (A - eigenvalue I)^m = 0 (checked).  Decides the question two
    ways - an exact rank computation and the single-vector criterion
    (A - eigenvalue I)^(m-1) z != 0 - and insists they agree.  The power
    (A - eigenvalue I)^(m-1) is computed once and serves both the
    nilpotency check and the criterion.
    """
    m = a.shape[0]
    shifted = np.asarray(a, dtype=object).copy()
    for i in range(m):
        shifted[i, i] = shifted[i, i] - eigenvalue
    top_power = exactla.mat_pow(shifted, m - 1)
    if not exactla.is_zero(exactla.matmul(top_power, shifted)):
        raise InvalidParameterError(
            "matrix does not have the given value as an m-fold eigenvalue"
        )
    by_rank = exactla.rank(krylov_matrix(a, z)) == m
    power = exactla.matmul(top_power, np.asarray(z, dtype=object))
    by_power = any(x != 0 for x in power)
    if by_rank != by_power:
        raise InternalConsistencyError("the two Krylov span criteria disagree")
    return by_rank


def moment_hankel(p_values, m: int, k: int = 0) -> list:
    """Rows of the Hankel matrix (p_{2(k+i+j)}) for i, j = 0..m-1.

    ``p_values`` is indexed by half-order: p_values[t] = p_{2t}.
    """
    if len(p_values) < k + 2 * m - 1:
        raise InvalidParameterError("not enough moment orders for the Hankel matrix")
    return [[p_values[k + i + j] for j in range(m)] for i in range(m)]


def recurrence_residual(moment_seq, rho, m: int, r: int, theta: float):
    """sum_k (-1)^k binom(m, k) rho(theta)^(2(m-k)) p_{2r+2k}(theta).

    Vanishes identically when the moments come from tangential data with
    this support function; a corrupted moment shows up as the corruption
    times its binomial weight.  ``moment_seq`` is any object with
    ``max_half_order`` and ``eval(k, theta)`` (see
    :class:`~radonrange.reconstruct.MomentSequence`).
    """
    if moment_seq.max_half_order < r + m:
        raise InvalidParameterError(
            f"residual at r={r} needs moments through half-order {r + m}"
        )
    rho2 = rho.rho2_at(theta)
    total = 0
    for k in range(m + 1):
        total = total + (-1) ** k * math.comb(m, k) * rho2 ** (m - k) * moment_seq.eval(
            r + k, theta
        )
    return total


@dataclass(frozen=True, eq=False)
class HankelCertificate:
    """Per-direction non-singularity certificate for the moment Hankel matrix.

    ``determinants`` holds det of the m x m Hankel matrix of moments at
    every grid direction; ``structure_ok`` records whether
    N^(m-1) Q = (2 rho)^(m-1) (m-1)! q_{m-1} e_1 held everywhere.  The
    certificate passes when the determinant is nonvanishing somewhere and
    the structural identity held at every direction.
    """

    m: int
    grid_size: int
    determinants: tuple
    max_abs_determinant: float
    structure_ok: bool
    exact: bool

    @property
    def verdict(self) -> bool:
        threshold = 0.0 if self.exact else 1e-12
        return self.structure_ok and self.max_abs_determinant > threshold

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "grid_size": self.grid_size,
            "arithmetic": "exact" if self.exact else "float",
            "determinants": [
                str(d) if isinstance(d, Fraction) else float(d) for d in self.determinants
            ],
            "max_abs_determinant": self.max_abs_determinant,
            "structure_ok": self.structure_ok,
            "verdict": "pass" if self.verdict else "fail",
        }


def hankel_certificate(data: TangentialData, n: int | None = None) -> HankelCertificate:
    """Certify det A != 0 for the Hankel matrix A of moments of ``data``.

    Builds the moments p_0 .. p_{4m-4} on the grid, takes the m x m Hankel
    determinant at each node, and verifies the structural identity
    N^(m-1) Q = (2 rho)^(m-1) (m-1)! q_{m-1} e_1 pointwise (exactly in
    exact mode, to 1e-9 relative in float mode).  Requires q_{m-1} not
    identically zero.
    """
    if n is None:
        n = data.natural_grid_size
    m = data.m
    exact = data.is_exact
    p_arrays = [f.values for f in moments.even_moments(data, range(0, 4 * m - 3, 2), n)]
    rho_s = data.rho.rho_samples(n)
    q_arrays = [data.density_samples(j, n) for j in range(m)]
    top = q_arrays[m - 1]
    if exact:
        if all(x == 0 for x in top):
            raise HypothesisViolatedError("q_{m-1} vanishes identically on the grid")
    elif float(np.max(np.abs(np.asarray(top, dtype=float)))) <= 1e-12:
        raise HypothesisViolatedError("q_{m-1} vanishes identically on the grid")

    if exact:
        determinants, structure_ok = _exact_hankel_checks(m, p_arrays, rho_s, q_arrays)
    else:
        determinants, structure_ok = _float_hankel_checks(m, p_arrays, rho_s, q_arrays)
    max_abs = max(abs(float(d)) for d in determinants)
    return HankelCertificate(
        m=m,
        grid_size=n,
        determinants=determinants,
        max_abs_determinant=max_abs,
        structure_ok=structure_ok,
        exact=exact,
    )


def _exact_hankel_checks(m: int, p_arrays, rho_s, q_arrays):
    """Exact Hankel determinants and structural identity, once per distinct node.

    Both are functions of a node's values (p, rho, q), so they are computed
    at the first node of each distinct tuple and gathered back over the
    grid; N^(m-1) depends on rho alone and is computed once per distinct rho.
    """
    representatives, inverse = distinct_nodes([*p_arrays, rho_s, *q_arrays])
    determinants = []
    structure_ok = True
    c_factor = math.factorial(m - 1)
    n_powers = {}
    for i in representatives:
        hankel = [[p_arrays[t + u][i] for u in range(m)] for t in range(m)]
        determinants.append(exactla.det(exactla.fraction_matrix(hankel)))
        rho_i = Fraction(rho_s[i])
        if rho_i not in n_powers:
            n_powers[rho_i] = exactla.mat_pow(nilpotent_part(m, rho_i), m - 1)
        q_vec = [q[i] for q in q_arrays]
        lhs = exactla.matmul(n_powers[rho_i], np.asarray(q_vec, dtype=object))
        c = (2 * rho_i) ** (m - 1) * c_factor
        expected = [c * q_vec[m - 1]] + [0] * (m - 1)
        if any(x != y for x, y in zip(lhs, expected)):
            structure_ok = False
    return tuple(determinants[k] for k in inverse.tolist()), structure_ok


def _float_hankel_checks(m: int, p_arrays, rho_s, q_arrays):
    """Float Hankel determinants and structural identity (to 1e-9 relative)
    over the whole grid at once, as stacked (n, m, m) arrays."""
    p = np.stack([np.asarray(v, dtype=float) for v in p_arrays], axis=-1)
    hankel = np.stack([p[:, t : t + m] for t in range(m)], axis=-2)
    determinants = np.linalg.det(hankel)

    rho = np.asarray(rho_s, dtype=float)
    rho2 = rho * rho
    b = coefficient_matrix(m, rho)  # raises InvalidParameterError where rho = 0
    npart = np.linalg.inv(b) @ shift_matrix(m, rho2) @ b - rho2[:, None, None] * np.eye(m)
    n_power = np.linalg.matrix_power(npart, m - 1)
    q = np.stack([np.asarray(v, dtype=float) for v in q_arrays], axis=-1)
    lhs = (n_power @ q[:, :, None])[..., 0]
    expected = np.zeros_like(lhs)
    expected[:, 0] = (2.0 * rho) ** (m - 1) * math.factorial(m - 1) * q[:, m - 1]
    scale = np.maximum(
        np.maximum(np.max(np.abs(expected), axis=1), np.max(np.abs(lhs), axis=1)), 1e-30
    )
    off = np.max(np.abs(lhs - expected), axis=1) > 1e-9 * scale
    return tuple(determinants.tolist()), not off.any()


# ---------------------------------------------------------------------------
# the exact identity suite (shared by the CLI and by the acceptance tests)
# ---------------------------------------------------------------------------


def _random_fraction(rng: random.Random, positive: bool = False) -> Fraction:
    num = rng.randint(1 if positive else -12, 12)
    while num == 0:
        num = rng.randint(1 if positive else -12, 12)
    return Fraction(num, rng.randint(1, 12))


def identity_suite(m_max: int = 6, r_max: int = 20, seed: int = 20250810) -> list:
    """Run the exact-arithmetic identity battery; returns (name, ok, detail) rows.

    Covers the finite-difference annihilation identities, the recurrence /
    binomial expansion match, determinant, characteristic polynomial and
    nilpotency of the companion matrix, the triangular structure of the
    conjugated shift, agreement of the two Krylov criteria, the Hankel
    shift identity on synthetic data, and the disk Hankel certificate.
    """
    rng = random.Random(seed)
    results = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a raised check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))

    def check_differences():
        count = 0
        for m in range(1, 9):
            for r in range(r_max + 1):
                for j in range(m):
                    if difference_residual(m, r, j) != 0:
                        return False, f"nonzero residual at m={m}, r={r}, j={j}"
                    count += 1
        return True, f"{count} alternating binomial sums, all zero"

    def check_recurrence():
        for m in range(1, m_max + 1):
            for _ in range(5):
                rho2 = _random_fraction(rng, positive=True)
                if recurrence_poly_coeffs(m, rho2) != binomial_poly_coeffs(m, rho2):
                    return False, f"recurrence mismatch at m={m}, rho2={rho2}"
        return True, f"recurrence == binomial expansion for m <= {m_max}"

    def check_determinant():
        for m in range(1, m_max + 1):
            for _ in range(20):
                rho2 = _random_fraction(rng, positive=True)
                if exactla.det(shift_matrix(m, rho2)) != rho2**m:
                    return False, f"det != rho^(2m) at m={m}, rho2={rho2}"
        return True, f"det = rho^(2m) for m <= {m_max}, 20 random rho^2 each"

    def check_charpoly():
        for m in range(1, m_max + 1):
            for _ in range(20):
                rho2 = _random_fraction(rng, positive=True)
                got = exactla.char_poly(shift_matrix(m, rho2))
                # char_poly returns c_k of sum c_k lambda^(m-k); compare with
                # (lambda - rho^2)^m
                want = tuple(math.comb(m, k) * (-rho2) ** k for k in range(m + 1))
                if got != want:
                    return False, f"characteristic polynomial mismatch at m={m}"
        return True, f"char poly = (lambda - rho^2)^m for m <= {m_max}"

    def check_nilpotency():
        for m in range(1, m_max + 1):
            for _ in range(20):
                rho2 = _random_fraction(rng, positive=True)
                s = shift_matrix(m, rho2)
                shifted = s.copy()
                for i in range(m):
                    shifted[i, i] = shifted[i, i] - rho2
                if not exactla.is_zero(exactla.mat_pow(shifted, m)):
                    return False, f"(S - rho^2 I)^m != 0 at m={m}"
        return True, f"(S - rho^2 I)^m = 0 for m <= {m_max}"

    def check_conjugation():
        samples = [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 5)]
        for m in range(1, m_max + 1):
            for rho in samples:
                out = conjugated_shift(m, rho)  # structural assertions inside
                for i in range(m):
                    for j in range(i + 3, m):
                        if out[i, j] != 0:
                            return False, f"entry ({i},{j}) nonzero at m={m}"
                for i in range(m - 2):
                    if out[i, i + 2] != (i + 1) * (i + 2):
                        return False, f"second superdiagonal wrong at m={m}"
        return True, f"triangular structure for m <= {m_max}, {len(samples)} rho samples"

    def check_krylov():
        agree = 0
        for _ in range(200):
            m = rng.randint(1, 5)
            rho = _random_fraction(rng, positive=True)
            a = conjugated_shift(m, rho)
            z = np.asarray([_random_fraction(rng) if rng.random() < 0.8 else Fraction(0)
                            for _ in range(m)], dtype=object)
            krylov_spans(a, z, rho * rho)  # raises on disagreement
            agree += 1
        return True, f"{agree} random instances, both criteria agree"

    def check_hankel_shift():
        from .reconstruct import synthesize_moments

        n = 8
        for m in range(1, 4):
            rho_vals = [_random_fraction(rng, positive=True) for _ in range(n // 2)]
            q_rows = [[_random_fraction(rng) for _ in range(n // 2)] for _ in range(m)]
            data = TangentialData(
                _sampled_support(rho_vals),
                tuple(_mirrored(row) for row in q_rows),
            )
            seq = synthesize_moments(data, 2 * m + 3)
            for i in range(n):
                rho2 = data.rho.rho2_samples(n)[i]
                s = shift_matrix(m, rho2)
                a0 = exactla.fraction_matrix(
                    moment_hankel([seq.values(t)[i] for t in range(seq.max_half_order + 1)], m)
                )
                power = exactla.identity(m)
                for k in range(4):
                    ak = exactla.fraction_matrix(
                        moment_hankel(
                            [seq.values(t)[i] for t in range(seq.max_half_order + 1)], m, k
                        )
                    )
                    if not exactla.is_zero(exactla.matmul(power, a0) - ak):
                        return False, f"Hankel shift fails at m={m}, k={k}"
                    power = exactla.matmul(power, s)
        return True, "A_k = S^k A_0 for k <= 3 on synthetic exact data"

    def check_disk_certificate():
        from .radon import tangential_disk_data

        cert = hankel_certificate(tangential_disk_data(), n=16)
        ok = cert.verdict and all(d == -16 for d in cert.determinants)
        return ok, "disk data: det = -16 at every direction, structure holds"

    record("difference-identities", check_differences)
    record("recurrence-binomial", check_recurrence)
    record("companion-determinant", check_determinant)
    record("companion-charpoly", check_charpoly)
    record("companion-nilpotency", check_nilpotency)
    record("conjugation-structure", check_conjugation)
    record("krylov-agreement", check_krylov)
    record("hankel-shift", check_hankel_shift)
    record("hankel-certificate-disk", check_disk_certificate)
    return results


def _mirrored(half_values) -> np.ndarray:
    """Duplicate values over the antipodal half-grid (makes even samples)."""
    out = np.empty(2 * len(half_values), dtype=object)
    out[: len(half_values)] = half_values
    out[len(half_values):] = half_values
    return out


def _sampled_support(half_values):
    from .geometry import SupportFunction

    return SupportFunction.from_samples(_mirrored(half_values))
