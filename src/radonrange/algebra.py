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

The identities are proven in Q(rho), not sampled: every matrix involved is
homogeneous in rho.  With F = B(1), F[k, j] = (2k)_j, B(rho) = diag(rho^(2k))
F diag(rho^(-j)) and S(rho^2) = rho^2 diag(rho^(2i)) S(1) diag(rho^(-2i)), so
B^-1 S B = rho^2 D T D^-1, D = diag(rho^i), T = F^-1 S(1) F.  One exact
integer computation per m checks both lemmas and T's closed form
(``_shift_pattern``); the companion, conjugation and Krylov identities then
hold for every rho != 0 because they hold at rho = 1.  The same formulas
accept floats for the numeric pipeline.
"""

from __future__ import annotations

import functools
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
from .geometry import SupportFunction, TangentialData


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
    return [-rk for rk in recurrence_coeffs(m, rho2)] + [1]


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
        for j in range(min(m, 2 * k + 1)):  # c(2k, j) = 0 for j > 2k
            out[..., k, j] = moments.falling_factorial(2 * k, j) * rho ** (2 * k - j)
    return out


def _homogeneous_pattern(matrix, m: int, weight, degree: int) -> np.ndarray:
    """``matrix(m, 1)``, after proving the scaling lemma
    matrix(m, x)[i, j] = matrix(m, 1)[i, j] x^weight(i, j) for every x.

    Degree bound: every entry of ``matrix(m, x)`` is a polynomial in x of
    degree <= ``degree``, and so is the right side, as each nonzero pattern
    entry must have 0 <= weight <= ``degree``.  Two such polynomials equal
    at the degree + 1 points x = 1..degree + 1 are equal, and at x = 1 they
    agree by definition, so x = 2..degree + 1 are checked.  A failure
    raises :class:`InternalConsistencyError`.
    """
    one = matrix(m, 1)
    for x in range(2, degree + 2):
        at_x = matrix(m, x)
        for (i, j), c in np.ndenumerate(one):
            w = weight(i, j)
            if (c and not 0 <= w <= degree) or at_x[i, j] != (c * x**w if c else 0):
                raise InternalConsistencyError(
                    f"{matrix.__name__} is not homogeneous at m={m}, entry ({i}, {j}), x={x}"
                )
    return one


def _shift_at_one(m: int) -> np.ndarray:
    """S(1); entry (i, j) of S(rho^2) has weight 1 + i - j in rho^2, degree <= m."""
    return _homogeneous_pattern(shift_matrix, m, lambda i, j: 1 + i - j, m)


@functools.lru_cache(maxsize=None)
def _shift_pattern(m: int) -> np.ndarray:
    """The pattern T = F^-1 S(1) F of the conjugated shift, once per m (read-only).

    Proves both scaling lemmas first (entry (k, j) of B(rho) has weight 2k - j
    in rho, degree <= 2m - 2), so B^-1 S B = rho^2 D T D^-1 for every rho != 0,
    then checks T[i, i] = 1, T[i, i+1] = 2(i+1), T[i, i+2] = (i+1)(i+2) and 0
    elsewhere.  Any failure raises :class:`InternalConsistencyError`.
    """
    f = _homogeneous_pattern(coefficient_matrix, m, lambda k, j: 2 * k - j, 2 * m - 2)
    t = exactla.matmul(exactla.matmul(exactla.inv(f), _shift_at_one(m)), f)
    for (i, j), x in np.ndenumerate(t):
        if x != {0: 1, 1: 2 * (i + 1), 2: (i + 1) * (i + 2)}.get(j - i, 0):
            raise InternalConsistencyError(f"F^-1 S(1) F has a wrong entry ({i}, {j}) at m={m}")
    t.flags.writeable = False
    return t


def conjugated_shift(m: int, rho) -> np.ndarray:
    """The shift matrix conjugated by the coefficient matrix: B^-1 S B.

    Exact for rational rho != 0, and built without inverting B: entry (i, j)
    is T[i, j] rho^(2 + i - j), with the pattern T of ``_shift_pattern``.  The
    result is asserted to be upper triangular with constant diagonal rho^2
    and first superdiagonal 2*rho*k (k = 1..m-1); a violation raises
    :class:`InternalConsistencyError`, a bug, not bad data.
    """
    if not is_exact_scalar(rho):
        raise InvalidParameterError("conjugation runs over exact rationals; pass a Fraction")
    rho = Fraction(rho)
    if rho == 0:
        raise InvalidParameterError("rho must be nonzero")
    t = _shift_pattern(m)
    out = exactla.fraction_matrix([[t[i, j] * rho ** (2 + i - j) for j in range(m)]
                                   for i in range(m)])
    if any(out[i, i] != rho * rho for i in range(m)):
        raise InternalConsistencyError("conjugated shift has a wrong diagonal entry")
    if any(out[i, j] != 0 for i in range(m) for j in range(i)):
        raise InternalConsistencyError("conjugated shift is not upper triangular")
    if any(out[i, i + 1] != 2 * rho * (i + 1) for i in range(m - 1)):
        raise InternalConsistencyError("conjugated shift has a wrong superdiagonal")
    return out


def nilpotent_part(m: int, rho) -> np.ndarray:
    """N = B^-1 S B - rho^2 I; strictly upper triangular, nilpotent of index m."""
    return conjugated_shift(m, rho) - Fraction(rho) ** 2 * np.eye(m, dtype=object)


def krylov_matrix(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Columns z, Az, ..., A^(m-1) z."""
    cols = [np.asarray(z, dtype=object)]
    for _ in range(a.shape[0] - 1):
        cols.append(exactla.matmul(a, cols[-1]))
    return np.stack(cols, axis=1)


def krylov_spans(a: np.ndarray, z: np.ndarray, eigenvalue) -> bool:
    """Whether z, Az, ..., A^(m-1) z span, for A with one m-fold eigenvalue.

    Requires (A - eigenvalue I)^m = 0 (checked).  Decides the question two
    ways - an exact rank computation and the single-vector criterion
    (A - eigenvalue I)^(m-1) z != 0 - and insists they agree.  The power
    (A - eigenvalue I)^(m-1) is computed once and serves both the
    nilpotency check and the criterion.
    """
    m = a.shape[0]
    shifted = np.asarray(a, dtype=object) - eigenvalue * np.eye(m, dtype=object)
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
    return sum(
        (-1) ** k * math.comb(m, k) * rho2 ** (m - k) * moment_seq.eval(r + k, theta)
        for k in range(m + 1)
    )


@dataclass(frozen=True, eq=False)
class HankelCertificate:
    """Per-direction non-singularity certificate for the moment Hankel matrix.

    A certificate exists only once the conjugated shift has the pattern
    proven once per m (``_shift_pattern``), so N^(m-1) Q = (2 rho)^(m-1)
    (m-1)! q_{m-1} e_1 at every direction with rho != 0 and the Hankel
    matrix is non-singular wherever q_{m-1} does not vanish.
    ``determinants`` holds det of the m x m Hankel matrix of moments at
    every grid direction, as reported data, and ``max_abs_determinant`` their
    largest magnitude, exact in exact arithmetic.  The certificate passes
    when some determinant is nonzero; no tolerance enters, in either
    arithmetic.
    """

    m: int
    grid_size: int
    determinants: tuple
    max_abs_determinant: float | Fraction
    exact: bool

    @property
    def verdict(self) -> bool:
        return self.max_abs_determinant > 0

    def to_dict(self) -> dict:
        scalar = str if self.exact else float  # exact values as "p/q" text
        return {
            "m": self.m,
            "grid_size": self.grid_size,
            "arithmetic": "exact" if self.exact else "float",
            "determinants": [scalar(d) for d in self.determinants],
            "max_abs_determinant": scalar(self.max_abs_determinant),
            "verdict": "pass" if self.verdict else "fail",
        }


def hankel_certificate(data: TangentialData, n: int | None = None) -> HankelCertificate:
    """Certify det A != 0 for the Hankel matrix A of moments of ``data``.

    One path for both arithmetics.  The structure is taken from the per-m
    proof (``_shift_pattern``, which raises :class:`InternalConsistencyError`
    on a wrong matrix), not re-checked per node.  The determinants of the
    Hankel matrices of p_0 .. p_{4m-4} are reported at every node: batched
    over the grid in float arithmetic, once per distinct node in exact
    arithmetic, where the node's moments are brought over their lcm L and
    the integer Hankel matrix is eliminated: det = det(L A) / L^m.
    Requires q_{m-1} not identically zero and rho nonzero at every node.
    """
    if n is None:
        n = data.natural_grid_size
    m = data.m
    exact = data.is_exact
    top = data.density_samples(m - 1, n)
    if (all(x == 0 for x in top) if exact
            else float(np.max(np.abs(np.asarray(top, dtype=float)))) <= 1e-12):
        raise HypothesisViolatedError("q_{m-1} vanishes identically on the grid")
    if np.any(data.rho.rho_samples(n) == 0):
        raise InvalidParameterError("rho must be nonzero")
    _shift_pattern(m)  # raises unless N^(m-1) has its corner form for every rho != 0
    p_arrays = [f.values for f in moments.even_moments(data, range(0, 4 * m - 3, 2), n)]
    if exact:
        _, inverse, nodes = distinct_nodes(p_arrays)
        dets = []
        for node in nodes:
            lcm = math.lcm(*(den for _, den in node))
            ints = [num * (lcm // den) for num, den in node]
            hankel = np.array([ints[t : t + m] for t in range(m)], dtype=object)
            dets.append(exactla.det(hankel) / lcm**m)
        determinants = tuple(dets[k] for k in inverse.tolist())
    else:
        p = np.stack([np.asarray(v, dtype=float) for v in p_arrays], axis=-1)
        hankel = np.stack([p[:, t : t + m] for t in range(m)], axis=-2)
        determinants = tuple(np.linalg.det(hankel).tolist())
    return HankelCertificate(m, n, determinants, max(map(abs, determinants)), exact=exact)


# ---------------------------------------------------------------------------
# the exact identity suite (shared by the CLI and by the acceptance tests)
# ---------------------------------------------------------------------------


#: seed of the random data drawn by the Hankel shift row of :func:`identity_suite`
IDENTITY_SEED = 20250810


def _random_fraction(rng: random.Random, positive: bool = False) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(1 if positive else -12, 12)
    return Fraction(num, rng.randint(1, 12))


def identity_suite(m_max: int = 6, r_max: int = 20) -> list:
    """Run the exact-arithmetic identity battery; returns (name, ok, detail) rows.

    Covers the finite-difference annihilation identities, the recurrence /
    binomial expansion match, determinant, characteristic polynomial and
    nilpotency of the companion matrix, the triangular structure of the
    conjugated shift, agreement of the two Krylov criteria, the Hankel
    shift identity on synthetic data, and the disk Hankel certificate.

    The recurrence, companion, conjugation and Krylov rows hold for every
    rho != 0: a degree bound decides the first, and the scaling lemmas
    (``_shift_pattern``) reduce the rest to exact integer checks at rho = 1,
    once per m.  Only the Hankel shift row draws random data
    (:data:`IDENTITY_SEED`).
    """
    rng = random.Random(IDENTITY_SEED)
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
        # both sides are polynomials of degree <= m in rho^2: m + 1 points decide
        for m in range(1, m_max + 1):
            for rho2 in range(1, m + 2):
                if recurrence_poly_coeffs(m, rho2) != binomial_poly_coeffs(m, rho2):
                    return False, f"recurrence mismatch at m={m}, rho2={rho2}"
        return True, f"recurrence == binomial expansion for m <= {m_max}, every rho^2"

    def companion(claim, holds_at_one):
        # S(rho^2) = rho^2 D S(1) D^-1 carries each claim from rho = 1 to every rho != 0
        def check():
            for m in range(1, m_max + 1):
                if not holds_at_one(m, _shift_at_one(m)):
                    return False, f"{claim} fails at rho = 1, m={m}"
            return True, f"{claim} for m <= {m_max}, every rho != 0 (rho = 1 and scaling)"

        return check

    def check_conjugation():
        for m in range(1, m_max + 1):
            _shift_pattern(m)  # raises unless the lemmas hold and T is in closed form
        return True, f"B^-1 S B = rho^2 D T D^-1, T in closed form, m <= {m_max}, every rho != 0"

    def check_krylov():
        # B^-1 S B - rho^2 I = rho^2 D (T - I) D^-1, so its (m-1)-th power is
        # (2 rho)^(m-1) (m-1)! E_(0,m-1): z spans iff z_(m-1) != 0, for every rho
        vectors = 0
        for m in range(1, m_max + 1):
            corner = np.zeros((m, m), dtype=object)
            corner[0, m - 1] = 2 ** (m - 1) * math.factorial(m - 1)
            if not exactla.is_zero(exactla.mat_pow(nilpotent_part(m, 1), m - 1) - corner):
                return False, f"(T - I)^(m-1) is not 2^(m-1) (m-1)! E_(0,m-1) at m={m}"
            a = conjugated_shift(m, 1)
            for z in [*np.eye(m, dtype=object), [1] * (m - 1) + [0], [1] * m]:
                # krylov_spans also checks (T - I)^m = 0
                if krylov_spans(a, np.asarray(z, dtype=object), 1) != (z[m - 1] != 0):
                    return False, f"z = {list(z)} misjudged at m={m}"
                vectors += 1
        return True, (f"N^(m-1) = (2 rho)^(m-1) (m-1)! E_(0,m-1) for m <= {m_max}, every "
                      f"rho != 0; both criteria agree on {vectors} fixed vectors")

    def check_hankel_shift():
        from .reconstruct import synthesize_moments

        n = 8
        for m in range(1, 4):
            rho_vals = [_random_fraction(rng, positive=True) for _ in range(n // 2)]
            q_rows = [[_random_fraction(rng) for _ in range(n // 2)] for _ in range(m)]
            # doubled lists: the antipodal half-grid repeats them (even samples)
            data = TangentialData(
                SupportFunction.from_samples(rho_vals * 2),
                tuple(np.asarray(row * 2, dtype=object) for row in q_rows),
            )
            seq = synthesize_moments(data, 2 * m + 3)
            columns = [seq.values(t) for t in range(seq.max_half_order + 1)]
            for i, rho2 in enumerate(data.rho.rho2_samples(n)):
                p_values = [column[i] for column in columns]
                s = shift_matrix(m, rho2)
                hankels = [exactla.fraction_matrix(moment_hankel(p_values, m, k)) for k in range(4)]
                power = exactla.identity(m)
                for k, ak in enumerate(hankels):
                    if not exactla.is_zero(exactla.matmul(power, hankels[0]) - ak):
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
    record("companion-determinant", companion("det = rho^(2m)", lambda m, s: exactla.det(s) == 1))
    record("companion-charpoly", companion("char poly = (lambda - rho^2)^m", lambda m, s: (
        exactla.char_poly(s) == tuple(math.comb(m, k) * (-1) ** k for k in range(m + 1)))))
    record("companion-nilpotency", companion("(S - rho^2 I)^m = 0", lambda m, s: (
        exactla.is_zero(exactla.mat_pow(s - exactla.identity(m), m)))))
    record("conjugation-structure", check_conjugation)
    record("krylov-agreement", check_krylov)
    record("hankel-shift", check_hankel_shift)
    record("hankel-certificate-disk", check_disk_certificate)
    return results

