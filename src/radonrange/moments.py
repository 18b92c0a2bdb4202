"""Moments of tangentially supported distributions.

Pairing a derivative of a point mass with a monomial gives

    integral delta^(j)(p - a) p^k dp = (-1)^j * k!/(k-j)! * a^(k-j)   (j <= k),

and 0 for j > k.  Summed over the symmetric pair of tangent lines, the
k-th moment of ``g = sum_j q_j (delta^(j)(p - rho) + (-1)^j delta^(j)(p + rho))``
vanishes for odd k and equals

    2 * sum_j c(k, j) (-1)^j q_j(omega) rho(omega)^(k-j)      (k even)

with the falling factorial c(k, j) = k (k-1) ... (k-j+1).  ``moment``
implements the closed form; ``moment_oracle`` re-derives the same number
by brute-force delta calculus, term by term and without the evenness
shortcut, so the two can be crossed in tests.

``even_moments`` is the one moment kernel: it samples rho and the
densities once for a whole list of orders, and every caller that needs
several orders (``synthesize_moments``, ``range_check``,
``hankel_certificate`` and the ``range-check`` command) calls it once.
A moment carries a trigonometric form only when that form is exact
(:func:`has_exact_form`); it then builds each power rho^s once.  Every
other moment is its samples alone, and the range battery tests it on them.
Exact samples are computed on Python integers over each distinct node's own
denominator, and a ``Fraction`` is made only for each returned sample.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .circle import CircleFunction, TrigPoly, distinct_nodes, zero_circle_function
from .errors import InvalidParameterError
from .geometry import TangentialData

#: default maximum half-order: moments p_0 .. p_{2*K} are tabulated
DEFAULT_MAX_HALF_ORDER = 12


def falling_factorial(k: int, j: int) -> int:
    """c(k, j) = k (k-1) ... (k-j+1), with c(k, 0) = 1 and 0 for j > k.

    Exact integer arithmetic for all nonnegative k, j.
    """
    if k < 0 or j < 0:
        raise InvalidParameterError("falling factorial needs nonnegative arguments")
    return math.perm(k, j)


def falling_factorial_table(max_half_order: int, m: int) -> list[list[int]]:
    """Rows c(2k, j) for k = 0..max_half_order, j = 0..m-1 (exact integers)."""
    return [[falling_factorial(2 * k, j) for j in range(m)] for k in range(max_half_order + 1)]


def moment(data: TangentialData, k: int, n: int | None = None) -> CircleFunction:
    """The k-th p-moment of the tangential distribution, as a function of theta.

    Odd k gives the zero function.  Samples are exact (Fractions) whenever
    the data are; the trigonometric form is attached only when it is exact
    (:func:`has_exact_form`), so a float body's moment lives on the grid
    alone.  Exact samples are computed once per distinct node value of
    (rho, q_j for the orders j <= k that occur) and gathered back over the
    grid.
    """
    if n is None:
        n = data.natural_grid_size
    if k % 2 == 1:
        return zero_circle_function(n, data.is_exact)
    return even_moments(data, [k], n)[0]


def _exact_rho_forms(data: TangentialData) -> list:
    """[rho, rho^2] as trig forms, each None unless it is exact."""
    return [f if f is not None and f.is_exact else None
            for f in (data.rho.rho_poly, data.rho.rho2_poly)]


def has_exact_form(data: TangentialData, k: int) -> bool:
    """Whether the even moment p_k has an exact trig form: for every j <= k,
    q_j is an exact :class:`TrigPoly` and rho^(k-j) comes from an exact rho,
    or from an exact rho^2 when k - j is even.  Only these moments get a
    form; the range battery tests every other p_k on 4k + 4 or more samples.
    """
    rho, rho2 = _exact_rho_forms(data)
    return all((q := data.density_poly(j)) is not None and q.is_exact and (
        j == k or rho is not None or ((k - j) % 2 == 0 and rho2 is not None)
    ) for j in range(min(data.m, k + 1)))


def _exact_columns(nodes, orders, factors) -> list:
    """Exact samples of each even order at each distinct node, on integers.

    ``nodes[i]`` holds (numerator, denominator) of rho = R/d and of each
    density q_j.  Over one denominator e, q_j = Q_j/e, and p_k = P_k / (e d^k)
    with the integer P_k = sum_j f_j Q_j R^(k-j) d^j, where ``factors[i]``
    lists the f_j = weight * c(k, j) (-1)^j of the i-th order k.  Each node
    keeps its own denominator, since one lcm for a whole column grows with
    the number of distinct denominators on the grid.
    """
    columns = [np.empty(len(nodes), dtype=object) for _ in orders]
    for pos, ((r, d), *qs) in enumerate(nodes):
        e = math.lcm(*(den for _, den in qs))
        r_pows, d_pows = [1], [1]
        for _ in range(max(orders)):
            r_pows.append(r_pows[-1] * r)
            d_pows.append(d_pows[-1] * d)
        qd = [num * (e // den) * d_pows[j] for j, (num, den) in enumerate(qs)]  # Q_j d^j
        for column, k, row in zip(columns, orders, factors):
            p_k = sum(f * qd[j] * r_pows[k - j] for j, f in enumerate(row))
            column[pos] = Fraction(p_k, e * d_pows[k])
    return columns


def even_moments(data: TangentialData, orders, n: int, weight: int = 2) -> list:
    """:func:`moment` for each even order in ``orders``, sampling rho and the
    densities once for all of them.

    Only the orders with an exact form (:func:`has_exact_form`) get one, so
    no float trig polynomial is ever multiplied.  Exact samples are computed
    on integers once per distinct node (:func:`_exact_columns`) and gathered
    back over the grid.  ``weight`` is the overall factor of the pairing: 2
    gives the raw moments, 1 the halved ones that ``synthesize_moments``
    hands on.  A float moment that overflows raises ``OverflowError`` naming
    its order.
    """
    exact = data.is_exact
    used = range(min(data.m, max(orders) + 1))  # q_j enters p_k iff j <= k
    rho_s = data.rho.rho_samples(n)
    q_s = [data.density_samples(j, n) for j in used]
    factors = [[weight * falling_factorial(k, j) * (-1 if j % 2 else 1)
                for j in range(min(data.m, k + 1))] for k in orders]
    if exact:
        _, inverse, nodes = distinct_nodes([rho_s, *q_s])
        columns = _exact_columns(nodes, orders, factors)
    else:
        rho_s = np.asarray(rho_s, dtype=float)
        q_s = [np.asarray(q, dtype=float) for q in q_s]
    rho, rho2 = _exact_rho_forms(data)
    # decided before any power is built, so none is built for nothing
    with_poly = [has_exact_form(data, k) for k in orders]
    rho_pows = [TrigPoly.constant(1)]  # exact rho^s, one multiplication each
    for s in range(1, max((k for k, ok in zip(orders, with_poly) if ok), default=0) + 1):
        if s % 2 == 0 and rho2 is not None:
            rho_pows.append(rho_pows[s - 2] * rho2)
        elif rho is not None:
            rho_pows.append(rho_pows[s - 1] * rho)
        else:
            rho_pows.append(None)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment raises below
        for i, (k, ok) in enumerate(zip(orders, with_poly)):
            total = columns[i][inverse] if exact else None
            poly = TrigPoly.zero() if ok else None
            for j, (factor, q) in enumerate(zip(factors[i], q_s)):
                if not exact:
                    term = factor * q * rho_s ** (k - j)
                    total = term if total is None else total + term
                if ok:
                    poly = poly + factor * data.density_poly(j) * rho_pows[k - j]
            if not exact and not np.isfinite(total).all():
                raise OverflowError(f"moment p_{k} is not finite in float arithmetic")
            out.append(CircleFunction(total, poly))
    return out


def _delta_pairing(j: int, a, k: int):
    """integral delta^(j)(p - a) p^k dp, straight from the definition."""
    if j > k:
        return 0
    coeff = math.factorial(k) // math.factorial(k - j)
    return (-1) ** j * coeff * a ** (k - j)


def moment_oracle(data: TangentialData, k: int, theta: float):
    """Brute-force k-th moment at one angle, independent of :func:`moment`.

    Expands the distribution into its 2m individual delta-derivative terms
    and pairs each against p^k, with no parity shortcut and no shared
    coefficient table.  Intended as a test oracle.
    """
    rho_val, q_vals = data.values_at(theta)
    total = 0
    for j, q in enumerate(q_vals):
        plus = _delta_pairing(j, rho_val, k)
        minus = _delta_pairing(j, -rho_val, k)
        total = total + q * (plus + (-1) ** j * minus)
    return total
