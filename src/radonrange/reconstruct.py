"""Recovering rho^2 from moment sequences and certifying the ellipse.

The moment identities, read at a fixed direction, are linear in the powers
u_i = rho^(2i): the m residual equations

    sum_{k=0}^{m} (-1)^k binom(m, k) rho^(2(m-k)) p_{2r+2k} = 0,   r = 0..m-1,

form an m x m system whose matrix is the moment Hankel matrix up to column
reversal and binomial scalings.  Solving it returns every power of rho^2
at once, and rho^2 = u_1 must be positive.  The recurrence rows at
rho^2 = u_1 are the one model check: rows r < m vanish exactly when
u_i = u_1^i, so they decide, and all rows r = 0..K-m are reported.  A
residual moves like the noise in the moments; the split u_i - u_1^i of
an m-fold root moves like its m-th root.  Running the solve over the grid,
testing the result for membership in the degree-2 homogeneous
polynomials, and fitting the quadratic form certifies whether the body is
an ellipse.  The membership test reads rho^2 in the arithmetic of the
solve, so exact rho^2 is decided exactly, and an exact disk gets an exact
matrix.  A window restricts the solve to an arc of directions; the
global membership test is then explicitly not locally testable and is
skipped.

One solve kernel serves both arithmetics and a single node is a grid of
one.  In float arithmetic the systems of all nodes are stacked into one
(N, m, m) array that is conditioned and solved at once; in exact
(rational) arithmetic the system is solved once per distinct node through
:mod:`radonrange.exactla`.  Both share the checks; exact residuals must
be 0, and only solved nodes have residuals (an interpolated node holds no
model data).  The exact solve and residuals and the exact Hankel
certificate run once per distinct node and are gathered back over the
grid.  They run on Python integers: a node's moments are brought over
that node's lcm L, and with rho^2 = U / E a recurrence row times E^m L is
an integer, so the gate is an integer test and each reported magnitude is
one correctly rounded int / int division.  A magnitude past the float
range raises ``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exactla
from .circle import (
    CircleFunction,
    TrigPoly,
    distinct_nodes,
    grid_index,
    theta_grid,
    trig_from_samples,
)
from .errors import (
    CertificateError,
    DegeneratePointError,
    InvalidParameterError,
    NotInModelError,
    ReconstructionFailedError,
    SingularMatrixError,
)
from .geometry import TangentialData, fit_quadratic_form
from .moments import even_moments
from .rangetest import MembershipReport, is_homogeneous_restriction

#: budget of grid directions allowed to have a singular pointwise system
MAX_DEGENERATE_FRACTION = 0.05

#: a float recurrence row r < m fails where |residual| exceeds this share of
#: the sum of its term magnitudes (exact rows must vanish)
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Even moments p_0, p_2, ..., p_{2K} as functions on the circle.

    ``entries[k]`` is p_{2k}.  All entries share one grid and each must be
    even (period pi).
    """

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise InvalidParameterError("a moment sequence needs at least p_0")
        entries = tuple(
            e if isinstance(e, CircleFunction) else CircleFunction(np.asarray(e))
            for e in self.entries
        )
        n = entries[0].n
        for k, e in enumerate(entries):
            if e.n != n:
                raise InvalidParameterError("all moments must share one grid")
            if not e.is_even():
                raise InvalidParameterError(f"moment p_{2 * k} is not even (period pi)")
        object.__setattr__(self, "entries", entries)

    @property
    def max_half_order(self) -> int:
        return len(self.entries) - 1

    @property
    def grid_size(self) -> int:
        return self.entries[0].n

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for e in self.entries)

    def values(self, k: int) -> np.ndarray:
        return self.entries[k].values

    def eval(self, k: int, theta: float):
        """p_{2k} at ``theta``: the stored sample at a grid node; off the grid
        only an entry with an exact trig form has a value, and any other
        raises :class:`InvalidParameterError`."""
        return self.entries[k].value_at(theta)


def synthesize_moments(
    data: TangentialData, max_half_order: int, n: int | None = None
) -> MomentSequence:
    """Moments p_{2k} = sum_j c(2k, j) rho^(2k-j) qt_j for k = 0..max_half_order.

    The densities are handed off signed, qt_j = (-1)^j q_j, and the overall
    factor 2 of the distribution pairing is dropped; that normalization
    makes the sequence exactly the input the elimination layer expects.
    Each entry is therefore half the raw moment of :func:`moments.moment`;
    both come from the one moment kernel, which samples rho and the
    densities once for all orders.
    """
    m = data.m
    if max_half_order < 3 * m - 2:
        raise InvalidParameterError(
            f"need max half-order >= {3 * m - 2} for m={m} (headroom for the solve)"
        )
    if n is None:
        n = data.natural_grid_size
    orders = [2 * k for k in range(max_half_order + 1)]
    return MomentSequence(tuple(even_moments(data, orders, n, weight=1)))


def _power_system(p, m: int):
    """Stacked matrices (N, m, m) and right sides (N, m) of the pointwise
    systems in u_1..u_m, from the moment columns ``p[t]`` = p_{2t} at N
    nodes, in the moments' dtype."""
    rows = [
        [(-1) ** (m - i) * math.comb(m, i) * p[r + m - i] for i in range(1, m + 1)]
        for r in range(m)
    ]
    rhs = [(-1) ** (m + 1) * p[r + m] for r in range(m)]
    return np.moveaxis(np.array(rows), -1, 0), np.moveaxis(np.array(rhs), -1, 0)


def _int_power(values: np.ndarray, e: int) -> np.ndarray:
    """``values ** e`` computed element by element as Python scalars do.

    numpy's vectorized float power may round differently in the last bit
    from the C ``pow`` that scalar arithmetic uses, and the recurrence
    residuals must not depend on which of the two ran.
    """
    return np.array([v**e for v in values.tolist()], dtype=values.dtype)


def _solve_nodes(moment_seq: MomentSequence, m: int, indices: np.ndarray):
    """rho^2 at the grid nodes ``indices``, in the moments' arithmetic.

    Returns ``(rho2, degenerate, max_residual, residual_scale)``: rho^2, a
    mask of the nodes whose system is singular (their rho^2 is meaningless),
    and the largest recurrence residual and term magnitude over the solved
    nodes and rows r = 0..K-m.  Raises :class:`NotInModelError` for the
    first solved node, in the order of ``indices``, where a row r < m fails
    (exact: a nonzero residual; float: beyond :data:`CONSISTENCY_TOL` of its
    term magnitudes) or rho^2 is nonpositive.
    """
    exact = moment_seq.is_exact
    p = [moment_seq.values(t)[indices] for t in range(moment_seq.max_half_order + 1)]
    if exact:
        # everything at a node is a function of p_0..p_K there: solve at the
        # first node of each distinct tuple, in scan order, so the first
        # failing node is still the one an error names; each node's moments
        # are integers P_t over its own lcm L
        representatives, inverse, nodes = distinct_nodes(p)
        indices = indices[representatives]
        lcm = np.array([math.lcm(*(den for _, den in node)) for node in nodes], dtype=object)
        p = [np.array([num * (lcm_i // den) for (num, den), lcm_i in zip(col, lcm)], dtype=object)
             for col in zip(*nodes)]
        a, b = _power_system(p, m)
        u1 = np.zeros(len(indices), dtype=object)
        degenerate = np.zeros(len(indices), dtype=bool)
        for pos in range(len(indices)):
            try:
                u1[pos] = exactla.solve(a[pos], b[pos])[0]
            except SingularMatrixError:
                degenerate[pos] = True
    else:
        inverse = np.arange(len(indices))
        a, b = (np.asarray(x, dtype=float) for x in _power_system(p, m))
        u = np.zeros((len(indices), m))
        if m == 1:
            # the 1x1 pivot is p_0; judge smallness against p_0 across the grid
            pivot_scale = float(np.max(np.abs(np.asarray(moment_seq.values(0), dtype=float))))
            degenerate = np.abs(a[:, 0, 0]) <= 1e-12 * max(pivot_scale, 1e-300)
            ok = ~degenerate
            u[ok] = b[ok] / a[ok, 0]
        else:
            degenerate = ~np.all(np.isfinite(a), axis=(1, 2))
            finite = np.nonzero(~degenerate)[0]
            degenerate[finite] = np.linalg.cond(a[finite]) > 1e13
            ok = ~degenerate
            u[ok] = np.linalg.solve(a[ok], b[ok, :, None])[..., 0]
        u1 = u[:, 0]

    # recurrence rows r = 0..K-m at rho^2 = u_1, on the solved nodes only
    solved = np.nonzero(~degenerate)[0]
    rho2 = u1[solved]
    p = [col[solved] for col in p]
    if exact:
        # with rho^2 = U / E, a row times E^m L is an integer
        num = np.array([x.numerator for x in rho2], dtype=object)
        den = np.array([x.denominator for x in rho2], dtype=object)
        powers = [num ** (m - k) * den**k for k in range(m + 1)]
        scaling = den**m * lcm[solved]
    else:
        powers = [_int_power(rho2, m - k) for k in range(m + 1)]
    rows = [
        [(-1) ** k * math.comb(m, k) * powers[k] * p[r + k] for k in range(m + 1)]
        for r in range(len(p) - m)
    ]
    residuals = [sum(terms) for terms in rows]
    # the smallest failing row r < m at each solved node (m: none)
    failed_row = np.full(len(solved), m)
    for r in range(m - 1, -1, -1):
        limit = 0 if exact else CONSISTENCY_TOL * sum(np.abs(t) for t in rows[r])
        failed_row[np.abs(residuals[r]) > limit] = r
    bad = (failed_row < m) | (rho2 <= 0)
    if bad.any():
        pos = int(np.argmax(bad))
        index, r = int(indices[solved[pos]]), int(failed_row[pos])
        if r < m:
            raise NotInModelError(f"recurrence row {r} fails at grid index {index}")
        raise NotInModelError(f"rho^2 <= 0 at grid index {index}")

    if exact:
        # int true division rounds correctly, as float(Fraction) does
        try:
            residuals = [np.abs(x) / scaling for x in residuals]
            rows = [[np.abs(t) / scaling for t in terms] for terms in rows]
        except OverflowError:
            raise OverflowError("exact recurrence residual scale exceeds float range") from None
    # the maxima skip nan entries (np.fmax), so one overflowed node cannot hide the rest
    residual = np.abs(np.asarray(residuals, dtype=float))
    scale = np.array([sum(np.abs(np.asarray(t, dtype=float)) for t in terms) for terms in rows])
    max_residual = float(np.fmax.reduce(residual, axis=None, initial=0.0))
    residual_scale = float(np.fmax.reduce(scale, axis=None, initial=0.0))
    return u1[inverse], degenerate[inverse], max_residual, residual_scale


def _solve_at_index(moment_seq: MomentSequence, m: int, index: int):
    """rho^2 at one grid node; raises DegeneratePointError / NotInModelError."""
    rho2, degenerate, _, _ = _solve_nodes(moment_seq, m, np.array([index]))
    if degenerate[0]:
        raise DegeneratePointError(f"singular system at grid index {index}")
    return rho2.tolist()[0]


def solve_rho2(moment_seq: MomentSequence, m: int, theta: float):
    """Solve the pointwise power system for rho(theta)^2.

    Needs moments through half-order 2m - 1.  The angle must be a grid
    node.  Raises :class:`DegeneratePointError` when the system is
    singular there and :class:`NotInModelError` when a recurrence row
    r < m fails at rho^2 = u_1 (the powers are inconsistent) or rho^2
    comes out nonpositive.
    """
    if moment_seq.max_half_order < 2 * m - 1:
        raise InvalidParameterError(
            f"solving with m={m} needs moments through half-order {2 * m - 1}"
        )
    index = grid_index(theta, moment_seq.grid_size)
    return _solve_at_index(moment_seq, m, index)


def _window_mask(n: int, window) -> np.ndarray:
    lo, hi = float(window[0]), float(window[1])
    width = (hi - lo) % (2.0 * math.pi)
    if width == 0.0:
        raise InvalidParameterError("window must have positive width")
    thetas = theta_grid(n)
    offset = (thetas - lo) % (2.0 * math.pi)
    return offset <= width


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Everything the reconstruction produced.

    ``rho2_values`` holds the recovered rho^2 at the grid nodes listed in
    ``indices`` (all nodes in global mode, the window's nodes otherwise).
    ``quadratic_verdict`` is None exactly when a window made the global
    membership test unavailable, and ``ellipse_matrix`` is present iff the
    membership test passed and the fitted form was positive definite.
    """

    grid_size: int
    indices: tuple
    rho2_values: np.ndarray
    rho2_poly: TrigPoly | None
    quadratic_verdict: MembershipReport | None
    ellipse_matrix: np.ndarray | None
    max_residual: float
    residual_scale: float
    degenerate_indices: tuple
    window: tuple | None
    notes: tuple

    @property
    def verdict(self) -> str:
        if self.window is not None:
            return "window-only"
        if self.ellipse_matrix is not None:
            return "ellipse"
        return "non-quadratic"

    @property
    def membership_note(self) -> str | None:
        return None if self.window is None else "not-locally-testable"

    @property
    def relative_residual(self) -> float:
        return self.max_residual / max(self.residual_scale, 1e-300)

    def to_dict(self) -> dict:
        """Scalars, verdicts and spectra; ``rho2.csv`` records the per-node values."""
        poly = None
        if self.rho2_poly is not None:
            trimmed = self.rho2_poly.trimmed(1e-12 * max(1.0, self.rho2_poly._scale()))
            poly = {
                "cos": [float(c) for c in trimmed.cos_coeffs],
                "sin": [float(c) for c in trimmed.sin_coeffs],
            }
        return {
            "grid_size": self.grid_size,
            "window": list(self.window) if self.window is not None else None,
            "rho2_poly": poly,
            "quadratic_verdict": (
                self.quadratic_verdict.to_dict() if self.quadratic_verdict else None
            ),
            "membership_note": self.membership_note,
            "ellipse_matrix": (
                [[float(x) for x in row] for row in np.asarray(self.ellipse_matrix)]
                if self.ellipse_matrix is not None
                else None
            ),
            "max_residual": self.max_residual,
            "residual_scale": self.residual_scale,
            "degenerate_indices": [int(i) for i in self.degenerate_indices],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _fill_gaps(values: np.ndarray, solved: np.ndarray) -> np.ndarray:
    """Fill unsolved nodes by averaging the nearest solved neighbors (circular)."""
    solved_idx = np.nonzero(solved)[0]
    missing = np.nonzero(~solved)[0]
    after = np.searchsorted(solved_idx, missing)
    fwd = solved_idx[after % len(solved_idx)]
    back = solved_idx[after - 1]  # index -1 wraps to the last solved node
    out = values.copy()
    out[missing] = (values[fwd] + values[back]) / 2
    return out


def reconstruct(
    moment_seq: MomentSequence,
    m: int,
    window: tuple | None = None,
    tol: float = 1e-8,
) -> ReconstructionReport:
    """Run the full pointwise solve / membership / quadratic-fit pipeline.

    Solves rho^2 at every grid node (restricted to ``window`` when given),
    with the recurrence residuals of all available orders at the solved
    nodes, and in global mode tests the degree-2 membership and fits the
    quadratic form.  Raises :class:`ReconstructionFailedError` when more than
    :data:`MAX_DEGENERATE_FRACTION` of the attempted nodes are degenerate.
    """
    if moment_seq.max_half_order < 2 * m - 1:
        raise InvalidParameterError(
            f"reconstruction with m={m} needs moments through half-order {2 * m - 1}"
        )
    n = moment_seq.grid_size
    if window is not None:
        selected = np.nonzero(_window_mask(n, window))[0]
        if len(selected) == 0:
            raise InvalidParameterError("window contains no grid nodes")
    else:
        selected = np.arange(n)

    rho2, degenerate_mask, max_residual, residual_scale = _solve_nodes(moment_seq, m, selected)
    solved = ~degenerate_mask
    degenerate = [int(i) for i in selected[~solved]]
    notes = []
    if len(degenerate) > MAX_DEGENERATE_FRACTION * len(selected):
        raise ReconstructionFailedError(
            f"{len(degenerate)} of {len(selected)} directions degenerate "
            f"(budget {MAX_DEGENERATE_FRACTION:.0%})"
        )
    if degenerate:
        notes.append(f"{len(degenerate)} degenerate directions were interpolated")
        rho2 = _fill_gaps(rho2, solved)

    quadratic_verdict = None
    ellipse_matrix = None
    rho2_poly = None
    if window is None:
        quadratic_verdict = is_homogeneous_restriction(rho2, 2, tol)
        rho2_poly = trig_from_samples(rho2)
        if quadratic_verdict.verdict:
            try:
                ellipse_matrix = fit_quadratic_form(rho2_poly, tol)
            except CertificateError:
                notes.append("rho^2 is quadratic but the form is not positive definite")

    return ReconstructionReport(
        grid_size=n,
        indices=tuple(int(i) for i in selected),
        rho2_values=rho2,
        rho2_poly=rho2_poly,
        quadratic_verdict=quadratic_verdict,
        ellipse_matrix=ellipse_matrix,
        max_residual=max_residual,
        residual_scale=residual_scale,
        degenerate_indices=tuple(degenerate),
        window=tuple(float(w) for w in window) if window is not None else None,
        notes=tuple(notes),
    )


def reconstruct_from_data(
    data: TangentialData,
    max_half_order: int | None = None,
    window: tuple | None = None,
    tol: float = 1e-8,
) -> ReconstructionReport:
    """Convenience wrapper: synthesize moments from data, then reconstruct
    with the data's density count ``m``."""
    if max_half_order is None:
        max_half_order = max(3 * data.m - 2, 6)
    seq = synthesize_moments(data, max_half_order)
    return reconstruct(seq, data.m, window=window, tol=tol)
