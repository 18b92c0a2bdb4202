"""Recovering rho^2 from moment sequences and certifying the ellipse.

The moment identities, read at a fixed direction, are linear in the powers
u_i = rho^(2i): the m residual equations

    sum_{k=0}^{m} (-1)^k binom(m, k) rho^(2(m-k)) p_{2r+2k} = 0,   r = 0..m-1,

form an m x m system whose matrix is the moment Hankel matrix up to column
reversal and binomial scalings.  Solving it returns every power of rho^2
at once; a solution is accepted only when the powers are consistent
(u_i = u_1^i), and rho^2 = u_1 must be positive.  Running the solve over
the grid, testing the result for membership in the degree-2 homogeneous
polynomials, and fitting the quadratic form certifies whether the body is
an ellipse.  A window restricts the solve to an arc of directions; the
global membership test is then explicitly not locally testable and is
skipped.

One solve kernel serves both arithmetics and a single node is a grid of
one.  In float arithmetic the systems of all nodes are stacked into one
(N, m, m) array that is conditioned and solved at once; in exact
(rational) arithmetic the system is solved once per distinct node through
:mod:`radonrange.exactla`.  The consistency and positivity checks are
shared, with exact moments held to exact equality.  The exact recurrence
residuals and the exact Hankel certificate also run once per distinct
node: nodes that hold identical exact values share one computation, whose
result is gathered back over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Even moments p_0, p_2, ..., p_{2K} as functions on the circle.

    ``entries[k]`` is p_{2k}.  All entries share one grid and each must be
    even (period pi).  ``source`` records whether the sequence came from
    synthetic tangential data or from outside.
    """

    entries: tuple
    source: str = "synthetic"

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
    return MomentSequence(tuple(even_moments(data, orders, n, weight=1)), source="synthetic")


def _power_system(moment_seq: MomentSequence, m: int, indices: np.ndarray):
    """Stacked matrices (N, m, m) and right sides (N, m) of the pointwise
    systems in u_1..u_m at the grid nodes ``indices``, in the moments' dtype."""
    p = [moment_seq.values(t)[indices] for t in range(2 * m)]
    rows = [
        [(-1) ** (m - i) * math.comb(m, i) * p[r + m - i] for i in range(1, m + 1)]
        for r in range(m)
    ]
    rhs = [(-1) ** (m + 1) * p[r + m] for r in range(m)]
    return np.moveaxis(np.array(rows), -1, 0), np.moveaxis(np.array(rhs), -1, 0)


def _int_power(values: np.ndarray, e: int) -> np.ndarray:
    """``values ** e`` computed element by element as Python scalars do.

    numpy's vectorized float power may round differently in the last bit
    from the C ``pow`` that scalar arithmetic uses, and the residuals and
    consistency checks must not depend on which of the two ran.
    """
    return np.array([v**e for v in values.tolist()], dtype=values.dtype)


def _solve_nodes(
    moment_seq: MomentSequence, m: int, indices: np.ndarray, consistency_tol: float
):
    """rho^2 at the grid nodes ``indices``, in the moments' arithmetic.

    Returns ``(rho2, degenerate)``: the solved rho^2 and a mask of the nodes
    whose system is singular (their rho^2 entries are meaningless).  Raises
    :class:`NotInModelError` for the first non-degenerate node, in the order
    of ``indices``, whose powers are inconsistent (u_i != u_1^i beyond
    ``consistency_tol``; exact moments must match exactly) or whose rho^2
    is nonpositive.
    """
    if moment_seq.is_exact:
        # the system at a node is a function of p_0..p_{2m-1} there: solve it
        # at the first node of each distinct tuple, in scan order, so the
        # first failing node is still the one an error names
        representatives, inverse = distinct_nodes(
            [moment_seq.values(t)[indices] for t in range(2 * m)]
        )
        indices = indices[representatives]
        a, b = _power_system(moment_seq, m, indices)
        u = np.zeros((len(indices), m), dtype=object)
        degenerate = np.zeros(len(indices), dtype=bool)
        for pos in range(len(indices)):
            try:
                u[pos] = exactla.solve(a[pos], b[pos])
            except SingularMatrixError:
                degenerate[pos] = True
        consistency_tol = 0
    else:
        inverse = np.arange(len(indices))
        a, b = _power_system(moment_seq, m, indices)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
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
    u1 = u[:, 0].copy()
    # smallest power i whose consistency u_i = u_1^i fails at each node (0: none)
    failed_power = np.zeros(len(indices), dtype=int)
    for i in range(m, 1, -1):
        target = _int_power(u1, i)
        scale = np.maximum(np.maximum(np.abs(u[:, i - 1]), np.abs(target)), 1e-30)
        failed_power[np.abs(u[:, i - 1] - target) > consistency_tol * scale] = i
    bad = ~degenerate & ((failed_power > 0) | (u1 <= 0))
    if bad.any():
        pos = int(np.argmax(bad))
        index, i = int(indices[pos]), int(failed_power[pos])
        if i:
            raise NotInModelError(
                f"power consistency fails at grid index {index}: u_{i} != u_1^{i}"
            )
        raise NotInModelError(f"rho^2 <= 0 at grid index {index}")
    return u1[inverse], degenerate[inverse]


def _solve_at_index(
    moment_seq: MomentSequence, m: int, index: int, consistency_tol: float = 1e-8
):
    """rho^2 at one grid node; raises DegeneratePointError / NotInModelError."""
    rho2, degenerate = _solve_nodes(moment_seq, m, np.array([index]), consistency_tol)
    if degenerate[0]:
        raise DegeneratePointError(f"singular system at grid index {index}")
    return rho2.tolist()[0]


def solve_rho2(
    moment_seq: MomentSequence, m: int, theta: float, consistency_tol: float = 1e-8
):
    """Solve the pointwise power system for rho(theta)^2.

    Needs moments through half-order 2m - 1.  The angle must be a grid
    node.  Raises :class:`DegeneratePointError` when the system is
    singular there and :class:`NotInModelError` when the solved powers are
    inconsistent or rho^2 comes out nonpositive.
    """
    if moment_seq.max_half_order < 2 * m - 1:
        raise InvalidParameterError(
            f"solving with m={m} needs moments through half-order {2 * m - 1}"
        )
    index = grid_index(theta, moment_seq.grid_size)
    return _solve_at_index(moment_seq, m, index, consistency_tol)


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
    membership_note: str | None
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
    def relative_residual(self) -> float:
        return self.max_residual / max(self.residual_scale, 1e-300)

    def to_dict(self) -> dict:
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
            "indices": [int(i) for i in self.indices],
            "rho2_values": [float(v) for v in self.rho2_values],
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
    out = values.copy()
    n = len(values)
    missing = np.nonzero(~solved)[0]
    solved_idx = np.nonzero(solved)[0]
    half = Fraction(1, 2) if values.dtype == object else 0.5
    for i in missing:
        fwd = solved_idx[np.argmin((solved_idx - i) % n)]
        back = solved_idx[np.argmin((i - solved_idx) % n)]
        out[i] = half * (values[fwd] + values[back])
    return out


def reconstruct(
    moment_seq: MomentSequence,
    m: int,
    window: tuple | None = None,
    tol: float = 1e-8,
    consistency_tol: float = 1e-8,
    max_degenerate_fraction: float = MAX_DEGENERATE_FRACTION,
) -> ReconstructionReport:
    """Run the full pointwise solve / membership / quadratic-fit pipeline.

    Solves rho^2 at every grid node (restricted to ``window`` when given),
    evaluates the recurrence residuals for all available orders, and in
    global mode tests the degree-2 membership and fits the quadratic form.
    Raises :class:`ReconstructionFailedError` when more than
    ``max_degenerate_fraction`` of the attempted nodes are degenerate.
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

    rho2, degenerate_mask = _solve_nodes(moment_seq, m, selected, consistency_tol)
    solved = ~degenerate_mask
    degenerate = [int(i) for i in selected[~solved]]
    notes = []
    if len(degenerate) > max_degenerate_fraction * len(selected):
        raise ReconstructionFailedError(
            f"{len(degenerate)} of {len(selected)} directions degenerate "
            f"(budget {max_degenerate_fraction:.0%})"
        )
    if degenerate:
        notes.append(f"{len(degenerate)} degenerate directions were interpolated")
        rho2 = _fill_gaps(rho2, solved)

    # recurrence residuals, evaluated with the recovered rho^2; the maxima
    # skip nan entries (np.fmax), so one overflowed node cannot hide the rest.
    # Exact residuals are functions of (rho^2, p_0..p_K) at a node, so their
    # maxima are taken over the distinct tuples only
    p = [moment_seq.values(t)[selected] for t in range(moment_seq.max_half_order + 1)]
    node_rho2 = rho2
    if moment_seq.is_exact:
        representatives, _ = distinct_nodes([rho2, *p])
        node_rho2 = rho2[representatives]
        p = [col[representatives] for col in p]
    powers = [_int_power(node_rho2, m - k) for k in range(m + 1)]
    max_residual = 0.0
    residual_scale = 0.0
    for r in range(moment_seq.max_half_order - m + 1):
        res = 0
        scale = 0.0
        for k in range(m + 1):
            term = (-1) ** k * math.comb(m, k) * powers[k] * p[r + k]
            res = res + term
            scale = scale + np.abs(np.asarray(term, dtype=float))
        max_residual = float(
            np.fmax.reduce(np.abs(np.asarray(res, dtype=float)), initial=max_residual)
        )
        residual_scale = float(np.fmax.reduce(scale, initial=residual_scale))

    quadratic_verdict = None
    membership_note = None
    ellipse_matrix = None
    rho2_poly = None
    if window is None:
        rho2_float = np.asarray(rho2, dtype=float)
        quadratic_verdict = is_homogeneous_restriction(rho2_float, 2, tol)
        rho2_poly = trig_from_samples(rho2_float)
        if quadratic_verdict.verdict:
            try:
                ellipse_matrix = fit_quadratic_form(rho2_poly, tol)
            except CertificateError:
                notes.append("rho^2 is quadratic but the form is not positive definite")
        if ellipse_matrix is None and quadratic_verdict.verdict and not notes:
            notes.append("quadratic fit returned no matrix")
    else:
        membership_note = "not-locally-testable"

    return ReconstructionReport(
        grid_size=n,
        indices=tuple(int(i) for i in selected),
        rho2_values=rho2,
        rho2_poly=rho2_poly,
        quadratic_verdict=quadratic_verdict,
        membership_note=membership_note,
        ellipse_matrix=ellipse_matrix,
        max_residual=max_residual,
        residual_scale=residual_scale,
        degenerate_indices=tuple(degenerate),
        window=tuple(float(w) for w in window) if window is not None else None,
        notes=tuple(notes),
    )


def reconstruct_from_data(
    data: TangentialData,
    m: int | None = None,
    max_half_order: int | None = None,
    window: tuple | None = None,
    tol: float = 1e-8,
) -> ReconstructionReport:
    """Convenience wrapper: synthesize moments from data, then reconstruct."""
    if m is None:
        m = data.m
    if max_half_order is None:
        max_half_order = max(3 * data.m - 2, 2 * m - 1, 6)
    seq = synthesize_moments(data, max_half_order)
    return reconstruct(seq, m, window=window, tol=tol)
