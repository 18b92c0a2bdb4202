"""Support functions of symmetric convex bodies and tangential data.

A centrally symmetric convex body in the plane is described by its support
function ``rho(theta) = sup { x . omega : x in body }`` with
``omega = (cos theta, sin theta)``; rho is strictly positive and even
(period pi).  Three representations are supported:

* ``ellipse`` - rho(theta)^2 = omega . M omega for a symmetric positive
  definite 2x2 matrix M,
* ``trig`` - rho^2 prescribed as an even trigonometric polynomial,
* ``sampled`` - positive rho values on the uniform grid (the exact
  arithmetic path stores Fractions here).

``TangentialData`` bundles a support function with densities
``q_0 .. q_{m-1}``; together they describe the distribution

    g(omega, p) = sum_j q_j(omega) (delta^(j)(p - rho) + (-1)^j delta^(j)(p + rho))

carried by the tangent lines of the body.  All values are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .circle import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TOL,
    CircleFunction,
    TrigPoly,
    grid_index,
    is_exact_scalar,
    normalize_scalar,
)
from .errors import (
    CertificateError,
    HypothesisViolatedError,
    InvalidParameterError,
    PositivityError,
)

#: below this relative threshold a float function counts as identically zero
ZERO_THRESHOLD = 1e-12


def _exact_samples(values) -> np.ndarray | None:
    """Object array of exact scalars when every entry is rational, else None."""
    vals = [normalize_scalar(x) for x in values]
    if all(is_exact_scalar(x) for x in vals):
        out = np.empty(len(vals), dtype=object)
        out[:] = vals
        return out
    return None


def _is_exact_constant(poly: TrigPoly | None) -> bool:
    """Whether ``poly`` is an exact constant, so its grid values are exact."""
    return poly is not None and poly.is_exact and poly.degree() == 0


def _constant_samples(value, n: int) -> np.ndarray:
    """Object array holding the exact ``value`` at each of ``n`` grid nodes."""
    out = np.empty(n, dtype=object)
    out[:] = value
    return out


def _even_part(q):
    """``q`` stored exactly even, once it passed its evenness check: a trig
    polynomial gets zeros (``c * 0`` keeps its arithmetic) at its odd
    frequencies, grid samples repeat their first half.  Exact inputs passed
    with tolerance 0 and keep their values."""
    if isinstance(q, TrigPoly):
        return TrigPoly(*(tuple(c * 0 if f % 2 else c for f, c in enumerate(coeffs))
                          for coeffs in (q.cos_coeffs, q.sin_coeffs)))
    return np.concatenate([q[: len(q) // 2]] * 2)


def _exact_sqrt(c):
    """Exact square root of a nonnegative rational, or None."""
    frac = Fraction(c)
    if frac < 0:
        return None
    pn, pd = math.isqrt(frac.numerator), math.isqrt(frac.denominator)
    if pn * pn == frac.numerator and pd * pd == frac.denominator:
        root = Fraction(pn, pd)
        return int(root) if root.denominator == 1 else root
    return None


@dataclass(frozen=True, eq=False)
class SupportFunction:
    """Support function of a symmetric convex body; see the module docstring.

    Use :func:`make_ellipse`, :func:`disk`, :meth:`from_rho2_poly` or
    :meth:`from_samples` instead of the raw constructor.
    """

    kind: str
    matrix: np.ndarray | None = None
    rho2_poly: TrigPoly | None = None
    rho_poly: TrigPoly | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("ellipse", "trig", "sampled"):
            raise InvalidParameterError(f"unknown support function kind {self.kind!r}")
        if self.kind == "sampled":
            v = np.asarray(self.values)
            if v.ndim != 1 or len(v) < 4 or len(v) % 2 != 0:
                raise InvalidParameterError("sampled rho needs a 1-d array of even length >= 4")
            if any(x <= 0 for x in v):
                raise PositivityError("sampled support function must be strictly positive")
            if not CircleFunction(v).is_even():
                raise InvalidParameterError("sampled support function must be even (period pi)")
            object.__setattr__(self, "values", _even_part(v))
        else:
            poly = self.rho2_poly
            if poly is None:
                raise InvalidParameterError("trig/ellipse support functions need rho2_poly")
            if not poly.is_even():
                raise InvalidParameterError("rho^2 must contain even frequencies only")
            poly = _even_part(poly)
            object.__setattr__(self, "rho2_poly", poly)
            if self.kind == "ellipse":  # make_ellipse refuses a, b <= 0; floats may cancel
                return
            if _is_exact_constant(poly):  # decided by its sign; a float may overflow
                nonpositive = poly.cos_coeffs[0] <= 0
            else:
                n_check = max(DEFAULT_GRID_SIZE, 4 * poly.max_frequency + 4)
                if n_check % 2:
                    n_check += 1
                nonpositive = float(np.min(poly.samples(n_check))) <= 0.0
            if nonpositive:
                raise PositivityError("rho^2 must be strictly positive on the grid")

    # -- queries --------------------------------------------------------

    @property
    def grid_size(self) -> int | None:
        """Grid size pinned by sampled data, else None."""
        return len(self.values) if self.kind == "sampled" else None

    @property
    def is_exact(self) -> bool:
        if self.kind == "sampled":
            return self.values.dtype == object or all(
                is_exact_scalar(x) for x in self.values
            )
        return self.rho2_poly.is_exact

    def rho2_at(self, theta: float):
        if self.kind == "sampled":
            v = self.values[grid_index(theta, len(self.values))]
            return v * v
        if _is_exact_constant(self.rho2_poly):
            return self.rho2_poly.cos_coeffs[0]
        return self.rho2_poly(theta)

    def rho_at(self, theta: float):
        if self.kind == "sampled":
            return self.values[grid_index(theta, len(self.values))]
        if self.rho_poly is not None and self.rho_poly.degree() == 0:
            return self.rho_poly.cos_coeffs[0]
        return math.sqrt(float(self.rho2_at(theta)))

    def rho_samples(self, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
        """rho on the grid; object dtype (exact) when the representation allows."""
        if self.kind == "sampled":
            if n != len(self.values):
                raise InvalidParameterError(
                    f"sampled support function is pinned to n={len(self.values)}"
                )
            return self.values
        if _is_exact_constant(self.rho_poly):
            return _constant_samples(self.rho_poly.cos_coeffs[0], n)
        return np.sqrt(self.rho2_samples(n).astype(float))

    def rho2_samples(self, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
        if self.kind == "sampled":
            if n != len(self.values):
                raise InvalidParameterError(
                    f"sampled support function is pinned to n={len(self.values)}"
                )
            return self.values * self.values
        poly = self.rho2_poly
        if _is_exact_constant(poly):
            return _constant_samples(poly.cos_coeffs[0], n)
        return poly.samples(n)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rho2_poly(cls, poly: TrigPoly) -> "SupportFunction":
        """Body with rho^2 given as an even trigonometric polynomial."""
        rho_poly = None
        if poly.degree() == 0 and poly.is_exact:
            root = _exact_sqrt(poly.cos_coeffs[0])
            if root is not None:
                rho_poly = TrigPoly.constant(root)
        return cls(kind="trig", rho2_poly=poly, rho_poly=rho_poly)

    @classmethod
    def from_samples(cls, values) -> "SupportFunction":
        """Body with rho sampled on the uniform grid (Fractions stay exact)."""
        arr = _exact_samples(values)
        if arr is None:
            arr = np.asarray([float(x) for x in values])
        return cls(kind="sampled", values=arr)


def disk(radius=1) -> SupportFunction:
    """Disk of the given radius centered at the origin (rho is constant)."""
    radius = normalize_scalar(radius)
    if radius <= 0:
        raise InvalidParameterError("radius must be positive")
    return SupportFunction(
        kind="trig",
        rho2_poly=TrigPoly.constant(radius * radius),
        rho_poly=TrigPoly.constant(radius),
    )


def make_ellipse(a, b, tilt=0.0) -> SupportFunction:
    """Ellipse with semi-axes ``a`` (along direction ``tilt``) and ``b``.

    The support function satisfies rho(theta)^2 = omega . M omega with
    M = R diag(a^2, b^2) R^T and R the rotation by ``tilt``.  With rational
    axes and tilt 0 (or a = b) the representation is exact.
    """
    a = normalize_scalar(a)
    b = normalize_scalar(b)
    if a <= 0 or b <= 0:
        raise InvalidParameterError("semi-axes must be positive")
    exact = is_exact_scalar(a) and is_exact_scalar(b) and (tilt == 0 or a == b)
    if exact:
        a2, b2 = a * a, b * b
        m11, m22, m12 = a2, b2, 0
        half = Fraction(1, 2)
    else:
        a, b, tilt = float(a), float(b), float(tilt)
        c, s = math.cos(tilt), math.sin(tilt)
        m11 = a * a * c * c + b * b * s * s
        m22 = a * a * s * s + b * b * c * c
        m12 = (a * a - b * b) * c * s
        half = 0.5
    matrix = np.empty((2, 2), dtype=object if exact else float)
    matrix[0, 0], matrix[0, 1] = m11, m12
    matrix[1, 0], matrix[1, 1] = m12, m22
    rho2 = TrigPoly.from_terms(
        cos={0: half * (m11 + m22), 2: half * (m11 - m22)}, sin={2: m12}
    )
    rho_poly = None
    if exact and a == b:
        rho_poly = TrigPoly.constant(a)
    return SupportFunction(kind="ellipse", matrix=matrix, rho2_poly=rho2, rho_poly=rho_poly)


def perturb(rho: SupportFunction, eps, frequency: int) -> SupportFunction:
    """Add ``eps * cos(frequency * theta)`` to rho^2.

    The frequency must be an even integer >= 4, so the result is still an
    even candidate support function but no longer a quadratic form in omega
    whenever eps != 0.  Raises when positivity fails on the grid.
    """
    if frequency % 2 != 0 or frequency < 4:
        raise InvalidParameterError("perturbation frequency must be even and >= 4")
    if rho.rho2_poly is None:
        raise InvalidParameterError("only trig/ellipse support functions can be perturbed")
    eps = normalize_scalar(eps)
    bump = TrigPoly.from_terms(cos={frequency: eps})
    return SupportFunction.from_rho2_poly((rho.rho2_poly + bump).trimmed())


def fit_quadratic_form(rho2: TrigPoly, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Recover M with omega . M omega = rho^2 on the circle, if possible.

    Returns None exactly when rho2 fails
    :func:`~radonrange.rangetest.is_homogeneous_restriction` at degree 2
    and ``tol``.  Raises :class:`CertificateError` when rho2 is quadratic
    but M is not positive definite, i.e. rho2 is not the squared support
    function of any body.
    """
    from .rangetest import is_homogeneous_restriction  # rangetest imports this module

    if not rho2.is_even():
        raise InvalidParameterError("rho^2 must be even")
    if not is_homogeneous_restriction(rho2, 2, tol).verdict:
        return None
    c0 = rho2.cos_coeffs[0]
    a2, b2 = rho2.coefficient(2)
    m11 = c0 + a2
    m22 = c0 - a2
    m12 = b2
    exact = rho2.is_exact
    matrix = np.empty((2, 2), dtype=object if exact else float)
    matrix[0, 0], matrix[0, 1] = m11, m12
    matrix[1, 0], matrix[1, 1] = m12, m22
    if m11 <= 0 or m11 * m22 - m12 * m12 <= 0:
        raise CertificateError("rho^2 is quadratic but the form is not positive definite")
    return matrix


def _as_density(q):
    if isinstance(q, TrigPoly):
        return q
    if isinstance(q, (int, float, Fraction, Rational)):
        return TrigPoly.constant(normalize_scalar(q))
    if np.ndim(q) != 1:
        raise InvalidParameterError("a density must be a TrigPoly, a scalar or 1-d samples")
    arr = _exact_samples(q)
    return arr if arr is not None else np.asarray([float(x) for x in q])


def _density_is_zero(q) -> bool:
    if isinstance(q, TrigPoly):
        if q.is_exact:
            return q.is_zero()
        return q._scale() <= ZERO_THRESHOLD
    if np.asarray(q).dtype == object:
        return all(x == 0 for x in q)
    return float(np.max(np.abs(q))) <= ZERO_THRESHOLD


@dataclass(frozen=True, eq=False)
class TangentialData:
    """A support function plus densities q_0 .. q_{m-1}.

    Densities may be trig polynomials, scalars (promoted to constants) or
    sampled arrays on the same grid as a sampled support function.  Every
    density must be even, and the top density q_{m-1} must not vanish
    identically unless ``minimal=False`` (used for degenerate negative
    controls).
    """

    rho: SupportFunction
    densities: tuple
    minimal: bool = True

    def __post_init__(self):
        qs = tuple(_as_density(q) for q in self.densities)
        if not qs:
            raise InvalidParameterError("at least one density is required")
        for j, q in enumerate(qs):
            if isinstance(q, TrigPoly):
                if not q.is_even():
                    raise InvalidParameterError(f"density q_{j} must be even (period pi)")
            else:
                if self.rho.grid_size is not None and len(q) != self.rho.grid_size:
                    raise InvalidParameterError(
                        "sampled densities must live on the support function grid"
                    )
                if not CircleFunction(q).is_even():
                    raise InvalidParameterError(f"density q_{j} must be even (period pi)")
        qs = tuple(map(_even_part, qs))
        if self.minimal and _density_is_zero(qs[-1]):
            raise HypothesisViolatedError(
                "the top density q_{m-1} vanishes identically; drop it or pass minimal=False"
            )
        object.__setattr__(self, "densities", qs)

    @property
    def m(self) -> int:
        return len(self.densities)

    @property
    def natural_grid_size(self) -> int:
        if self.rho.grid_size is not None:
            return self.rho.grid_size
        for q in self.densities:
            if not isinstance(q, TrigPoly):
                return len(q)
        return DEFAULT_GRID_SIZE

    @property
    def is_exact(self) -> bool:
        """Whether rho and every density have exact rational values on the grid.

        That requires rho to be either exactly sampled or an exact constant
        (a disk): for other bodies the grid values of rho itself are
        irrational even when rho^2 has rational coefficients.
        """
        if self.rho.kind == "sampled":
            rho_ok = self.rho.values.dtype == object
        else:
            rho_ok = _is_exact_constant(self.rho.rho_poly)
        return rho_ok and all(
            _is_exact_constant(q) if isinstance(q, TrigPoly) else q.dtype == object
            for q in self.densities
        )

    def density_samples(self, j: int, n: int) -> np.ndarray:
        q = self.densities[j]
        if isinstance(q, TrigPoly):
            if _is_exact_constant(q):
                return _constant_samples(q.cos_coeffs[0], n)
            return q.samples(n)
        if len(q) != n:
            raise InvalidParameterError(f"density q_{j} is pinned to n={len(q)}")
        return q

    def density_poly(self, j: int) -> TrigPoly | None:
        q = self.densities[j]
        return q if isinstance(q, TrigPoly) else None

    def values_at(self, theta: float):
        """(rho, [q_0 .. q_{m-1}]) at an angle (grid node for sampled parts)."""
        rho_val = self.rho.rho_at(theta)
        out = []
        for q in self.densities:
            if isinstance(q, TrigPoly):
                out.append(q.cos_coeffs[0] if _is_exact_constant(q) else q(theta))
            else:
                out.append(q[grid_index(theta, len(q))])
        return rho_val, out


def evenness_defect(rho: SupportFunction, n: int = DEFAULT_GRID_SIZE) -> float:
    """max over the grid of |rho(theta) - rho(theta + pi)|: 0.0 for a sampled
    body, which is stored exactly even; the round-off of a closed form."""
    if rho.kind == "sampled":
        n = len(rho.values)
    vals = np.asarray(rho.rho_samples(n), dtype=float)
    return float(np.max(np.abs(vals - np.roll(vals, -n // 2))))
