"""Trigonometric polynomials and sampled functions on the unit circle.

Directions are parametrized as omega = (cos theta, sin theta).  A function
on the circle is called *even* when it has period pi in theta; for a
trigonometric polynomial that means only even frequencies occur.  Exact
work keeps coefficients and samples as ints or ``fractions.Fraction``;
everything else is float64.  Sampled functions live on the uniform grid
``theta_i = 2 pi i / n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import InvalidParameterError

DEFAULT_GRID_SIZE = 512

#: angle offset below which a float theta is considered to lie on a grid node
GRID_MATCH_TOL = 1e-9


def theta_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Uniform angle grid ``theta_i = 2*pi*i/n`` on ``[0, 2*pi)``.

    ``n`` must be even so that ``theta_i + pi`` is again a grid node, which
    is what every evenness check relies on.
    """
    if n < 4 or n % 2 != 0:
        raise InvalidParameterError(f"grid size must be even and >= 4, got {n}")
    return np.arange(n) * (2.0 * math.pi / n)


def grid_index(theta: float, n: int) -> int:
    """Index of ``theta`` in ``theta_grid(n)``; the angle must sit on a node."""
    step = 2.0 * math.pi / n
    k = round(float(theta) / step)
    if abs(float(theta) - k * step) > GRID_MATCH_TOL:
        raise InvalidParameterError(
            f"theta={theta!r} is not a node of the {n}-point grid"
        )
    return int(k) % n


def distinct_nodes(columns) -> tuple:
    """``(representatives, inverse)`` of the grid nodes by their values.

    ``columns`` are equal-length sequences of exact values (ints, Fractions
    or finite floats), one per quantity; node i is the tuple of column
    entries at i, compared through ``as_integer_ratio`` so that equal
    values match whatever their type.  ``representatives`` holds the first
    index of each distinct tuple, in scan order, and ``inverse[i]`` is the
    position in ``representatives`` of node i's tuple, so
    ``values[representatives][inverse]`` rebuilds any per-node array that
    is a function of the tuple.
    """
    first: dict = {}
    representatives = []
    inverse = []
    ratios = [[x.as_integer_ratio() for x in column] for column in columns]
    for i, key in enumerate(zip(*ratios)):
        pos = first.setdefault(key, len(representatives))
        if pos == len(representatives):
            representatives.append(i)
        inverse.append(pos)
    return np.array(representatives, dtype=np.intp), np.array(inverse, dtype=np.intp)


def is_exact_scalar(x) -> bool:
    """True for ints and Fractions (exact rationals), False for floats."""
    return isinstance(x, Rational)


def normalize_scalar(x):
    """Coerce to a plain int, Fraction or float."""
    if type(x) in (float, int, Fraction):  # the common case, without the ABC check
        return x
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, Rational):  # numpy integers and friends
        return int(x)
    return float(x)


def _as_tuple(coeffs) -> tuple:
    return tuple(normalize_scalar(c) for c in coeffs)


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial ``a_0 + sum_f (a_f cos f*theta + b_f sin f*theta)``.

    ``cos_coeffs[f]`` holds a_f (index 0 is the constant term) and
    ``sin_coeffs[f]`` holds b_f; both tuples have the same length and
    ``sin_coeffs[0]`` is fixed to zero.  Products and powers are computed
    with the product-to-sum identities, so polynomials with rational
    coefficients stay exact under arithmetic.
    """

    cos_coeffs: tuple
    sin_coeffs: tuple

    def __post_init__(self):
        cos = _as_tuple(self.cos_coeffs)
        sin = _as_tuple(self.sin_coeffs)
        if len(sin) < len(cos):
            sin = sin + (0,) * (len(cos) - len(sin))
        elif len(cos) < len(sin):
            cos = cos + (0,) * (len(sin) - len(cos))
        if not cos:
            cos, sin = (0,), (0,)
        if sin[0] != 0:
            raise InvalidParameterError("sin coefficient at frequency 0 must be zero")
        object.__setattr__(self, "cos_coeffs", cos)
        object.__setattr__(self, "sin_coeffs", sin)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls((c,), (0,))

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls((0,), (0,))

    @classmethod
    def from_terms(cls, cos=None, sin=None) -> "TrigPoly":
        """Build from ``{frequency: coefficient}`` mappings."""
        cos = dict(cos or {})
        sin = dict(sin or {})
        top = max([0, *cos.keys(), *sin.keys()])
        a = [cos.get(f, 0) for f in range(top + 1)]
        b = [sin.get(f, 0) for f in range(top + 1)]
        return cls(tuple(a), tuple(b))

    # -- basic queries ------------------------------------------------

    @property
    def max_frequency(self) -> int:
        return len(self.cos_coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.cos_coeffs + self.sin_coeffs)

    def coefficient(self, f: int) -> tuple:
        """(cos, sin) coefficient pair at frequency ``f`` (0 beyond range)."""
        if 0 <= f <= self.max_frequency:
            return self.cos_coeffs[f], self.sin_coeffs[f]
        return 0, 0

    def degree(self) -> int:
        """Highest frequency carrying a nonzero coefficient (0 for the zero
        polynomial)."""
        for f in range(self.max_frequency, 0, -1):
            if self.cos_coeffs[f] != 0 or self.sin_coeffs[f] != 0:
                return f
        return 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.cos_coeffs + self.sin_coeffs)

    def is_even(self, tol: float | None = None) -> bool:
        """Whether only even frequencies occur.

        Exact polynomials must have exact zeros at odd frequencies; float
        polynomials tolerate ``tol`` (default ``1e-9`` times the coefficient
        scale) of numerical junk.
        """
        if tol is None:
            tol = 0.0 if self.is_exact else 1e-9 * max(1.0, self._scale())
        bad = 0.0
        for f in range(1, self.max_frequency + 1, 2):
            bad = max(bad, abs(self.cos_coeffs[f]), abs(self.sin_coeffs[f]))
        return bad <= tol

    def _scale(self) -> float:
        return max(abs(float(c)) for c in self.cos_coeffs + self.sin_coeffs)

    def trimmed(self, tol: float = 0.0) -> "TrigPoly":
        """Drop trailing frequencies whose coefficients are <= ``tol``."""
        top = 0
        for f in range(self.max_frequency, 0, -1):
            if abs(self.cos_coeffs[f]) > tol or abs(self.sin_coeffs[f]) > tol:
                top = f
                break
        return TrigPoly(self.cos_coeffs[: top + 1], self.sin_coeffs[: top + 1])

    # -- evaluation ---------------------------------------------------

    def __call__(self, theta):
        """Evaluate at a float angle or an array of angles."""
        th = np.asarray(theta, dtype=float)
        freqs = np.arange(self.max_frequency + 1)
        phases = np.multiply.outer(th, freqs)
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        out = np.cos(phases) @ a + np.sin(phases) @ b
        if np.isscalar(theta) or np.ndim(theta) == 0:
            return float(out)
        return out

    def eval_exact(self, cos_t, sin_t):
        """Evaluate at the circle point ``(cos_t, sin_t)`` without trig calls.

        Uses the angle-addition recurrence, so rational inputs give an exact
        rational value.  The caller is responsible for cos_t^2 + sin_t^2 = 1.
        """
        total = self.cos_coeffs[0]
        c_f, s_f = 1, 0  # cos/sin of f*theta, starting at f = 0
        for f in range(1, self.max_frequency + 1):
            c_f, s_f = c_f * cos_t - s_f * sin_t, s_f * cos_t + c_f * sin_t
            total = total + self.cos_coeffs[f] * c_f + self.sin_coeffs[f] * s_f
        return total

    def samples(self, n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
        """Float samples on ``theta_grid(n)``."""
        return self(theta_grid(n))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(tuple(-c for c in self.cos_coeffs), tuple(-c for c in self.sin_coeffs))

    def __add__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(normalize_scalar(other))
        top = max(self.max_frequency, other.max_frequency)
        a = [self.coefficient(f)[0] + other.coefficient(f)[0] for f in range(top + 1)]
        b = [self.coefficient(f)[1] + other.coefficient(f)[1] for f in range(top + 1)]
        return TrigPoly(tuple(a), tuple(b))

    __radd__ = __add__

    def __sub__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(normalize_scalar(other))
        return self + (-other)

    def __rsub__(self, other) -> "TrigPoly":
        return (-self) + other

    def __mul__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            k = normalize_scalar(other)
            return TrigPoly(
                tuple(k * c for c in self.cos_coeffs),
                tuple(k * c for c in self.sin_coeffs),
            )
        half = Fraction(1, 2) if (self.is_exact and other.is_exact) else 0.5
        top = self.max_frequency + other.max_frequency
        a = [0] * (top + 1)
        b = [0] * (top + 1)

        def add_cos(f, coeff):
            a[abs(f)] += coeff

        def add_sin(f, coeff):
            if f > 0:
                b[f] += coeff
            elif f < 0:
                b[-f] -= coeff

        for f in range(self.max_frequency + 1):
            af, bf = self.cos_coeffs[f], self.sin_coeffs[f]
            if af == 0 and bf == 0:
                continue
            for g in range(other.max_frequency + 1):
                cg, dg = other.cos_coeffs[g], other.sin_coeffs[g]
                if cg == 0 and dg == 0:
                    continue
                if af != 0 and cg != 0:  # cos f * cos g
                    add_cos(f - g, half * af * cg)
                    add_cos(f + g, half * af * cg)
                if bf != 0 and dg != 0:  # sin f * sin g
                    add_cos(f - g, half * bf * dg)
                    add_cos(f + g, -half * bf * dg)
                if bf != 0 and cg != 0:  # sin f * cos g
                    add_sin(f + g, half * bf * cg)
                    add_sin(f - g, half * bf * cg)
                if af != 0 and dg != 0:  # cos f * sin g
                    add_sin(f + g, half * af * dg)
                    add_sin(f - g, -half * af * dg)
        return TrigPoly(tuple(a), tuple(b))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "TrigPoly":
        if not isinstance(k, Rational) or k != int(k) or k < 0:
            raise InvalidParameterError("powers of trig polynomials need integer k >= 0")
        out = TrigPoly.constant(1)
        for _ in range(int(k)):
            out = out * self
        return out

    # -- spectra ------------------------------------------------------

    def energy(self) -> np.ndarray:
        """Energy a_f^2 + b_f^2 per frequency, as floats."""
        a = np.asarray([float(c) for c in self.cos_coeffs])
        b = np.asarray([float(c) for c in self.sin_coeffs])
        return a * a + b * b


def _fourier_coeffs(values) -> tuple:
    """Float arrays ``(a, b)`` of the trigonometric interpolant of uniform samples."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 4 or n % 2 != 0:
        raise InvalidParameterError(f"need an even number >= 4 of samples, got {n}")
    spectrum = np.fft.rfft(v)
    a = np.empty(n // 2 + 1)
    b = np.zeros(n // 2 + 1)
    a[0] = spectrum[0].real / n
    a[1:] = 2.0 * spectrum[1:].real / n
    b[1:] = -2.0 * spectrum[1:].imag / n
    a[n // 2] = spectrum[n // 2].real / n
    b[n // 2] = 0.0
    return a, b


def trig_from_samples(values: np.ndarray) -> TrigPoly:
    """Trigonometric interpolant of samples on the uniform grid.

    For band-limited data (maximal frequency < n/2) this recovers the
    coefficients exactly up to FFT round-off.  At the Nyquist frequency only
    the cosine component is observable and it is returned undoubled.
    """
    a, b = _fourier_coeffs(values)
    return TrigPoly(tuple(a.tolist()), tuple(b.tolist()))


def fourier_energy(values: np.ndarray) -> np.ndarray:
    """Per-frequency energy a_f^2 + b_f^2 of uniform samples (length n//2 + 1)."""
    a, b = _fourier_coeffs(values)
    return a * a + b * b


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """A function on the circle: samples on the uniform grid plus an optional
    exact trigonometric form.

    ``values`` has float64 dtype on the numeric path or object dtype holding
    Fractions on the exact path.  ``poly``, when present, agrees with the
    samples and allows off-grid evaluation.
    """

    values: np.ndarray
    poly: TrigPoly | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or len(v) < 4 or len(v) % 2 != 0:
            raise InvalidParameterError("samples must be a 1-d array of even length >= 4")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return self.values.dtype == object

    def grid(self) -> np.ndarray:
        return theta_grid(self.n)

    def as_float(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def value_at(self, theta: float):
        """Value at an angle: grid nodes give the stored (possibly exact)
        sample; off-grid angles need ``poly``."""
        try:
            return self.values[grid_index(theta, self.n)]
        except InvalidParameterError:
            if self.poly is not None:
                return self.poly(theta)
            raise

    def is_even(self, tol: float | None = None) -> bool:
        """Whether samples have period pi (antipodal grid nodes agree)."""
        half = self.n // 2
        shifted = np.roll(self.values, -half)
        if self.is_exact:
            return all(x == y for x, y in zip(self.values, shifted))
        if tol is None:
            scale = float(np.max(np.abs(self.as_float()))) if self.n else 0.0
            tol = 1e-9 * max(1.0, scale)
        return bool(np.max(np.abs(self.as_float() - np.asarray(shifted, float))) <= tol)


def zero_circle_function(n: int, exact: bool) -> CircleFunction:
    values = np.zeros(n, dtype=object) if exact else np.zeros(n)
    return CircleFunction(values, TrigPoly.zero())
