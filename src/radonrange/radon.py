"""Line integrals over the unit disk and the induced tangential moments.

The density ``f0(x) = 1/(pi sqrt(1 - |x|^2))`` on the open unit disk has
unit integral over every chord, so in line coordinates (theta, p) its
transform is the indicator of |p| < 1 and the second p-derivative is the
tangential distribution ``delta'(p + 1) - delta'(p - 1)``.

The chord integrals are computed with Gauss-Chebyshev quadrature after
factoring out the inverse-square-root endpoint weight: substituting
``s = L t`` with ``L = sqrt(1 - p^2)`` turns the integrand into a smooth
(here: constant) factor against the Chebyshev weight, so even a 2-node
rule reproduces the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TrigPoly
from .errors import InvalidParameterError, SingularLineError
from .geometry import TangentialData, disk
from .moments import moment


@dataclass(frozen=True)
class LineParam:
    """The line ``x . omega = p`` with unit normal ``omega = (cos theta, sin theta)``.

    (theta, p) and (theta + pi, -p) denote the same line.
    """

    theta: float
    p: float


def disk_density(x1, x2):
    """f0 on the open unit disk, 0 outside (vectorized)."""
    r2 = np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    out = np.zeros_like(np.asarray(r2, dtype=float))
    inside = r2 < 1.0
    out[inside] = 1.0 / (math.pi * np.sqrt(1.0 - r2[inside]))
    return out


def _chebyshev_nodes(nodes: int) -> np.ndarray:
    i = np.arange(1, nodes + 1)
    return np.cos((2 * i - 1) * math.pi / (2 * nodes))


def radon_disk_density(line: LineParam, nodes: int = 64) -> float:
    """Chord integral of f0 over the given line.

    Exactly 1 for |p| < 1 and 0 for |p| > 1; |p| = 1 raises
    :class:`SingularLineError` because the tangent line carries no
    pointwise value.
    """
    p = float(line.p)
    if abs(p) == 1.0:
        raise SingularLineError("the line is tangent to the disk")
    if abs(p) > 1.0:
        return 0.0
    if nodes < 2:
        raise InvalidParameterError("need at least 2 quadrature nodes")
    half_chord = math.sqrt(1.0 - p * p)
    t = _chebyshev_nodes(nodes)
    s = half_chord * t
    c, si = math.cos(line.theta), math.sin(line.theta)
    x1 = p * c - s * si
    x2 = p * si + s * c
    # smooth factor of the integrand against the Chebyshev weight
    smooth = disk_density(x1, x2) * half_chord * np.sqrt(1.0 - t * t)
    return float(math.pi / nodes * smooth.sum())


def disk_sinogram(thetas, ps, nodes: int = 32) -> np.ndarray:
    """Chord integrals on a (theta, p) grid; tangent lines give NaN.

    Vectorized sweep used by the batch front end; values agree with
    :func:`radon_disk_density` on every non-tangent line.
    """
    thetas = np.asarray(thetas, dtype=float)
    ps = np.asarray(ps, dtype=float)
    t = _chebyshev_nodes(nodes)
    out = np.zeros((len(thetas), len(ps)))
    inside = np.abs(ps) < 1.0
    if inside.any():
        p_in = ps[inside]
        half = np.sqrt(1.0 - p_in**2)  # (P,)
        s = half[:, None] * t[None, :]  # (P, n)
        c, si = np.cos(thetas), np.sin(thetas)
        x1 = p_in[None, :, None] * c[:, None, None] - s[None, :, :] * si[:, None, None]
        x2 = p_in[None, :, None] * si[:, None, None] + s[None, :, :] * c[:, None, None]
        smooth = disk_density(x1, x2) * (half[None, :, None] * np.sqrt(1.0 - t * t)[None, None, :])
        out[:, inside] = math.pi / nodes * smooth.sum(axis=2)
    out[:, np.abs(ps) == 1.0] = np.nan
    return out


def tangential_disk_data() -> TangentialData:
    """The tangential distribution delta'(p + 1) - delta'(p - 1) of the disk:
    m = 2 with q_0 = 0 and q_1 = -1."""
    return TangentialData(disk(1), (TrigPoly.constant(0), TrigPoly.constant(-1)))


def second_p_derivative_moments(k: int):
    """k-th p-moment of the second p-derivative of the disk transform.

    Evaluated distributionally through the moment machinery; equals 2k for
    even k.  Odd k is rejected (the distributional value is 0 and asking
    for it is almost always an indexing bug).
    """
    if k < 0 or k % 2 != 0:
        raise InvalidParameterError("moment order must be even and nonnegative")
    values = moment(tangential_disk_data(), k).values
    first = values[0]
    assert all(v == first for v in values)
    return int(first) if getattr(first, "denominator", 1) == 1 else first


def _bump_derivative(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = (35.0 / 32.0) * (-6.0) * u[inside] * (1.0 - u[inside] ** 2) ** 2
    return out


def mollified_moment(k: int, width: float, nodes: int = 48) -> float:
    """k-th moment of the mollified distribution delta'(p+1) - delta'(p-1).

    The convolution with the width-``width`` bump is a classical function,
    integrated here against p^k by Gauss-Legendre.  Converges to the exact
    moment at rate O(width^2), which tests verify on halving sequences.
    """
    if width <= 0:
        raise InvalidParameterError("mollifier width must be positive")
    x, w = np.polynomial.legendre.leggauss(nodes)

    def piece(a: float) -> float:
        # integral of psi_width'(p - a) p^k over [a - width, a + width]
        p = a + width * x
        vals = _bump_derivative((p - a) / width) / width**2 * p**k
        return float(width * (w * vals).sum())

    return piece(-1.0) - piece(1.0)
