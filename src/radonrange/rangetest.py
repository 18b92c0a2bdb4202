"""Range tests: is a circle function the restriction of a homogeneous polynomial?

A function on the unit circle is the restriction of a homogeneous
polynomial of degree k exactly when it is a trigonometric polynomial whose
frequencies all lie in {k, k-2, ..., k mod 2}: on the circle
``cos(f theta)`` and ``sin(f theta)`` are degree-f homogeneous forms in
omega, and multiplying by ``|omega|^2 = 1`` raises the degree by two
without changing the restriction.  Membership is decided by splitting the
Fourier energy of the samples into allowed and forbidden frequencies.

A tangential distribution is in the Radon transform range precisely when
every even moment passes this test at the matching degree;
:func:`range_check` runs that battery through a chosen maximal order, on
moments that one :func:`~radonrange.moments.even_moments` call samples
for all orders at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleFunction, TrigPoly, fourier_energy
from .errors import InvalidParameterError
from .geometry import TangentialData
from .moments import even_moments

#: default relative-energy tolerance for float inputs; exact inputs require
#: exact zeros at forbidden frequencies
DEFAULT_TOL = 1e-8

#: cap on how many forbidden frequencies the report lists
_SPECTRUM_CAP = 16


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of one homogeneous-restriction test.

    ``residual_spectrum`` maps the loudest forbidden frequencies to the
    magnitude sqrt(a_f^2 + b_f^2) found there.  The verdict is *pass* iff
    ``forbidden_energy <= tol * (allowed_energy + forbidden_energy)``.
    """

    degree: int
    tol: float
    allowed_energy: float
    forbidden_energy: float
    verdict: bool
    residual_spectrum: dict

    @property
    def total_energy(self) -> float:
        return self.allowed_energy + self.forbidden_energy

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "tol": self.tol,
            "allowed_energy": self.allowed_energy,
            "forbidden_energy": self.forbidden_energy,
            "verdict": "pass" if self.verdict else "fail",
            "residual_spectrum": {str(f): v for f, v in sorted(self.residual_spectrum.items())},
        }


def allowed_frequencies(degree: int) -> set:
    """Frequencies of restrictions of degree-``degree`` homogeneous polynomials."""
    return set(range(degree % 2, degree + 1, 2))


def is_homogeneous_restriction(h, degree: int, tol: float = DEFAULT_TOL) -> MembershipReport:
    """Test whether ``h`` restricts from a homogeneous polynomial of ``degree``.

    ``h`` may be uniform samples, a :class:`CircleFunction` or a
    :class:`TrigPoly`.  Exact trigonometric polynomials are held to exact
    zeros on forbidden frequencies; sampled input needs at least
    ``4 * degree + 4`` samples so the decisive frequencies are resolved.
    """
    if degree < 0:
        raise InvalidParameterError("degree must be nonnegative")
    exact_poly = None
    if isinstance(h, CircleFunction):
        if h.poly is not None and h.poly.is_exact:
            exact_poly = h.poly
        else:
            h = h.as_float()
    if isinstance(h, TrigPoly):
        if h.is_exact:
            exact_poly = h
        else:
            h = h.samples(max(4 * degree + 4 + (4 * degree + 4) % 2, 2 * h.max_frequency + 2))

    if exact_poly is not None:
        energy = exact_poly.energy()
    else:
        samples = np.asarray(h, dtype=float)
        if samples.ndim != 1:
            raise InvalidParameterError("samples must be one-dimensional")
        if len(samples) < 4 * degree + 4:
            raise InvalidParameterError(
                f"need at least {4 * degree + 4} samples for degree {degree}, got {len(samples)}"
            )
        energy = fourier_energy(samples)
    freqs = np.arange(len(energy))
    mask = (freqs <= degree) & (freqs % 2 == degree % 2)  # allowed_frequencies(degree)
    allowed_energy = float(energy[mask].sum())
    forbidden_energy = float(energy[~mask].sum())
    total = allowed_energy + forbidden_energy
    if exact_poly is not None:
        verdict = all(
            exact_poly.cos_coeffs[f] == 0 and exact_poly.sin_coeffs[f] == 0
            for f in freqs[~mask].tolist()
        )
    else:
        verdict = forbidden_energy <= tol * total
    loud = freqs[~mask]
    loud = loud[energy[loud] > 0.0]
    mags = np.sqrt(energy[loud])
    top = np.lexsort((loud, -mags))[:_SPECTRUM_CAP]  # loudest first, ties by frequency
    cutoff = 1e-6 * forbidden_energy
    spectrum = {f: g for f, g in zip(loud[top].tolist(), mags[top].tolist()) if g * g >= cutoff}
    return MembershipReport(
        degree=degree,
        tol=tol,
        allowed_energy=allowed_energy,
        forbidden_energy=forbidden_energy,
        verdict=bool(verdict),
        residual_spectrum=spectrum,
    )


def range_check(
    data: TangentialData,
    max_half_order: int,
    tol: float = DEFAULT_TOL,
    n: int | None = None,
) -> list[MembershipReport]:
    """Test every even moment p_{2k}, k = 0..max_half_order, at degree 2k.

    The list is the machine form of "the tangential data lie in the Radon
    range up to order 2*max_half_order"; this is necessarily a truncation
    of the full infinite battery.
    """
    if n is None:
        n = data.natural_grid_size
    return membership_battery(even_moments(data, range(0, 2 * max_half_order + 1, 2), n), tol)


def membership_battery(moments, tol: float = DEFAULT_TOL) -> list[MembershipReport]:
    """Test the moments p_0, p_2, p_4, ... (in that order) at degrees 0, 2, 4, ..."""
    return [is_homogeneous_restriction(h, 2 * k, tol) for k, h in enumerate(moments)]
