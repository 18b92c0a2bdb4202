"""Range tests: is a circle function the restriction of a homogeneous polynomial?

A function on the unit circle is the restriction of a homogeneous
polynomial of degree k exactly when it is a trigonometric polynomial whose
frequencies all lie in {k, k-2, ..., k mod 2}: on the circle
``cos(f theta)`` and ``sin(f theta)`` are degree-f homogeneous forms in
omega, and multiplying by ``|omega|^2 = 1`` raises the degree by two
without changing the restriction.  :func:`is_homogeneous_restriction` is
the one rule that decides it, in the arithmetic of its input:

* a trigonometric polynomial is read off its coefficients: an exact one
  needs exact zeros at every forbidden frequency, a float one passes when
  the forbidden share of its energy is at most ``tol``;
* float samples are judged the same way on the energy of their FFT
  interpolant;
* exact (rational) samples are decided exactly.  The discrete Fourier
  coefficients c_f of rational samples on n nodes lie in Q(zeta_n), and
  the Galois map zeta -> zeta^a (a prime to n) sends c_f to c_{af}, so
  c_f = 0 iff c_{af} = 0: the nonzero frequencies are a union of the
  orbits {f : gcd(f, n) = n/j}, j dividing n.  With n >= 4k + 4 for
  degree k, every orbit other than {0} and {n/6, 5n/6} holds a frequency
  f with min(f, n - f) > k, which is forbidden.  Constant samples are
  therefore judged as the exact constant, and non-constant ones fail,
  unless 6 divides n and n/6 is an allowed frequency (cos 2 theta on 12
  nodes is rational): membership is then not decided, and the test raises
  :class:`~radonrange.errors.InvalidParameterError`.  On power-of-two
  grids it never does.

Energies and the residual spectrum are float data in every case; for
exact input they report, but do not decide, the verdict.

A tangential distribution is in the Radon transform range precisely when
every even moment passes this test at the matching degree;
:func:`range_check` runs that battery through a chosen maximal order, on
moments that one :func:`~radonrange.moments.even_moments` call samples
for all orders at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import DEFAULT_TOL, CircleFunction, TrigPoly, fourier_energy, trig_from_samples
from .errors import InvalidParameterError
from .geometry import TangentialData
from .moments import even_moments

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
    :class:`TrigPoly`, and is judged in its own arithmetic (see the module
    docstring): a trigonometric polynomial on its coefficients, float
    samples on the energy of their interpolant, and exact samples exactly.
    Samples need at least ``4 * degree + 4`` entries so the decisive
    frequencies are resolved.  Raises :class:`InvalidParameterError` for
    non-constant exact samples when ``n / 6`` is an allowed frequency.
    """
    if degree < 0:
        raise InvalidParameterError("degree must be nonnegative")
    if isinstance(h, CircleFunction):
        h = h.poly if h.poly is not None and h.poly.is_exact else h.values
    rational_samples = False  # exact, non-constant samples
    if not isinstance(h, TrigPoly):
        samples = np.asarray(h)
        if samples.ndim != 1:
            raise InvalidParameterError("samples must be one-dimensional")
        n = len(samples)
        if n < 4 * degree + 4:
            raise InvalidParameterError(
                f"need at least {4 * degree + 4} samples for degree {degree}, got {n}"
            )
        if samples.dtype == object:
            h = trig_from_samples(samples)  # exact iff the samples are constant
            rational_samples = not h.is_exact
            if rational_samples and n % 6 == 0 and n // 6 in allowed_frequencies(degree):
                raise InvalidParameterError(
                    f"exact samples on {n} nodes can carry the allowed frequency {n // 6}; "
                    f"membership at degree {degree} is not decided"
                )
    energy = h.energy() if isinstance(h, TrigPoly) else fourier_energy(samples)
    freqs = np.arange(len(energy))
    mask = (freqs <= degree) & (freqs % 2 == degree % 2)  # allowed_frequencies(degree)
    allowed_energy = float(energy[mask].sum())
    forbidden_energy = float(energy[~mask].sum())
    total = allowed_energy + forbidden_energy
    if rational_samples:
        verdict = False
    elif isinstance(h, TrigPoly) and h.is_exact:
        verdict = all(
            h.cos_coeffs[f] == 0 and h.sin_coeffs[f] == 0 for f in freqs[~mask].tolist()
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
