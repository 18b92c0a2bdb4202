"""Shared corpus builders for the test suite."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from radonrange import SupportFunction, TangentialData, TrigPoly, make_ellipse


def mirrored(half_values):
    """Even samples: duplicate the half-grid values on the antipodal half."""
    out = np.empty(2 * len(half_values), dtype=object)
    out[: len(half_values)] = list(half_values)
    out[len(half_values):] = list(half_values)
    return out


def random_fraction(rng, lo=-6, hi=6, positive=False):
    num = rng.randint(1 if positive else lo, hi)
    while num == 0:
        num = rng.randint(1 if positive else lo, hi)
    return Fraction(num, rng.randint(1, 6))


def random_exact_data(rng, n=8, m=None, m_max=4):
    """Tangential data with random positive rational rho and rational densities
    on an n-point grid (exact arithmetic path)."""
    if m is None:
        m = rng.randint(1, m_max)
    rho = SupportFunction.from_samples(
        mirrored([random_fraction(rng, positive=True) + 1 for _ in range(n // 2)])
    )
    densities = []
    for j in range(m):
        densities.append(mirrored([random_fraction(rng) for _ in range(n // 2)]))
    # keep the hypothesis of the certificate: top density nonzero somewhere
    if all(x == 0 for x in densities[-1]):
        densities[-1][0] = densities[-1][n // 2] = Fraction(1)
    return TangentialData(rho, tuple(densities))


#: even grid sizes up to 64 that resolve degree 2 (n >= 12) and that 6 does
#: not divide, so exact samples on them always have a decided membership
GRIDS_PRIME_TO_6 = [n for n in range(12, 65, 2) if n % 6]


@st.composite
def near_constant_fractions(draw, length):
    """``length`` positive rationals: one value, with up to three entries
    moved by p / 10^k (k <= 9), so constant, nearly constant and clearly
    non-constant lists all occur."""
    base = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    values = [base] * length
    for i in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        values[i] += Fraction(draw(st.integers(1, 9)), 10 ** draw(st.integers(0, 9)))
    return values


def random_ellipse(rng):
    """Ellipse with axis ratio in [1/3, 3] and a random tilt."""
    b = rng.uniform(0.5, 2.0)
    ratio = math.exp(rng.uniform(-math.log(3.0), math.log(3.0)))
    return make_ellipse(b * ratio, b, rng.uniform(0.0, math.pi))


def smooth_densities(rng, m, margin=0.5):
    """Even trig-polynomial densities with q_{m-1} bounded away from zero."""
    out = []
    for j in range(m):
        const = rng.uniform(margin + 0.5, margin + 1.5) * rng.choice([-1.0, 1.0])
        wiggle = {2: rng.uniform(-0.2, 0.2) * margin, 4: rng.uniform(-0.2, 0.2) * margin}
        out.append(TrigPoly.from_terms(cos={0: const, **wiggle}))
    return tuple(out)


@pytest.fixture
def rng():
    return random.Random(20250810)
