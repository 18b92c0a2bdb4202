import math
from fractions import Fraction

import numpy as np
import pytest

from radonrange import CircleFunction, InvalidParameterError, TrigPoly, theta_grid, trig_from_samples
from radonrange.circle import distinct_nodes, fourier_energy, grid_index, normalize_scalar


def test_evaluation_matches_direct_sum():
    poly = TrigPoly((1.0, 0.5, -0.25), (0.0, 2.0, 0.125))
    thetas = np.linspace(0, 2 * math.pi, 17)
    direct = (
        1.0
        + 0.5 * np.cos(thetas)
        - 0.25 * np.cos(2 * thetas)
        + 2.0 * np.sin(thetas)
        + 0.125 * np.sin(2 * thetas)
    )
    assert np.allclose(poly(thetas), direct, atol=1e-14)
    assert poly(0.0) == pytest.approx(1.25)


def test_exact_product_cos_squared():
    # cos(2t)^2 == 1/2 + 1/2 cos(4t)
    c2 = TrigPoly.from_terms(cos={2: 1})
    sq = c2 * c2
    assert sq.cos_coeffs == (Fraction(1, 2), 0, 0, 0, Fraction(1, 2))
    assert all(c == 0 for c in sq.sin_coeffs)
    assert sq.is_exact


def test_product_agrees_with_pointwise_multiplication():
    a = TrigPoly((0.3, 1.2, 0.0, -0.7), (0.0, 0.4, -1.1, 0.2))
    b = TrigPoly((-1.0, 0.5), (0.0, 2.0))
    thetas = theta_grid(32)
    assert np.allclose((a * b)(thetas), a(thetas) * b(thetas), atol=1e-13)
    assert np.allclose((a + b)(thetas), a(thetas) + b(thetas), atol=1e-13)
    assert np.allclose((a - b)(thetas), a(thetas) - b(thetas), atol=1e-13)


def test_from_samples_round_trip():
    poly = TrigPoly((0.5, 0.0, 1.5, 0.25), (0.0, -0.5, 0.0, 1.0))
    fitted = trig_from_samples(poly.samples(64))
    for f in range(4):
        assert fitted.coefficient(f)[0] == pytest.approx(poly.coefficient(f)[0], abs=1e-12)
        assert fitted.coefficient(f)[1] == pytest.approx(poly.coefficient(f)[1], abs=1e-12)
    assert fitted._scale() == pytest.approx(1.5, abs=1e-12)


def test_fourier_energy_localizes():
    thetas = theta_grid(64)
    energy = fourier_energy(3.0 * np.cos(5 * thetas))
    assert energy[5] == pytest.approx(9.0, abs=1e-12)
    assert float(energy.sum() - energy[5]) == pytest.approx(0.0, abs=1e-20)


def test_evenness_flags():
    assert TrigPoly.from_terms(cos={0: 1, 2: Fraction(1, 3)}).is_even()
    assert not TrigPoly.from_terms(cos={1: Fraction(1, 3)}).is_even()
    assert not TrigPoly.from_terms(sin={3: 1e-3}).is_even()


def test_trimmed_drops_padding():
    poly = TrigPoly((1, 0, 2, 0, 0), (0, 0, 0, 0, 0))
    assert poly.trimmed().max_frequency == 2
    assert poly.degree() == 2


def test_grid_index_accepts_nodes_and_rejects_off_grid():
    assert grid_index(0.0, 8) == 0
    assert grid_index(2 * math.pi / 8 * 3, 8) == 3
    assert grid_index(-2 * math.pi / 8, 8) == 7
    with pytest.raises(InvalidParameterError):
        grid_index(0.1, 8)


def test_circle_function_evenness_and_lookup():
    thetas = theta_grid(16)
    even = CircleFunction(np.cos(2 * thetas))
    assert even.is_even()
    odd = CircleFunction(np.cos(thetas))
    assert not odd.is_even()
    assert even.value_at(thetas[5]) == even.values[5]


def test_bad_grid_sizes_rejected():
    with pytest.raises(InvalidParameterError):
        theta_grid(7)
    with pytest.raises(InvalidParameterError):
        TrigPoly((1,), (2,))  # nonzero sin at frequency 0


def test_distinct_nodes_first_index_in_scan_order():
    rho = [Fraction(1), 2, Fraction(1), Fraction(3), Fraction(2), 1]
    q = [5, 5, 5, 5, 5, Fraction(7)]
    representatives, inverse, nodes = distinct_nodes([rho, q])
    assert representatives.tolist() == [0, 1, 3, 5]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 3]
    assert nodes == [((1, 1), (5, 1)), ((2, 1), (5, 1)), ((3, 1), (5, 1)), ((1, 1), (7, 1))]
    values = np.asarray(rho, dtype=object)
    assert list(values[representatives][inverse]) == rho


class TestExactEvenness:
    """An exact column gathered over distinct nodes holds one object at both
    antipodes, which ``is_even`` matches by identity before by value."""

    def test_antipodes_differing_in_one_entry_are_not_even(self):
        half = [Fraction(1, 3), Fraction(2, 5), 7, Fraction(-1, 9)]
        values = np.array(half + half, dtype=object)
        assert CircleFunction(values).is_even()
        values[5] = Fraction(2, 5) + Fraction(1, 10**30)
        assert not CircleFunction(values).is_even()

    def test_equal_values_in_distinct_objects_are_even(self):
        values = np.array([Fraction(1, 3), 2, Fraction(2, 6), Fraction(4, 2)], dtype=object)
        assert values[0] is not values[2]
        assert CircleFunction(values).is_even()

    def test_one_nan_object_at_both_antipodes_is_not_even(self):
        nan = float("nan")
        assert not CircleFunction(np.array([nan, 1, nan, 1], dtype=object)).is_even()


class TestFourierEnergy:
    def test_equals_the_interpolant_energy(self):
        rng = np.random.default_rng(11)
        for n in (4, 6, 64, 1024):
            v = rng.standard_normal(n)
            assert np.array_equal(fourier_energy(v), trig_from_samples(v).energy())
        v = TrigPoly((1.0, 0.0, -0.5), (0.0, 0.25, 2.0)).samples(32)
        assert np.array_equal(fourier_energy(v), trig_from_samples(v).energy())

    def test_rejects_odd_or_short_input(self):
        for v in (np.ones(5), np.ones(2)):
            with pytest.raises(InvalidParameterError):
                fourier_energy(v)


def test_interpolant_holds_plain_floats():
    poly = trig_from_samples(np.cos(3 * theta_grid(16)))
    assert all(type(c) is float for c in poly.cos_coeffs + poly.sin_coeffs)


def test_normalize_scalar_keeps_values_and_plain_types():
    cases = [
        (1.5, 1.5, float),
        (np.float64(0.25), 0.25, float),
        (np.float32(0.5), 0.5, float),
        (3, 3, int),
        (np.int64(-4), -4, int),
        (Fraction(2, 3), Fraction(2, 3), Fraction),
        (True, True, bool),
    ]
    for x, value, kind in cases:
        got = normalize_scalar(x)
        assert got == value and type(got) is kind
