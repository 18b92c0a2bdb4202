import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonrange import (
    InvalidParameterError,
    SupportFunction,
    TangentialData,
    TrigPoly,
    disk,
    is_homogeneous_restriction,
    make_ellipse,
    moment,
    perturb,
    range_check,
    theta_grid,
)
from radonrange.circle import fourier_energy
from radonrange.rangetest import allowed_frequencies
from tests.conftest import GRIDS_PRIME_TO_6, near_constant_fractions, random_exact_data


def _sample_homogeneous(rng, degree, n):
    """Random degree-homogeneous polynomial in omega, sampled on the grid."""
    thetas = theta_grid(n)
    c, s = np.cos(thetas), np.sin(thetas)
    values = np.zeros(n)
    for i in range(degree + 1):
        values += rng.uniform(-1, 1) * c**i * s ** (degree - i)
    return values


class TestMembership:
    def test_constant_is_degree_four(self):
        report = is_homogeneous_restriction(np.full(64, 7.0), 4)
        assert report.verdict
        assert report.forbidden_energy == pytest.approx(0.0, abs=1e-20)

    def test_cos2_is_degree_two(self):
        thetas = theta_grid(64)
        report = is_homogeneous_restriction(np.cos(2 * thetas), 2)
        assert report.verdict
        # cross-check the underlying identity cos(2t) = w1^2 - w2^2 pointwise
        assert np.allclose(np.cos(2 * thetas), np.cos(thetas) ** 2 - np.sin(thetas) ** 2)

    def test_cos4_fails_degree_two(self):
        thetas = theta_grid(64)
        report = is_homogeneous_restriction(np.cos(4 * thetas), 2)
        assert not report.verdict
        assert report.forbidden_energy == pytest.approx(report.total_energy, rel=1e-12)
        assert 4 in report.residual_spectrum

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InvalidParameterError):
            is_homogeneous_restriction(np.zeros(8), 2)

    def test_allowed_set_has_matching_parity(self):
        assert allowed_frequencies(4) == {0, 2, 4}
        assert allowed_frequencies(5) == {1, 3, 5}
        assert allowed_frequencies(0) == {0}

    def test_exact_polynomials_need_exact_zeros(self):
        clean = TrigPoly.from_terms(cos={0: Fraction(1), 2: Fraction(1, 3)})
        assert is_homogeneous_restriction(clean, 2).verdict
        dirty = TrigPoly.from_terms(cos={0: Fraction(1), 4: Fraction(1, 10**12)})
        assert not is_homogeneous_restriction(dirty, 2).verdict

    def test_parity_soundness_on_random_homogeneous_polynomials(self):
        rng = random.Random(101)
        for degree in range(7):
            for _ in range(5):
                values = _sample_homogeneous(rng, degree, 128)
                report = is_homogeneous_restriction(values, degree)
                assert report.verdict
                assert report.forbidden_energy <= 1e-12 * max(report.total_energy, 1e-30)

    def test_completeness_against_contaminations(self):
        rng = random.Random(55)
        thetas = theta_grid(128)
        for degree, bad_freq in ((2, 3), (2, 4), (4, 6), (3, 2), (5, 8)):
            base = _sample_homogeneous(rng, degree, 128)
            contaminated = base + 0.01 * np.cos(bad_freq * thetas)
            assert not is_homogeneous_restriction(contaminated, degree).verdict

    def test_monotonicity_in_degree(self):
        rng = random.Random(77)
        for degree in range(5):
            values = _sample_homogeneous(rng, degree, 128)
            if is_homogeneous_restriction(values, degree).verdict:
                assert is_homogeneous_restriction(values, degree + 2).verdict

    def test_zero_function_passes(self):
        assert is_homogeneous_restriction(np.zeros(32), 2).verdict

    def test_float_polynomial_is_judged_on_its_coefficients(self):
        h = TrigPoly.from_terms(cos={0: 1.0, 2: 0.5, 3: 0.25}, sin={5: 0.125})
        report = is_homogeneous_restriction(h, 2)
        assert (report.allowed_energy, report.forbidden_energy) == (1.25, 0.078125)
        assert report.residual_spectrum == {3: 0.25, 5: 0.125}
        assert not report.verdict


def _exact(values):
    return np.array([Fraction(v) for v in values], dtype=object)


class TestExactSamples:
    """Exact samples are decided by the orbit argument of the module
    docstring, never by a float energy."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pass_iff_constant_and_degree_even(self, data):
        n = data.draw(st.sampled_from(GRIDS_PRIME_TO_6))
        values = data.draw(near_constant_fractions(n))
        degree = data.draw(st.integers(0, (n - 4) // 4))
        report = is_homogeneous_restriction(_exact(values), degree)
        assert report.verdict == (len(set(values)) == 1 and degree % 2 == 0)

    def test_a_rational_frequency_n_over_6_is_refused(self):
        cos2 = _exact(["1", "1/2", "-1/2", "-1", "-1/2", "1/2"] * 2)  # cos 2 theta, n = 12
        with pytest.raises(InvalidParameterError, match="allowed frequency 2"):
            is_homogeneous_restriction(cos2, 2)
        assert not is_homogeneous_restriction(cos2, 1).verdict  # 2 is not allowed at degree 1
        constant = _exact(["7/3"] * 12)
        assert is_homogeneous_restriction(constant, 2).verdict
        assert not is_homogeneous_restriction(constant, 1).verdict


class TestRangeCheck:
    def test_ellipse_data_pass_all_orders(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        reports = range_check(data, 6)
        assert len(reports) == 7
        assert all(r.verdict for r in reports)

    def test_perturbed_disk_fails_at_first_nontrivial_order(self):
        data = TangentialData(perturb(disk(1), 0.05, 4), (1,))
        reports = range_check(data, 6)
        assert reports[0].verdict  # p_0 = 2 is a constant
        assert not reports[1].verdict  # p_2 = 2 rho^2 carries frequency 4
        assert reports[1].residual_spectrum.get(4, 0.0) > 0.0

    def test_disk_derivative_data_pass(self):
        data = TangentialData(disk(1), (0, -1))
        reports = range_check(data, 6)
        assert all(r.verdict for r in reports)

    def test_report_serialization(self):
        data = TangentialData(disk(1), (1,))
        payload = range_check(data, 2)[1].to_dict()
        assert payload["verdict"] == "pass"
        assert payload["degree"] == 2
        assert isinstance(payload["residual_spectrum"], dict)


def _reference_spectrum(energy, degree, forbidden_energy):
    """The loudest forbidden frequencies, by a Python sort on (-magnitude, f)."""
    allowed = allowed_frequencies(degree)
    loud = sorted(
        (
            (f, float(np.sqrt(energy[f])))
            for f in range(len(energy))
            if f not in allowed and energy[f] > 0.0
        ),
        key=lambda fe: (-fe[1], fe[0]),
    )
    cutoff = 1e-6 * forbidden_energy
    return [(f, mag) for f, mag in loud[:16] if mag * mag >= cutoff]


class TestResidualSpectrum:
    def test_random_samples_match_the_sorted_reference(self):
        rng = np.random.default_rng(3)
        for degree in (0, 3, 8, 20):
            samples = rng.standard_normal(128)
            report = is_homogeneous_restriction(samples, degree)
            ref = _reference_spectrum(fourier_energy(samples), degree, report.forbidden_energy)
            assert list(report.residual_spectrum.items()) == ref
            assert len(ref) == 16  # the cap binds

    def test_equal_magnitudes_order_by_frequency(self):
        h = TrigPoly.from_terms(
            cos={0: 1, 1: 1, 3: Fraction(3, 5), 5: 1, 7: Fraction(1, 10**4)},
            sin={3: Fraction(4, 5), 9: -1},
        )
        report = is_homogeneous_restriction(h, 2)
        assert list(report.residual_spectrum) == [1, 3, 5, 9]  # 7 is below the cutoff
        ref = _reference_spectrum(h.energy(), 2, report.forbidden_energy)
        assert list(report.residual_spectrum.items()) == ref
        assert not report.verdict


class TestRangeCheckMatchesPerOrderLoop:
    """``range_check`` samples rho once for all orders; its reports must equal
    a loop that computes each moment on its own."""

    @staticmethod
    def _reference(data, max_half_order, tol, n):
        return [
            is_homogeneous_restriction(moment(data, 2 * k, n), 2 * k, tol)
            for k in range(max_half_order + 1)
        ]

    def _bodies(self):
        q1 = TrigPoly.from_terms(cos={0: 0.8, 2: 0.1}, sin={2: -0.05})
        exact_trig = SupportFunction.from_rho2_poly(
            TrigPoly.from_terms(cos={0: Fraction(5, 2), 2: Fraction(1, 2)}, sin={2: Fraction(1, 3)})
        )
        perturbed = perturb(make_ellipse(2, 1, 0.3), 0.05, 6)
        exact_disk = disk(Fraction(3, 2))
        return [
            ("float tilted ellipse", TangentialData(make_ellipse(2.5, 1.0, 0.7), (1.0, q1)), 128),
            ("perturbed ellipse", TangentialData(perturbed, (1,)), 128),
            ("exact disk", TangentialData(exact_disk, (Fraction(1, 3), Fraction(2, 5))), 64),
            ("exact trig body", TangentialData(exact_trig, (Fraction(2, 3),)), 64),
            ("exact sampled body", random_exact_data(random.Random(5), n=32, m=3), 32),
        ]

    @pytest.mark.parametrize("tol", [1e-8, 1e-3])
    def test_reports_equal_the_per_order_reference(self, tol):
        for name, data, n in self._bodies():
            max_half_order = (n - 4) // 8  # degree 2K needs 8K + 4 samples
            got = range_check(data, max_half_order, tol, n)
            assert got == self._reference(data, max_half_order, tol, n), name

    def test_default_grid_is_the_natural_one(self):
        data = random_exact_data(random.Random(6), n=32, m=2)
        assert range_check(data, 3) == self._reference(data, 3, 1e-8, 32)
