import math
from fractions import Fraction

import numpy as np
import pytest

from radonrange import (
    CertificateError,
    HypothesisViolatedError,
    InvalidParameterError,
    PositivityError,
    SupportFunction,
    TangentialData,
    TrigPoly,
    disk,
    evenness_defect,
    fit_quadratic_form,
    make_ellipse,
    perturb,
    theta_grid,
)
from tests.conftest import mirrored


class TestMakeEllipse:
    def test_unit_disk(self):
        body = make_ellipse(1, 1, 0)
        assert (np.asarray(body.matrix) == np.eye(2)).all()
        assert body.rho2_poly.cos_coeffs[0] == 1
        assert body.rho2_poly.degree() == 0
        assert body.rho_at(0.3) == 1

    def test_axis_aligned_expansion(self):
        # omega . diag(4, 1) omega == 5/2 + 3/2 cos(2 theta)
        body = make_ellipse(2, 1, 0)
        assert body.rho2_poly.cos_coeffs == (Fraction(5, 2), 0, Fraction(3, 2))
        for theta, want in ((0.0, 4.0), (math.pi / 4, 2.5), (math.pi / 2, 1.0)):
            omega = np.array([math.cos(theta), math.sin(theta)])
            assert body.rho2_at(theta) == pytest.approx(want, abs=1e-12)
            assert omega @ np.asarray(body.matrix, float) @ omega == pytest.approx(
                want, abs=1e-12
            )

    def test_rotated(self):
        body = make_ellipse(2, 1, math.pi / 2)
        assert body.rho2_at(0.0) == pytest.approx(1.0, abs=1e-12)
        assert body.rho2_at(math.pi / 2) == pytest.approx(4.0, abs=1e-12)

    def test_invalid_axes(self):
        with pytest.raises(InvalidParameterError):
            make_ellipse(0, 1, 0)
        with pytest.raises(InvalidParameterError):
            make_ellipse(1, -2, 0)

    def test_evenness_on_grid(self):
        for body in (make_ellipse(2, 1, 0.4), make_ellipse(3, 1, math.pi / 6), disk(2)):
            assert evenness_defect(body) <= 1e-12


class TestPerturb:
    def test_zero_perturbation_is_identity(self):
        body = perturb(disk(1), 0, 4)
        assert body.rho2_poly.degree() == 0
        assert body.rho2_poly.cos_coeffs[0] == 1

    def test_values(self):
        body = perturb(disk(1), 0.1, 4)
        assert body.rho2_at(0.0) == pytest.approx(1.1, abs=1e-15)
        assert body.rho2_at(math.pi / 8) == pytest.approx(1.0, abs=1e-15)

    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            perturb(disk(1), 2.0, 4)

    def test_frequency_validation(self):
        with pytest.raises(InvalidParameterError):
            perturb(disk(1), 0.1, 3)
        with pytest.raises(InvalidParameterError):
            perturb(disk(1), 0.1, 2)


class TestFitQuadraticForm:
    def test_constant(self):
        m = fit_quadratic_form(TrigPoly.constant(1))
        assert (np.asarray(m) == np.eye(2)).all()

    def test_exact_recovery(self):
        m = fit_quadratic_form(TrigPoly((Fraction(5, 2), 0, Fraction(3, 2)), (0, 0, 0)))
        assert m[0, 0] == 4 and m[1, 1] == 1 and m[0, 1] == 0

    def test_high_frequency_rejected(self):
        assert fit_quadratic_form(TrigPoly.from_terms(cos={0: 1, 4: 0.1})) is None

    def test_not_positive_definite(self):
        with pytest.raises(CertificateError):
            fit_quadratic_form(TrigPoly.from_terms(cos={0: Fraction(1, 10), 2: 1}))

    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("tilt", [0.0, math.pi / 6, math.pi / 4])
    def test_round_trip(self, a, b, tilt):
        body = make_ellipse(a, b, tilt)
        fitted = fit_quadratic_form(body.rho2_poly)
        if body.rho2_poly.is_exact:
            assert (fitted == body.matrix).all()
        else:
            err = np.max(np.abs(np.asarray(fitted, float) - np.asarray(body.matrix, float)))
            assert err <= 1e-10


class TestSampledSupport:
    def test_exact_samples_stay_exact(self):
        body = SupportFunction.from_samples(mirrored([Fraction(1), Fraction(3, 2)]))
        assert body.is_exact
        assert body.rho_samples(4)[1] == Fraction(3, 2)
        assert body.rho2_samples(4)[1] == Fraction(9, 4)

    def test_evenness_defect_of_samples_is_zero(self):
        # samples that pass the evenness check are stored exactly even, so
        # an antipodal mismatch inside the tolerance is gone
        thetas = theta_grid(64)
        rho = np.sqrt(4 * np.cos(thetas) ** 2 + np.sin(thetas) ** 2)
        rho[32:] += 5e-10
        assert evenness_defect(SupportFunction.from_samples(rho)) == 0.0
        exact = SupportFunction.from_samples(mirrored([Fraction(1), Fraction(3, 2)]))
        assert evenness_defect(exact) == 0.0

    def test_positivity_and_evenness_validation(self):
        with pytest.raises(PositivityError):
            SupportFunction.from_samples([1, 1, 0, 1])
        with pytest.raises(InvalidParameterError):
            SupportFunction.from_samples([1, 2, 3, 4])  # not even

    def test_trig_positivity_validation(self):
        with pytest.raises(PositivityError):
            SupportFunction.from_rho2_poly(TrigPoly.from_terms(cos={0: 1, 2: 2}))
        with pytest.raises(InvalidParameterError):
            SupportFunction.from_rho2_poly(TrigPoly.from_terms(cos={0: 2, 1: 1}))

    def test_exact_constant_positivity_by_sign(self):
        # 10**400 has no float value, so sampling it would overflow
        body = disk(10**200)
        assert body.rho2_samples(8)[0] == 10**400
        assert body.rho_samples(8)[0] == 10**200
        for c in (0, Fraction(-1, 3), -(10**400)):
            with pytest.raises(PositivityError):
                SupportFunction.from_rho2_poly(TrigPoly.constant(c))


class TestTangentialData:
    def test_scalar_densities_promoted(self):
        data = TangentialData(disk(1), (1, -2))
        assert isinstance(data.densities[0], TrigPoly)
        assert data.m == 2

    def test_top_density_must_not_vanish(self):
        with pytest.raises(HypothesisViolatedError):
            TangentialData(disk(1), (1, 0))
        # explicit escape hatch for degenerate controls
        data = TangentialData(disk(1), (1, 0), minimal=False)
        assert data.m == 2

    def test_densities_must_be_even(self):
        with pytest.raises(InvalidParameterError):
            TangentialData(disk(1), (TrigPoly.from_terms(sin={1: 1}),))

    def test_sampled_density_grid_must_match(self):
        rho = SupportFunction.from_samples(mirrored([Fraction(1), Fraction(2)]))
        with pytest.raises(InvalidParameterError):
            TangentialData(rho, (mirrored([Fraction(1), Fraction(1), Fraction(1)]),))

    def test_exactness_detection(self):
        exact = TangentialData(disk(1), (1, -1))
        assert exact.is_exact
        inexact = TangentialData(make_ellipse(2, 1, 0), (1,))
        assert not inexact.is_exact  # rho itself is irrational on the grid


class TestStoredExactlyEven:
    """Inputs within the evenness tolerance are stored exactly even."""

    def test_sampled_values_copy_their_first_half(self):
        values = np.array([1.0, 2.0, 3.0, 1.0 + 1e-12, 2.0, 3.0 - 1e-12])
        body = SupportFunction.from_samples(values)
        assert body.values.tolist() == [1.0, 2.0, 3.0] * 2
        assert values[3] == 1.0 + 1e-12  # the caller's array is left alone
        data = TangentialData(body, (values,))
        assert data.densities[0].tolist() == [1.0, 2.0, 3.0] * 2

    def test_float_polys_lose_their_odd_frequencies(self):
        poly = TrigPoly((2.0, 5e-10, 0.5), (0.0, -5e-10, 0.25))
        body = SupportFunction.from_rho2_poly(poly)
        assert body.rho2_poly.cos_coeffs == (2.0, 0.0, 0.5)
        assert body.rho2_poly.sin_coeffs == (0.0, 0.0, 0.25)
        data = TangentialData(body, (poly,))
        assert data.densities[0] == body.rho2_poly


def test_positivity_check_trips_exactly_at_zero_crossing():
    # 1 + cos(2 theta) touches zero: rejected; adding margin passes
    with pytest.raises(PositivityError):
        SupportFunction.from_rho2_poly(TrigPoly.from_terms(cos={0: 1, 2: 1}))
    body = SupportFunction.from_rho2_poly(TrigPoly.from_terms(cos={0: 1.001, 2: 1}))
    assert float(np.min(body.rho2_samples(theta_grid(512).size))) > 0
