import math
from fractions import Fraction

import numpy as np
import pytest

from radonrange import (
    HypothesisViolatedError,
    InvalidParameterError,
    SupportFunction,
    TangentialData,
    coefficient_matrix,
    conjugated_shift,
    difference_residual,
    disk,
    hankel_certificate,
    identity_suite,
    krylov_spans,
    make_ellipse,
    moment,
    nilpotent_part,
    perturb,
    recurrence_coeffs,
    recurrence_residual,
    shift_matrix,
    synthesize_moments,
    tangential_disk_data,
)
from radonrange import exactla
from radonrange.algebra import binomial_poly_coeffs, krylov_matrix, recurrence_poly_coeffs
from tests.conftest import random_exact_data, random_fraction, smooth_densities


class TestDifferenceResidual:
    def test_pinned_cases(self):
        assert difference_residual(1, 0, 0) == 0
        assert difference_residual(2, 3, 1) == 0
        assert difference_residual(5, 7, 4) == 0

    def test_exhaustive_small(self):
        for m in range(1, 5):
            for r in range(12):
                for j in range(m):
                    assert difference_residual(m, r, j) == 0

    def test_nonzero_when_degree_reaches_m(self):
        # j = m: the falling factorial has degree m in k, the m-th
        # difference of which is a nonzero constant
        assert difference_residual(2, 0, 2) != 0
        assert difference_residual(3, 1, 3) != 0


class TestRecurrence:
    def test_m3_coefficients(self):
        rho2 = Fraction(1)
        assert recurrence_coeffs(3, rho2) == [1, -3, 3]
        rho2 = Fraction(2)
        assert recurrence_coeffs(3, rho2) == [8, -12, 6]

    def test_m1_and_m4(self):
        rho2 = Fraction(3, 2)
        assert recurrence_coeffs(1, rho2) == [Fraction(3, 2)]
        r = recurrence_coeffs(4, rho2)
        assert r == [
            -rho2**4,
            4 * rho2**3,
            -6 * rho2**2,
            4 * rho2,
        ]

    def test_polynomial_identity(self, rng):
        for m in range(1, 9):
            for _ in range(5):
                rho2 = random_fraction(rng, positive=True)
                assert recurrence_poly_coeffs(m, rho2) == binomial_poly_coeffs(m, rho2)


class TestShiftMatrix:
    def test_structure(self):
        s = shift_matrix(3, Fraction(1))
        assert s[0, 1] == 1 and s[1, 2] == 1 and s[0, 0] == 0
        assert list(s[2]) == [1, -3, 3]

    def test_determinant(self, rng):
        for m in range(1, 7):
            for _ in range(20):
                rho2 = random_fraction(rng, positive=True)
                assert exactla.det(shift_matrix(m, rho2)) == rho2**m

    def test_characteristic_polynomial(self, rng):
        for m in range(1, 6):
            rho2 = random_fraction(rng, positive=True)
            got = exactla.char_poly(shift_matrix(m, rho2))
            want = tuple(math.comb(m, k) * (-rho2) ** k for k in range(m + 1))
            assert got == want

    def test_nilpotency_of_shifted_matrix(self, rng):
        for m in range(1, 7):
            rho2 = random_fraction(rng, positive=True)
            s = shift_matrix(m, rho2)
            for i in range(m):
                s[i, i] = s[i, i] - rho2
            assert exactla.is_zero(exactla.mat_pow(s, m))
            if m > 1:
                assert not exactla.is_zero(exactla.mat_pow(s, m - 1))


class TestCoefficientMatrix:
    def test_m2_at_rho_one(self):
        b = coefficient_matrix(2, Fraction(1))
        assert [list(row) for row in b] == [[1, 0], [1, 2]]

    def test_m1(self):
        assert coefficient_matrix(1, Fraction(5))[0, 0] == 1

    def test_nonsingular(self):
        for m in range(1, 9):
            for rho in (Fraction(1, 2), Fraction(1), Fraction(3)):
                assert exactla.det(coefficient_matrix(m, rho)) != 0

    def test_zero_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            coefficient_matrix(3, 0)


class TestConjugatedShift:
    def test_m5_displayed_entries(self):
        out = conjugated_shift(5, Fraction(1))
        rows = [list(r) for r in out]
        assert rows == [
            [1, 2, 2, 0, 0],
            [0, 1, 4, 6, 0],
            [0, 0, 1, 6, 12],
            [0, 0, 0, 1, 8],
            [0, 0, 0, 0, 1],
        ]

    def test_m5_generic_rho_matches_closed_form(self):
        rho = Fraction(7, 5)
        out = conjugated_shift(5, rho)
        for i in range(5):
            assert out[i, i] == rho * rho
        for i in range(4):
            assert out[i, i + 1] == 2 * rho * (i + 1)
        for i in range(3):
            assert out[i, i + 2] == (i + 1) * (i + 2)

    def test_m1_is_rho_squared(self):
        out = conjugated_shift(1, Fraction(2, 3))
        assert out.shape == (1, 1) and out[0, 0] == Fraction(4, 9)

    def test_m3_rho_two(self):
        out = conjugated_shift(3, Fraction(2))
        assert [out[i, i] for i in range(3)] == [4, 4, 4]
        assert [out[0, 1], out[1, 2]] == [4, 8]
        # independent oracle: conjugation as an exact matrix product
        b = coefficient_matrix(3, Fraction(2))
        s = shift_matrix(3, Fraction(4))
        assert exactla.is_zero(b @ out - s @ b)

    def test_nilpotent_part_has_index_m(self):
        for m in range(2, 7):
            n = nilpotent_part(m, Fraction(3, 2))
            assert exactla.is_zero(exactla.mat_pow(n, m))
            assert not exactla.is_zero(exactla.mat_pow(n, m - 1))


class TestKrylov:
    def test_last_basis_vector_spans(self):
        a = conjugated_shift(3, Fraction(1))
        e3 = np.asarray([Fraction(0), Fraction(0), Fraction(1)], dtype=object)
        assert krylov_spans(a, e3, Fraction(1))

    def test_first_basis_vector_collapses(self):
        a = conjugated_shift(3, Fraction(1))
        e1 = np.asarray([Fraction(1), Fraction(0), Fraction(0)], dtype=object)
        assert not krylov_spans(a, e1, Fraction(1))

    def test_nonzero_last_coordinate_spans(self, rng):
        for _ in range(20):
            m = rng.randint(1, 5)
            rho = random_fraction(rng, positive=True)
            a = conjugated_shift(m, rho)
            z = np.asarray(
                [random_fraction(rng) for _ in range(m - 1)] + [random_fraction(rng, positive=True)],
                dtype=object,
            )
            assert krylov_spans(a, z, rho * rho)
            assert exactla.rank(krylov_matrix(a, z)) == m

    def test_wrong_eigenvalue_rejected(self):
        a = conjugated_shift(2, Fraction(1))
        z = np.asarray([Fraction(1), Fraction(1)], dtype=object)
        with pytest.raises(InvalidParameterError):
            krylov_spans(a, z, Fraction(2))


class TestHankelCertificate:
    def test_disk_determinant_is_minus_sixteen(self):
        cert = hankel_certificate(tangential_disk_data(), n=32)
        assert cert.verdict
        assert all(d == -16 for d in cert.determinants)
        assert cert.to_dict()["verdict"] == "pass"

    def test_corner_identity_m2(self):
        # N Q = (2 rho) 1! q_1 e_1 at rho = 1, q = (0, -1)
        n = nilpotent_part(2, Fraction(1))
        q = np.asarray([Fraction(0), Fraction(-1)], dtype=object)
        assert list(n @ q) == [-2, 0]

    def test_random_exact_corpus(self, rng):
        for _ in range(5):
            data = random_exact_data(rng, n=8, m_max=3)
            cert = hankel_certificate(data)
            assert cert.structure_ok

    def test_vanishing_top_density_rejected(self):
        data = TangentialData(disk(1), (1, 0), minimal=False)
        with pytest.raises(HypothesisViolatedError):
            hankel_certificate(data)

    def test_float_path(self):
        data = TangentialData(make_ellipse(2, 1, 0.3), (1,))
        cert = hankel_certificate(data, n=64)
        assert not cert.exact
        assert cert.verdict
        # m = 1: the Hankel matrix is (p_0) and p_0 = 2 q_0 = 2 everywhere
        assert all(abs(d - 2.0) < 1e-12 for d in cert.determinants)


class TestRecurrenceResidual:
    def test_disk_derivative_data(self):
        data = tangential_disk_data()
        seq = synthesize_moments(data, 8)
        res = recurrence_residual(seq, data.rho, 2, 0, 0.0)
        assert res == 0

    def test_ellipse_off_grid_through_polys(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        seq = synthesize_moments(data, 8)
        res = recurrence_residual(seq, data.rho, 1, 3, math.pi / 3)
        scale = float(abs(seq.eval(4, math.pi / 3)))
        assert abs(res) <= 1e-12 * max(1.0, scale)

    def test_corruption_shows_up_with_binomial_weight(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        seq = synthesize_moments(data, 8)
        corrupted = type(seq)(
            tuple(
                e if k != 2 else type(e)(e.values + 1.0, None)
                for k, e in enumerate(seq.entries)
            ),
            source="external",
        )
        res = recurrence_residual(corrupted, data.rho, 1, 1, 0.0)
        assert res == pytest.approx(-1.0, abs=1e-9)

    def test_missing_orders_rejected(self):
        data = tangential_disk_data()
        seq = synthesize_moments(data, 4)
        with pytest.raises(InvalidParameterError):
            recurrence_residual(seq, data.rho, 2, 3, 0.0)


def test_identity_suite_all_pass():
    results = identity_suite(m_max=4, r_max=10)
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert "difference-identities" in names
    assert "hankel-certificate-disk" in names


class TestBatchedFloatCertificate:
    @staticmethod
    def _reference(data, n):
        """Per-node determinants and structural identity of the float path."""
        m = data.m
        p = [np.asarray(moment(data, 2 * t, n).values, float) for t in range(2 * m - 1)]
        rho_s = np.asarray(data.rho.rho_samples(n), float)
        q = [np.asarray(data.density_samples(j, n), float) for j in range(m)]
        dets, structure_ok = [], True
        for i in range(n):
            dets.append(float(np.linalg.det(
                np.asarray([[p[t + u][i] for u in range(m)] for t in range(m)]))))
            rho = float(rho_s[i])
            s = shift_matrix(m, rho * rho)
            b = coefficient_matrix(m, rho)
            npart = np.linalg.inv(b) @ s @ b - rho * rho * np.eye(m)
            lhs = np.linalg.matrix_power(npart, m - 1) @ np.asarray([qj[i] for qj in q])
            expected = np.zeros(m)
            expected[0] = (2.0 * rho) ** (m - 1) * math.factorial(m - 1) * q[m - 1][i]
            scale = max(1e-30, float(np.max(np.abs(expected))), float(np.max(np.abs(lhs))))
            if float(np.max(np.abs(lhs - expected))) > 1e-9 * scale:
                structure_ok = False
        return dets, structure_ok

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_matches_the_per_node_reference(self, m, eps, rng):
        body = make_ellipse(1.6, 1.0, rng.uniform(0.0, math.pi))
        if eps:
            body = perturb(body, eps, 4)
        data = TangentialData(body, smooth_densities(rng, m))
        cert = hankel_certificate(data, n=64)
        dets, structure_ok = self._reference(data, 64)
        assert not cert.exact
        assert cert.structure_ok == structure_ok
        assert cert.verdict
        got = np.asarray(cert.determinants)
        assert np.all(np.abs(got - dets) <= 1e-12 * np.abs(dets))
        assert cert.max_abs_determinant == max(abs(d) for d in cert.determinants)

    def test_zero_rho_node_is_rejected(self):
        # a sampled support function whose samples were zeroed after validation
        rho = SupportFunction.from_samples(np.full(16, 1.5))
        rho.values[3] = rho.values[11] = 0.0
        data = TangentialData(rho, (1.0, 0.5))
        with pytest.raises(InvalidParameterError, match="rho must be nonzero"):
            hankel_certificate(data)

    def test_stacked_matrices_equal_the_scalar_ones(self):
        rho = np.array([0.5, 1.0, 2.5])
        for m in (1, 3):
            for i, r in enumerate(rho):
                assert np.array_equal(coefficient_matrix(m, rho)[i], coefficient_matrix(m, r))
                assert np.array_equal(shift_matrix(m, rho * rho)[i], shift_matrix(m, r * r))
        with pytest.raises(InvalidParameterError):
            coefficient_matrix(2, np.array([1.0, 0.0]))
