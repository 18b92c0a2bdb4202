import math
from fractions import Fraction

import numpy as np
import pytest

from radonrange import (
    HypothesisViolatedError,
    InternalConsistencyError,
    InvalidParameterError,
    SupportFunction,
    TangentialData,
    TrigPoly,
    coefficient_matrix,
    conjugated_shift,
    difference_residual,
    disk,
    hankel_certificate,
    identity_suite,
    krylov_spans,
    make_ellipse,
    moment,
    moment_oracle,
    nilpotent_part,
    perturb,
    recurrence_coeffs,
    recurrence_residual,
    shift_matrix,
    synthesize_moments,
    tangential_disk_data,
    theta_grid,
)
from radonrange import algebra, exactla, moments
from radonrange.algebra import (
    binomial_poly_coeffs,
    krylov_matrix,
    recurrence_poly_coeffs,
)
from tests.conftest import mirrored, random_exact_data, random_fraction, smooth_densities


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

    def test_exact_maximum_stays_exact(self):
        # det scales as rho^(m(m-1)) = 10^1200: it has no float value
        cert = hankel_certificate(TangentialData(disk(10**200), (1, 2, 3)), n=8)
        assert cert.verdict
        assert cert.max_abs_determinant == -cert.determinants[0] > 10**1200
        assert cert.to_dict()["max_abs_determinant"] == str(cert.max_abs_determinant)

    def test_corner_identity_m2(self):
        # N Q = (2 rho) 1! q_1 e_1 at rho = 1, q = (0, -1)
        n = nilpotent_part(2, Fraction(1))
        q = np.asarray([Fraction(0), Fraction(-1)], dtype=object)
        assert list(n @ q) == [-2, 0]

    def test_random_exact_corpus(self, rng):
        for _ in range(5):
            data = random_exact_data(rng, n=8, m_max=3)
            cert = hankel_certificate(data)
            assert cert.verdict

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
        """Per-node determinants of the Hankel matrices of float moments."""
        m = data.m
        p = [np.asarray(moment(data, 2 * t, n).values, float) for t in range(2 * m - 1)]
        return [float(np.linalg.det(np.asarray([[p[t + u][i] for u in range(m)]
                                                 for t in range(m)])))
                for i in range(n)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_matches_the_per_node_reference(self, m, eps, rng):
        body = make_ellipse(1.6, 1.0, rng.uniform(0.0, math.pi))
        if eps:
            body = perturb(body, eps, 4)
        data = TangentialData(body, smooth_densities(rng, m))
        cert = hankel_certificate(data, n=64)
        dets = self._reference(data, 64)
        assert not cert.exact
        assert cert.verdict
        got = np.asarray(cert.determinants)
        assert np.all(np.abs(got - dets) <= 1e-12 * np.abs(dets))
        assert cert.max_abs_determinant == max(abs(d) for d in cert.determinants)

    @pytest.mark.parametrize("m, a, ratio", [
        (3, 1e-3, 1), (4, 1e-3, 1), (4, 1e-3, 10), (5, 1e-3, 1), (5, 1e-3, 10),
        (4, 10, 10), (5, 10, 10),
    ])
    def test_small_and_large_ellipses_certify(self, m, a, ratio):
        # det scales as rho^(m(m-1)), so no absolute threshold on it can hold
        # for every size, and a per-node inv(B) S B loses accuracy as rho grows
        densities = tuple(TrigPoly.from_terms(cos={0: 1 + 0.1 * j, 2: 0.2}) for j in range(m))
        data = TangentialData(make_ellipse(ratio * a, a, 0.3), densities)
        cert = hankel_certificate(data, n=1024)
        assert cert.verdict

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


# det A_0 = c_m rho^(m(m-1)) q_{m-1}^m with raw (weight-2) moments
HANKEL_CONSTANTS = {1: 2, 2: -2**4, 3: -2**12, 4: 2**20 * 3**4, 5: 2**40 * 3**5}


class TestExactHankelOnDistinctNodes:
    def test_determinants_equal_the_per_node_reference(self, rng):
        n = 16
        # few distinct values, so most nodes repeat an earlier one
        pool = [Fraction(1), Fraction(3, 2), Fraction(2)]
        thetas = theta_grid(n)
        for m in range(1, 6):
            rho_s = mirrored([rng.choice(pool) for _ in range(n // 2)])
            densities = tuple(mirrored([rng.choice(pool) * (-1) ** j for _ in range(n // 2)])
                              for j in range(m))
            data = TangentialData(SupportFunction.from_samples(rho_s), densities)
            cert = hankel_certificate(data, n)
            for i in range(n):
                hankel = [[moment_oracle(data, 2 * (t + u), float(thetas[i])) for u in range(m)]
                          for t in range(m)]
                assert cert.determinants[i] == exactla.det(exactla.fraction_matrix(hankel))
                closed = HANKEL_CONSTANTS[m] * rho_s[i] ** (m * (m - 1)) * densities[-1][i] ** m
                assert cert.determinants[i] == closed, (m, i)
            assert cert.verdict

    def test_nodes_with_different_denominators(self, rng):
        # each node's Hankel matrix is brought to integers over its own lcm;
        # the determinants must equal Fraction elimination at every node
        n = 16
        thetas = theta_grid(n)
        for m in range(1, 5):
            def value(lo):
                return Fraction(rng.randint(lo, 99) or 1, rng.randint(1, 10**6))

            rho_s = mirrored([value(1) for _ in range(n // 2)])
            densities = tuple(mirrored([value(-99) for _ in range(n // 2)]) for _ in range(m))
            data = TangentialData(SupportFunction.from_samples(rho_s), densities)
            cert = hankel_certificate(data, n)
            want = []
            for i in range(n):
                hankel = [[moment_oracle(data, 2 * (t + u), float(thetas[i])) for u in range(m)]
                          for t in range(m)]
                want.append(exactla.det(exactla.fraction_matrix(hankel)))
            assert cert.determinants == tuple(want), m
            assert all(type(d) is Fraction for d in cert.determinants)
            assert cert.max_abs_determinant == max(abs(d) for d in want)

    def test_closed_form_determinant_in_q_of_rho(self):
        sympy = pytest.importorskip("sympy")
        rho = sympy.Symbol("rho", nonzero=True)
        for m in range(1, 5):  # m = 5 is correct too, but takes tens of seconds
            q = sympy.symbols(f"q0:{m}")
            p = [2 * sum(sympy.ff(k, j) * (-1) ** j * rho ** (k - j) * q[j]
                         for j in range(min(m, k + 1)))
                 for k in range(0, 4 * m - 3, 2)]
            hankel = sympy.Matrix(m, m, lambda t, u: p[t + u])
            closed = HANKEL_CONSTANTS[m] * rho ** (m * (m - 1)) * q[m - 1] ** m
            assert sympy.expand(hankel.det() - closed) == 0, m


class TestHankelMomentsFromOneKernelCall:
    """``hankel_certificate`` takes p_0 .. p_{4m-4} from one ``even_moments``
    call; its determinants must equal those of moments computed order by order."""

    @staticmethod
    def _reference(data, n):
        m = data.m
        p_arrays = [moment(data, 2 * t, n).values for t in range(2 * m - 1)]
        if data.is_exact:
            return tuple(exactla.det(exactla.fraction_matrix(
                [[p_arrays[t + u][i] for u in range(m)] for t in range(m)])) for i in range(n))
        p = np.stack([np.asarray(v, dtype=float) for v in p_arrays], axis=-1)
        return tuple(float(np.linalg.det(np.stack([p[i, t : t + m] for t in range(m)])))
                     for i in range(n))

    def _bodies(self, rng):
        for m in (1, 2, 3, 4):
            tilted = make_ellipse(1.7, 1.0, rng.uniform(0.0, math.pi))
            yield TangentialData(tilted, smooth_densities(rng, m)), 64
            yield TangentialData(perturb(tilted, 0.03, 6), smooth_densities(rng, m)), 64
        yield TangentialData(disk(Fraction(3, 2)), (Fraction(1, 2), Fraction(-1, 3), 2)), 16
        for m in (1, 2, 3):
            yield random_exact_data(rng, n=16, m=m), 16

    def test_determinants_and_structure_equal_the_per_order_reference(self, rng):
        for data, n in self._bodies(rng):
            cert = hankel_certificate(data, n)
            determinants = self._reference(data, n)
            assert cert.verdict
            if data.is_exact:
                assert cert.determinants == determinants
            else:
                assert np.array_equal(cert.determinants, determinants)


ROW_NAMES = [
    "difference-identities", "recurrence-binomial", "companion-determinant",
    "companion-charpoly", "companion-nilpotency", "conjugation-structure",
    "krylov-agreement", "hankel-shift", "hankel-certificate-disk",
]


@pytest.fixture
def fresh_pattern():
    """The per-m pattern cache, cleared before and after the test."""
    algebra._shift_pattern.cache_clear()
    yield
    algebra._shift_pattern.cache_clear()


class TestProvenConjugation:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_the_inverse_reference(self, m):
        for rho in (Fraction(3, 2), Fraction(-7, 5), Fraction(2), Fraction(-1, 3), 1):
            b = coefficient_matrix(m, rho)
            s = shift_matrix(m, Fraction(rho) ** 2)
            reference = exactla.matmul(exactla.matmul(exactla.inv(b), s), b)
            assert np.array_equal(conjugated_shift(m, rho), reference), rho

    def test_zero_rho_rejected(self):
        for rho in (0, Fraction(0)):
            with pytest.raises(InvalidParameterError):
                conjugated_shift(3, rho)
            with pytest.raises(InvalidParameterError):
                nilpotent_part(2, rho)

    def test_inverse_taken_once_per_m(self, monkeypatch, fresh_pattern):
        calls = []
        real = exactla.inv
        monkeypatch.setattr(exactla, "inv", lambda a: calls.append(len(a)) or real(a))
        assert all(ok for _, ok, _ in identity_suite(m_max=6))
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]
        calls.clear()
        assert all(ok for _, ok, _ in identity_suite(m_max=6))
        assert calls == []

    def test_pattern_and_nilpotent_power_in_q_of_rho(self):
        sympy = pytest.importorskip("sympy")
        rho = sympy.Symbol("rho", nonzero=True)
        for m in range(1, 7):
            b = sympy.Matrix(m, m, lambda k, j: sympy.ff(2 * k, j) * rho ** (2 * k - j))
            s = sympy.zeros(m, m)
            for i in range(m - 1):
                s[i, i + 1] = 1
            for k in range(m):
                s[m - 1, k] = -sympy.binomial(m, k) * (-rho**2) ** (m - k)
            t = sympy.Matrix(m, m, lambda i, j: int(algebra._shift_pattern(m)[i, j]))
            closed = sympy.Matrix(
                m, m, lambda i, j: {0: 1, 1: 2 * (i + 1), 2: (i + 1) * (i + 2)}.get(j - i, 0))
            assert t == closed
            conj = sympy.Matrix(m, m, lambda i, j: t[i, j] * rho ** (2 + i - j))
            assert sympy.expand(b.det()) != 0
            assert sympy.expand(b * conj - s * b) == sympy.zeros(m, m)
            corner = sympy.zeros(m, m)
            corner[0, m - 1] = (2 * rho) ** (m - 1) * sympy.factorial(m - 1)
            assert sympy.expand((conj - rho**2 * sympy.eye(m)) ** (m - 1)) == corner


def _patched(monkeypatch, owner, name, edit):
    real = getattr(owner, name)

    def wrong(m, x):
        return edit(real(m, x), m, x)

    monkeypatch.setattr(owner, name, wrong)


def _scale_last_diagonal(out, m, rho2):
    out[..., m - 1, m - 1] = out[..., m - 1, m - 1] * rho2  # right at rho = 1 only
    return out


def _negate_last_row(out, m, rho2):
    out[..., m - 1, :] = -out[..., m - 1, :]
    return out


def _drop_a_power(out, m, rho):
    if m > 1:
        out[..., 1, 1] = 2  # 2 rho -> 2: right at rho = 1 only
    return out


def _double_a_corner(out, m, rho):
    if m > 1:
        out[..., m - 1, 0] = 2 * out[..., m - 1, 0]
    return out


SHIFT_ROWS = {
    "companion-determinant", "companion-charpoly", "companion-nilpotency",
    "conjugation-structure", "krylov-agreement", "hankel-shift", "hankel-certificate-disk",
}
COEFFICIENT_ROWS = {"conjugation-structure", "krylov-agreement", "hankel-certificate-disk"}

MUTATIONS = {
    "shift exponent": ("shift_matrix", _scale_last_diagonal, SHIFT_ROWS),
    "shift sign": ("shift_matrix", _negate_last_row, SHIFT_ROWS),
    "coefficient exponent": ("coefficient_matrix", _drop_a_power, COEFFICIENT_ROWS),
    "coefficient entry": ("coefficient_matrix", _double_a_corner, COEFFICIENT_ROWS),
}


def _failed_rows():
    return {name for name, ok, _ in identity_suite(m_max=4, r_max=4) if not ok}


class TestMutations:
    """A wrong companion or coefficient matrix fails exactly the rows that
    rest on it, also when it is right at rho = 1, and fails the Hankel
    certificate in both arithmetics; every row fails under some mutation."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_affected_rows_fail(self, mutation, monkeypatch, fresh_pattern):
        name, edit, rows = MUTATIONS[mutation]
        _patched(monkeypatch, algebra, name, edit)
        assert _failed_rows() == rows
        float_body = TangentialData(make_ellipse(2.0, 1.0, 0.3), (1.0, 0.5))
        for data in (tangential_disk_data(), float_body):
            with pytest.raises(InternalConsistencyError):
                hankel_certificate(data, n=16)

    def test_wrong_recurrence_fails_its_row(self, monkeypatch, fresh_pattern):
        real = algebra.recurrence_coeffs
        monkeypatch.setattr(algebra, "recurrence_coeffs",
                            lambda m, rho2: [2 * r for r in real(m, rho2)])
        assert {"recurrence-binomial", *SHIFT_ROWS} == _failed_rows()

    def test_wrong_falling_factorial_fails_the_differences(self, monkeypatch, fresh_pattern):
        real = moments.falling_factorial
        monkeypatch.setattr(moments, "falling_factorial",
                            lambda k, j: real(k, j) + ((k, j) == (6, 2)))
        assert "difference-identities" in _failed_rows()

    def test_every_row_has_a_failing_mutation(self):
        covered = {"recurrence-binomial", "difference-identities"}
        for _, _, rows in MUTATIONS.values():
            covered |= rows
        assert covered == set(ROW_NAMES)
        assert [name for name, _, _ in identity_suite(m_max=2, r_max=2)] == ROW_NAMES
