import math
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
    falling_factorial,
    falling_factorial_table,
    hankel_certificate,
    make_ellipse,
    moment,
    moment_oracle,
    perturb,
    range_check,
    synthesize_moments,
)
from radonrange.moments import even_moments, has_exact_form
from tests.conftest import mirrored, random_exact_data


class TestFallingFactorial:
    def test_pinned_values(self):
        assert falling_factorial(2, 1) == 2
        assert falling_factorial(2, 2) == 2
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(2, 3) == 0

    def test_table_invariants(self):
        table = falling_factorial_table(12, 6)
        assert table[0][0] == 1
        for k, row in enumerate(table):
            for j, value in enumerate(row):
                if j > 2 * k:
                    assert value == 0
                else:
                    assert value == math.factorial(2 * k) // math.factorial(2 * k - j)

    def test_polynomial_in_k_for_fixed_j(self):
        # c(k, 2) = k (k - 1) for every k, including k < 2
        assert [falling_factorial(k, 2) for k in range(5)] == [0, 0, 2, 6, 12]


class TestMomentClosedForm:
    def test_disk_zeroth_moment_counts_both_tangents(self):
        data = TangentialData(disk(1), (1,))
        values = moment(data, 0).values
        assert all(v == 2 for v in values)

    def test_disk_derivative_density(self):
        data = TangentialData(disk(1), (0, -1))
        values = moment(data, 2).values
        assert all(v == 4 for v in values)

    def test_ellipse_second_moment_is_twice_rho2(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        result = moment(data, 2)
        assert result.poly is not None
        assert result.poly.cos_coeffs[0] == 5
        assert result.poly.coefficient(2)[0] == 3
        thetas = np.array([0.0, math.pi / 3, 1.0])
        assert np.allclose(result.poly(thetas), 5 + 3 * np.cos(2 * thetas), atol=1e-12)

    def test_odd_moments_vanish(self):
        data = TangentialData(disk(1), (1, 2, -1))
        for k in (1, 3, 7, 11):
            assert all(v == 0 for v in moment(data, k).values)
            assert moment_oracle(data, k, 0.0) == 0


class TestMomentOracle:
    def test_disk_fourth_moment(self):
        data = TangentialData(disk(1), (1,))
        assert moment_oracle(data, 4, 0.0) == 2

    def test_second_derivative_density(self):
        data = TangentialData(disk(1), (0, 0, 1))
        # pairing delta''(p -+ 1) with p^4 gives 12 each
        assert moment_oracle(data, 4, 0.0) == 24

    def test_agrees_with_closed_form_exactly(self, rng):
        thetas_of = lambda n: [2 * math.pi * i / n for i in range(n)]
        for _ in range(10):
            data = random_exact_data(rng, n=8, m_max=3)
            for k in range(0, 13):
                values = moment(data, k).values
                for i, theta in enumerate(thetas_of(8)):
                    assert values[i] == moment_oracle(data, k, theta)

    def test_agrees_on_float_path(self):
        data = TangentialData(
            make_ellipse(2, 1, 0.3),
            (TrigPoly.from_terms(cos={0: 1.0, 2: 0.25}), TrigPoly.constant(0.5)),
        )
        grid = np.arange(8) * (2 * math.pi / 8)
        for k in (0, 2, 6):
            values = moment(data, k, n=8).values
            for i, theta in enumerate(grid):
                assert values[i] == pytest.approx(moment_oracle(data, k, theta), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.fractions(min_value=-3, max_value=3),
    b=st.fractions(min_value=-3, max_value=3),
    k=st.integers(min_value=0, max_value=16),
)
def test_moment_is_linear_in_the_densities(a, b, k):
    rng = random.Random(7)
    base = random_exact_data(rng, n=8, m=2)
    other = random_exact_data(rng, n=8, m=2)
    combined = TangentialData(
        base.rho,
        tuple(
            a * np.asarray(q1, dtype=object) + b * np.asarray(q2, dtype=object)
            for q1, q2 in zip(base.densities, other.densities)
        ),
        minimal=False,
    )
    lhs = moment(combined, k).values
    rhs = a * moment(base, k).values + b * moment(
        TangentialData(base.rho, other.densities), k
    ).values
    assert all(x == y for x, y in zip(lhs, rhs))


def test_moment_grid_defaults_to_natural_size():
    data = TangentialData(disk(1), (mirrored([Fraction(1), Fraction(2)]),))
    assert moment(data, 2).n == 4


def _power(poly, e):
    """``poly ** e`` by repeated multiplication."""
    out = TrigPoly.constant(1)
    for _ in range(e):
        out = out * poly
    return out


def _reference_poly(data, k, weight=2):
    """p_k's trig form term by term, every power of rho by repeated products."""
    rho = data.rho
    poly = TrigPoly.zero()
    for j in range(min(data.m, k + 1)):
        s = k - j
        if s == 0:
            rho_pow = TrigPoly.constant(1)
        elif s % 2 == 0 and rho.rho2_poly is not None:
            rho_pow = _power(rho.rho2_poly, s // 2)
        elif rho.rho_poly is not None:
            rho_pow = _power(rho.rho_poly, s)
        else:
            return None
        q_poly = data.density_poly(j)
        if q_poly is None:
            return None
        poly = poly + (weight * falling_factorial(k, j) * (-1) ** j) * q_poly * rho_pow
    return poly


class TestEvenMomentPolys:
    """``even_moments`` builds each power of rho once; its trig forms must
    equal the ones built power by power, and be absent exactly when an odd
    power of rho has no trig form."""

    ORDERS = list(range(0, 17, 2))

    def _bodies(self):
        q2 = TrigPoly.from_terms(
            cos={0: Fraction(3, 2), 2: Fraction(1, 5)}, sin={2: Fraction(-1, 7)}
        )
        trig = SupportFunction.from_rho2_poly(
            TrigPoly.from_terms(cos={0: Fraction(5, 2), 2: Fraction(1, 2)}, sin={2: Fraction(1, 3)})
        )
        return {
            "disk m=1": TangentialData(disk(Fraction(3, 2)), (Fraction(2, 3),)),
            "disk m=3": TangentialData(disk(2), (1, Fraction(-1, 2), q2)),
            "trig m=1": TangentialData(trig, (q2,)),
            "trig m=2": TangentialData(trig, (1, q2)),
            "trig m=3": TangentialData(trig, (q2, 0, Fraction(1, 4))),
        }

    @pytest.mark.parametrize("weight", [1, 2])
    def test_polys_equal_the_power_by_power_reference(self, weight):
        for name, data in self._bodies().items():
            got = even_moments(data, self.ORDERS, 16, weight=weight)
            for k, p in zip(self.ORDERS, got):
                ref = _reference_poly(data, k, weight)
                assert (p.poly is None) == (ref is None), (name, k)
                if ref is not None:
                    assert p.poly == ref, (name, k)
                    assert p.poly.is_exact

    def test_poly_absent_exactly_when_an_odd_power_has_no_form(self):
        bodies = self._bodies()
        for name in ("trig m=2", "trig m=3"):
            got = even_moments(bodies[name], self.ORDERS, 16)
            assert got[0].poly is not None  # p_0 needs rho^0 only
            assert all(p.poly is None for p in got[1:]), name
        for name in ("disk m=1", "disk m=3", "trig m=1"):
            assert all(p.poly is not None for p in even_moments(bodies[name], self.ORDERS, 16))

    def test_sampled_rho_has_a_form_only_at_order_zero(self):
        rho = SupportFunction.from_samples(mirrored([Fraction(1), Fraction(2)]))
        data = TangentialData(rho, (3,))
        got = even_moments(data, [0, 2, 4], 4)
        assert got[0].poly == TrigPoly.constant(6)
        assert got[1].poly is None and got[2].poly is None

    def test_values_equal_moment_per_order(self, rng):
        bodies = [*self._bodies().values(), random_exact_data(rng, n=8, m=3)]
        bodies.append(TangentialData(make_ellipse(2, 1, 0.4), (1.0, TrigPoly.constant(0.5))))
        for data in bodies:
            n = data.natural_grid_size if data.rho.grid_size else 32
            got = even_moments(data, self.ORDERS, n)
            for k, p in zip(self.ORDERS, got):
                ref = moment(data, k, n)
                assert p.values.dtype == ref.values.dtype
                assert all(x == y for x, y in zip(p.values, ref.values))


class TestBatteryUsesSamples:
    """``has_exact_form`` says, without computing a moment, whether the range
    battery will test p_k on its samples: exactly when ``even_moments`` gives
    p_k no trig form (every form it gives is exact)."""

    def _bodies(self):
        sampled = SupportFunction.from_samples(mirrored([Fraction(1), Fraction(3, 2)]))
        return {
            **TestEvenMomentPolys()._bodies(),
            "int ellipse m=1": TangentialData(make_ellipse(2, 1), (1,)),
            "int ellipse m=2": TangentialData(make_ellipse(2, 1), (1, 1)),
            "tilted ellipse m=1": TangentialData(make_ellipse(2, 1, 0.5), (1,)),
            "float disk m=2": TangentialData(disk(1.5), (1.0, 0.5)),
            "float density": TangentialData(make_ellipse(2, 1), (TrigPoly.constant(0.5),)),
            "sampled m=1": TangentialData(sampled, (1,)),
        }

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_agrees_with_the_computed_forms(self, k):
        for name, data in self._bodies().items():
            n = data.natural_grid_size if data.rho.grid_size else 16
            poly = even_moments(data, [k], n)[0].poly
            uses_samples = not has_exact_form(data, k)
            assert uses_samples == (poly is None), name

    def test_known_bodies(self):
        bodies = self._bodies()
        for name in ("int ellipse m=1", "disk m=3", "trig m=1"):
            assert has_exact_form(bodies[name], 24), name
        for name in ("int ellipse m=2", "tilted ellipse m=1", "float disk m=2", "sampled m=1"):
            assert not has_exact_form(bodies[name], 24), name


class TestFloatBodiesCarryNoForm:
    """A float body's moments are samples alone: moments, the range battery
    and the Hankel certificate form no trig polynomial product for it."""

    def test_no_form_and_no_trig_product(self, monkeypatch):
        bodies = {  # name: (data, whether it lies in the Radon range)
            "tilted ellipse m=1": (TangentialData(make_ellipse(2, 1, 0.3), (1.0,)), True),
            "float disk m=2": (TangentialData(disk(1.5), (1.0, 0.5)), True),
            "perturbed disk m=1": (TangentialData(perturb(disk(1), 0.05, 4), (1.0,)), False),
        }

        def refuse(*args):
            raise AssertionError("a trig polynomial product was formed")

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(TrigPoly, name, refuse)
        for name, (data, in_range) in bodies.items():
            seq = synthesize_moments(data, 3 * data.m - 2, 64)
            assert all(p.poly is None for p in seq.entries), name
            with pytest.raises(InvalidParameterError, match="not a node"):
                seq.eval(1, 0.1)  # off the grid a float moment has no value
            assert all(r.verdict for r in range_check(data, 4, n=64)) == in_range, name
            assert hankel_certificate(data, n=64).verdict, name


class TestFloatOverflow:
    def test_overflowing_moment_names_its_order(self):
        data = TangentialData(SupportFunction.from_rho2_poly(TrigPoly.constant(1e200)), (1.0,))
        with pytest.raises(OverflowError, match=r"moment p_4 is not finite"):
            even_moments(data, [0, 2, 4], 16)

    def test_infinite_axis_is_caught_at_the_first_order_using_rho(self):
        data = TangentialData(make_ellipse(1e200, 1.0), (1.0,))
        assert np.isfinite(even_moments(data, [0], 16)[0].values).all()
        with pytest.raises(OverflowError, match=r"moment p_2 is not finite"):
            even_moments(data, [0, 2], 16)

    def test_exact_moments_never_overflow(self):
        data = TangentialData(disk(10**100), (1,))  # rho^4 = 10^400 is past the float range
        assert even_moments(data, [0, 2, 4], 8)[2].values[0] == 2 * 10**400


# ---------------------------------------------------------------------------
# the exact kernel runs on integers; it must equal Fraction arithmetic
# ---------------------------------------------------------------------------


def _fraction_moments(data, orders, n, weight):
    """Exact samples of each order in ``Fraction`` arithmetic at every node,
    with no distinct-node pass and no common denominator."""
    rho = [Fraction(x) for x in data.rho.rho_samples(n)]
    qs = [[Fraction(x) for x in data.density_samples(j, n)] for j in range(data.m)]
    return [[sum(weight * falling_factorial(k, j) * (-1) ** j * q[i] * rho[i] ** (k - j)
                 for j, q in enumerate(qs[: k + 1])) for i in range(n)] for k in orders]


def _sampled(rng, n, m, den_max):
    """Exact sampled body whose nodes carry unrelated denominators up to
    ``den_max``, with densities of both signs."""
    def value(lo):
        return Fraction(rng.randint(lo, 99) or 1, rng.randint(1, den_max))

    rho = mirrored([value(1) for _ in range(n // 2)])
    densities = tuple(mirrored([value(-99) for _ in range(n // 2)]) for _ in range(m))
    return TangentialData(SupportFunction.from_samples(rho), densities)


class TestExactColumnsOnIntegers:
    ORDERS = list(range(0, 25, 2))

    def _bodies(self, rng):
        n = 16
        rational_rho = SupportFunction.from_rho2_poly(TrigPoly.constant(Fraction(49, 9)))
        yield "disk", TangentialData(disk(Fraction(3, 2)), (Fraction(2, 3), -1, Fraction(-5, 7)))
        yield "disk of ints", TangentialData(disk(2), (1, 3))
        yield "trig", TangentialData(rational_rho, (TrigPoly.constant(Fraction(-1, 4)),
                                                    TrigPoly.constant(Fraction(5, 6))))
        yield "sampled rho, trig density", TangentialData(
            SupportFunction.from_samples(mirrored([Fraction(1, 3), 2, Fraction(5, 7), 1] * 2)),
            (TrigPoly.constant(Fraction(1, 2)), Fraction(-3, 11)))
        for m in (1, 2, 3):
            yield f"sampled m={m}", _sampled(rng, n, m, 10**6)
        ints = [mirrored([rng.randint(-9, 9) for _ in range(n // 2)]) for _ in range(3)]
        yield "sampled ints", TangentialData(
            SupportFunction.from_samples(mirrored([rng.randint(1, 9) for _ in range(n // 2)])),
            tuple(ints))

    @pytest.mark.parametrize("weight", [1, 2])
    def test_samples_equal_fraction_arithmetic(self, weight, rng):
        for name, data in self._bodies(rng):
            n = data.natural_grid_size if data.rho.grid_size else 16
            got = even_moments(data, self.ORDERS, n, weight=weight)
            want = _fraction_moments(data, self.ORDERS, n, weight)
            for k, p, ref in zip(self.ORDERS, got, want):
                assert p.values.dtype == object
                assert list(p.values) == ref, (name, k)
