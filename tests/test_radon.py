import math

import numpy as np
import pytest

from radonrange import (
    InvalidParameterError,
    LineParam,
    SingularLineError,
    disk_sinogram,
    mollified_moment,
    radon_disk_density,
    second_p_derivative_moments,
)


class TestChordIntegral:
    def test_interior_chords_integrate_to_one(self):
        for p in (0.0, 0.5, -0.5, 0.9):
            assert radon_disk_density(LineParam(0.3, p)) == pytest.approx(1.0, abs=1e-10)

    def test_near_tangent_chord(self):
        assert radon_disk_density(LineParam(1.1, 0.99)) == pytest.approx(1.0, abs=1e-8)
        assert radon_disk_density(LineParam(1.1, -0.999)) == pytest.approx(1.0, abs=1e-8)

    def test_missing_lines_are_zero(self):
        assert radon_disk_density(LineParam(0.0, 2.0)) == 0.0
        assert radon_disk_density(LineParam(2.0, -1.01)) == 0.0

    def test_tangent_line_raises(self):
        with pytest.raises(SingularLineError):
            radon_disk_density(LineParam(0.0, 1.0))
        with pytest.raises(SingularLineError):
            radon_disk_density(LineParam(1.0, -1.0))

    def test_rotational_invariance(self):
        values = [radon_disk_density(LineParam(theta, 0.37)) for theta in np.linspace(0, 6, 13)]
        assert max(values) - min(values) <= 1e-12

    def test_two_nodes_suffice(self):
        # the substituted integrand is constant, so 2 nodes are already exact
        assert radon_disk_density(LineParam(0.2, 0.6), nodes=2) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_sinogram_matches_pointwise_values(self):
        thetas = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        ps = np.array([-1.5, -1.0, -0.25, 0.0, 0.8, 1.0, 1.25])
        grid = disk_sinogram(thetas, ps, nodes=32)
        assert np.isnan(grid[:, 1]).all() and np.isnan(grid[:, 5]).all()
        for i, theta in enumerate(thetas):
            for j, p in enumerate(ps):
                if abs(p) == 1.0:
                    continue
                assert grid[i, j] == pytest.approx(
                    radon_disk_density(LineParam(theta, p), nodes=32), abs=1e-13
                )


class TestDistributionalMoments:
    def test_values_are_twice_the_order(self):
        assert second_p_derivative_moments(0) == 0
        assert second_p_derivative_moments(2) == 4
        assert second_p_derivative_moments(6) == 12
        assert second_p_derivative_moments(24) == 48

    def test_odd_orders_rejected(self):
        with pytest.raises(InvalidParameterError):
            second_p_derivative_moments(3)
        with pytest.raises(InvalidParameterError):
            second_p_derivative_moments(-2)


class TestMollifiedMoments:
    @pytest.mark.parametrize("k", [4, 6])
    def test_second_order_convergence(self, k):
        exact = 2 * k
        errors = [abs(mollified_moment(k, h) - exact) for h in (0.1, 0.05, 0.025)]
        assert errors[0] > errors[1] > errors[2]
        # halving the width should divide the error by about four
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)
        assert errors[2] <= 1e-3 * max(1.0, exact)

    def test_small_orders_hit_exactly(self):
        # for k <= 2 the width-dependence cancels identically
        assert mollified_moment(0, 0.1) == pytest.approx(0.0, abs=1e-13)
        assert mollified_moment(2, 0.1) == pytest.approx(4.0, abs=1e-12)

    def test_width_validation(self):
        with pytest.raises(InvalidParameterError):
            mollified_moment(4, 0.0)
