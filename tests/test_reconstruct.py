import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonrange import (
    CircleFunction,
    DegeneratePointError,
    InvalidParameterError,
    MomentSequence,
    NotInModelError,
    ReconstructionFailedError,
    SupportFunction,
    TangentialData,
    TrigPoly,
    disk,
    make_ellipse,
    moment,
    perturb,
    reconstruct,
    reconstruct_from_data,
    solve_rho2,
    synthesize_moments,
    theta_grid,
)
from radonrange import exactla
from radonrange.errors import SingularMatrixError
from radonrange.reconstruct import _solve_at_index
from tests.conftest import (
    GRIDS_PRIME_TO_6,
    mirrored,
    near_constant_fractions,
    random_ellipse,
    smooth_densities,
)


class TestSynthesizeMoments:
    def test_m3_rows_match_the_closed_pattern(self):
        # p_2 = qt_0 rho^2 + 2 qt_1 rho + 2 qt_2 with qt_j = (-1)^j q_j
        data = TangentialData(disk(2), (3, 5, -7))
        seq = synthesize_moments(data, 7)
        rho = 2
        qt = [3, -5, -7]
        want_p2 = qt[0] * rho**2 + 2 * qt[1] * rho + 2 * qt[2]
        assert all(v == want_p2 for v in seq.values(1))
        want_p4 = qt[0] * rho**4 + 4 * qt[1] * rho**3 + 12 * qt[2] * rho**2
        assert all(v == want_p4 for v in seq.values(2))

    def test_single_density_gives_powers_of_rho2(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        seq = synthesize_moments(data, 5)
        rho2 = data.rho.rho2_samples(seq.grid_size)
        for k in range(6):
            assert np.allclose(
                np.asarray(seq.values(k), float), np.asarray(rho2, float) ** k, rtol=1e-12
            )

    def test_zero_densities_give_zero_moments(self):
        data = TangentialData(disk(1), (0, 0), minimal=False)
        seq = synthesize_moments(data, 6)
        for k in range(7):
            assert all(v == 0 for v in seq.values(k))

    def test_half_the_raw_moment(self):
        # the signed handoff is exactly a factor-2 normalization
        data = TangentialData(disk(1), (2, -3, 1))
        seq = synthesize_moments(data, 8)
        for k in range(9):
            raw = moment(data, 2 * k).values
            assert all(2 * v == r for v, r in zip(seq.values(k), raw))

    def test_order_floor_enforced(self):
        data = TangentialData(disk(1), (1, 1, 1))
        with pytest.raises(InvalidParameterError):
            synthesize_moments(data, 6)  # needs >= 3m - 2 = 7


def _constant_moments(values, scalar):
    """External moments p_{2k} = values[k] at each of 8 nodes, as ``scalar``s."""
    dtype = object if scalar is Fraction else float
    return MomentSequence(
        tuple(CircleFunction(np.full(8, scalar(v), dtype=dtype)) for v in values)
    )


class TestSolveRho2:
    def test_m1_ellipse_at_origin_angle(self):
        data = TangentialData(make_ellipse(2, 1, 0), (1,))
        seq = synthesize_moments(data, 4)
        assert solve_rho2(seq, 1, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_m2_disk_derivative_data(self):
        data = TangentialData(disk(1), (0, -1))
        seq = synthesize_moments(data, 6)
        thetas = theta_grid(seq.grid_size)
        for theta in thetas[:5]:
            assert solve_rho2(seq, 2, float(theta)) == 1  # exact path

    @pytest.mark.parametrize("scalar", [float, Fraction])
    def test_zero_moments_are_degenerate(self, scalar):
        seq = _constant_moments([0, 0, 0, 0], scalar)
        with pytest.raises(DegeneratePointError, match=r"^singular system at grid index 0$"):
            solve_rho2(seq, 1, 0.0)

    @pytest.mark.parametrize("scalar", [float, Fraction])
    def test_negative_rho2_not_in_model(self, scalar):
        seq = _constant_moments([1, -1], scalar)
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 0$"):
            solve_rho2(seq, 1, 0.0)

    @pytest.mark.parametrize("scalar", [float, Fraction])
    def test_inconsistent_powers_not_in_model(self, scalar):
        # p = (1, 1, 5, 1), m = 2: u_1 = -1/2 and u_2 = -6 != u_1^2
        seq = _constant_moments([1, 1, 5, 1], scalar)
        message = r"^power consistency fails at grid index 0: u_2 != u_1\^2$"
        with pytest.raises(NotInModelError, match=message):
            solve_rho2(seq, 2, 0.0)

    def test_exact_consistency_is_equality(self):
        # a double root 13/10 with p_4 off by a relative 1e-12: inside the
        # float tolerance, but exact moments must match exactly
        lam = Fraction(13, 10)
        values = [1, 2 * lam, 3 * lam**2 * (1 + Fraction(1, 10**12)), 4 * lam**3]
        assert solve_rho2(_constant_moments(values, float), 2, 0.0) == pytest.approx(1.3)
        message = r"^power consistency fails at grid index 0: u_2 != u_1\^2$"
        with pytest.raises(NotInModelError, match=message):
            solve_rho2(_constant_moments(values, Fraction), 2, 0.0)

    def test_exact_mode_returns_fractions(self):
        data = TangentialData(disk(Fraction(3, 2)), (1,))
        seq = synthesize_moments(data, 4)
        value = solve_rho2(seq, 1, 0.0)
        assert value == Fraction(9, 4)

    def test_insufficient_orders_rejected(self):
        data = TangentialData(disk(1), (1,))
        seq = synthesize_moments(data, 1)
        with pytest.raises(InvalidParameterError):
            solve_rho2(seq, 2, 0.0)


class TestReconstruct:
    def test_tilted_ellipse_round_trip(self):
        body = make_ellipse(2, 1, math.pi / 6)
        report = reconstruct_from_data(TangentialData(body, (1,)))
        assert report.verdict == "ellipse"
        err = np.max(np.abs(np.asarray(report.ellipse_matrix) - np.asarray(body.matrix, float)))
        assert err <= 1e-8
        assert report.relative_residual <= 1e-9

    def test_perturbed_disk_recovers_rho2_but_fails_membership(self):
        body = perturb(disk(1), 0.05, 4)
        report = reconstruct_from_data(TangentialData(body, (1,)))
        assert report.verdict == "non-quadratic"
        want = body.rho2_samples(report.grid_size)
        got = np.asarray(report.rho2_values, float)
        assert np.max(np.abs(got - np.asarray(want, float))) <= 1e-12
        assert report.relative_residual <= 1e-9
        assert not report.quadratic_verdict.verdict
        assert report.quadratic_verdict.residual_spectrum.get(4, 0.0) > 0.0

    def test_windowed_mode_matches_global(self):
        body = make_ellipse(2, 1, math.pi / 6)
        data = TangentialData(body, (1,))
        seq = synthesize_moments(data, 6)
        window = (-math.pi / 8, math.pi / 8)
        windowed = reconstruct(seq, 1, window=window)
        full = reconstruct(seq, 1)
        assert windowed.verdict == "window-only"
        assert windowed.membership_note == "not-locally-testable"
        assert windowed.quadratic_verdict is None
        assert windowed.ellipse_matrix is None
        full_values = np.asarray(full.rho2_values, float)
        for idx, value in zip(windowed.indices, np.asarray(windowed.rho2_values, float)):
            assert abs(value - full_values[idx]) <= 1e-10

    def test_window_values_match_quadratic_form(self):
        body = make_ellipse(2, 1, math.pi / 6)
        data = TangentialData(body, (1,))
        seq = synthesize_moments(data, 6)
        report = reconstruct(seq, 1, window=(-math.pi / 8, math.pi / 8))
        thetas = theta_grid(report.grid_size)
        m = np.asarray(body.matrix, float)
        for idx, value in zip(report.indices, np.asarray(report.rho2_values, float)):
            omega = np.array([math.cos(thetas[idx]), math.sin(thetas[idx])])
            assert value == pytest.approx(float(omega @ m @ omega), abs=1e-10)
        lo, hi = report.window
        assert all(
            (thetas[i] - lo) % (2 * math.pi) <= (hi - lo) % (2 * math.pi)
            for i in report.indices
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_round_trip_with_higher_densities(self, m, rng):
        body = random_ellipse(rng)
        data = TangentialData(body, smooth_densities(rng, m))
        report = reconstruct_from_data(data, max_half_order=3 * m + 2)
        assert report.verdict == "ellipse"
        rel = np.max(
            np.abs(np.asarray(report.ellipse_matrix) - np.asarray(body.matrix, float))
        ) / np.max(np.abs(np.asarray(body.matrix, float)))
        assert rel <= 1e-7

    def test_isolated_degenerate_directions_are_interpolated(self):
        # q_0 = cos(2 theta) has four zeros on the grid: p_0 vanishes there
        data = TangentialData(disk(1), (TrigPoly.from_terms(cos={2: 1}),))
        seq = synthesize_moments(data, 6)
        report = reconstruct(seq, 1)
        assert len(report.degenerate_indices) == 4
        assert report.verdict == "ellipse"
        assert np.allclose(np.asarray(report.rho2_values, float), 1.0, atol=1e-9)

    def test_too_many_degenerate_directions_fail(self):
        n = 64
        p0 = np.ones(n)
        p0[::4] = 0.0  # a quarter of the directions are degenerate
        p0[2::4] = 0.0
        entries = (CircleFunction(p0), CircleFunction(np.ones(n)))
        seq = MomentSequence(entries)
        with pytest.raises(ReconstructionFailedError):
            reconstruct(seq, 1)

    def test_quadratic_but_not_positive_definite_is_reported(self):
        # moments of a "rho^2" that is quadratic yet not a support function
        thetas = theta_grid(64)
        fake_rho2 = 0.1 + np.cos(2 * thetas)  # changes sign
        entries = (
            CircleFunction(np.ones(64)),
            CircleFunction(fake_rho2.copy()),
        )
        with pytest.raises(NotInModelError):
            # rho^2 <= 0 somewhere: flagged as not-in-model
            reconstruct(MomentSequence(entries), 1)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_sampled_body_is_an_ellipse_iff_rho2_is_constant(data):
    n = data.draw(st.sampled_from(GRIDS_PRIME_TO_6))
    half = data.draw(near_constant_fractions(n // 2))
    m = data.draw(st.integers(1, 2))
    body = SupportFunction.from_samples(mirrored(half))
    report = reconstruct_from_data(TangentialData(body, tuple(range(1, m + 1))))
    if len(set(half)) == 1:
        assert report.verdict == "ellipse"
        rho2 = half[0] ** 2
        assert report.ellipse_matrix.dtype == object
        assert (report.ellipse_matrix == np.array([[rho2, 0], [0, rho2]], dtype=object)).all()
    else:
        assert report.verdict == "non-quadratic"


class TestMomentSequenceValidation:
    def test_entries_must_share_grid(self):
        with pytest.raises(InvalidParameterError):
            MomentSequence(
                (CircleFunction(np.ones(8)), CircleFunction(np.ones(16))),
            )

    def test_entries_must_be_even(self):
        thetas = theta_grid(8)
        with pytest.raises(InvalidParameterError):
            MomentSequence((CircleFunction(np.cos(thetas)),))

    def test_indexing(self):
        data = TangentialData(disk(1), (1,))
        seq = synthesize_moments(data, 3)
        assert seq.max_half_order == 3
        assert seq.grid_size == 512
        assert seq.is_exact


# ---------------------------------------------------------------------------
# the grid-batched float solve against the per-node loop it replaced
# ---------------------------------------------------------------------------


def _reference_system(seq, m, index, dtype):
    """The pointwise power system (a, b) in u_1..u_m at one node."""
    p = [seq.values(t)[index] for t in range(2 * m)]
    a = np.asarray(
        [[(-1) ** (m - i) * math.comb(m, i) * p[r + m - i] for i in range(1, m + 1)]
         for r in range(m)],
        dtype=dtype,
    )
    b = np.asarray([(-1) ** (m + 1) * p[r + m] for r in range(m)], dtype=dtype)
    return a, b


def _reference_node(seq, m, index, consistency_tol=1e-8):
    """Float rho^2 at one node as a per-node loop computes it; the raised
    exception class and message are part of the reference."""
    a, b = _reference_system(seq, m, index, float)
    if m == 1:
        pivot_scale = float(np.max(np.abs(np.asarray(seq.values(0), dtype=float))))
        if abs(a[0, 0]) <= 1e-12 * max(pivot_scale, 1e-300):
            raise DegeneratePointError(f"singular system at grid index {index}")
        u = np.array([b[0] / a[0, 0]])
    else:
        if not np.all(np.isfinite(a)) or np.linalg.cond(a) > 1e13:
            raise DegeneratePointError(f"singular system at grid index {index}")
        u = np.linalg.solve(a, b)
    u1 = float(u[0])
    for i in range(2, m + 1):
        target = u1**i
        scale = max(abs(float(u[i - 1])), abs(target), 1e-30)
        if abs(float(u[i - 1]) - target) > consistency_tol * scale:
            raise NotInModelError(
                f"power consistency fails at grid index {index}: u_{i} != u_1^{i}"
            )
    if u1 <= 0:
        raise NotInModelError(f"rho^2 <= 0 at grid index {index}")
    return u1


def _reference_residual(seq, m, nodes):
    """(max residual, residual scale) over ``nodes``, a list of (index, rho^2)."""
    max_residual = residual_scale = 0.0
    for i, u1 in nodes:
        p = [seq.values(t)[i] for t in range(seq.max_half_order + 1)]
        for r in range(seq.max_half_order - m + 1):
            res, scale = 0, 0.0
            for k in range(m + 1):
                term = (-1) ** k * math.comb(m, k) * u1 ** (m - k) * p[r + k]
                res = res + term
                scale += abs(float(term))
            max_residual = max(max_residual, abs(float(res)))
            residual_scale = max(residual_scale, scale)
    return max_residual, residual_scale


def _reference_reconstruct(seq, m):
    """(rho^2 after gap filling, degenerate indices, max residual, residual
    scale) from per-node loops; raises what the first failing node raises."""
    n = seq.grid_size
    rho2 = np.zeros(n)
    degenerate = []
    for i in range(n):
        try:
            rho2[i] = _reference_node(seq, m, i)
        except DegeneratePointError:
            degenerate.append(i)
    solved = np.ones(n, dtype=bool)
    solved[degenerate] = False
    solved_idx = np.nonzero(solved)[0]
    filled = rho2.copy()
    for i in degenerate:
        fwd = solved_idx[np.argmin((solved_idx - i) % n)]
        back = solved_idx[np.argmin((i - solved_idx) % n)]
        filled[i] = 0.5 * (rho2[fwd] + rho2[back])
    residual = _reference_residual(seq, m, list(enumerate(filled)))
    return (filled, tuple(degenerate), *residual)


def _external(rows):
    return MomentSequence(tuple(CircleFunction(np.asarray(r, float)) for r in rows))


def _double_root_moments(n, lam):
    """m = 2 moments p_{2t} = (1 + t) lam^t at every node (a double root lam)."""
    return [np.full(n, (1.0 + t) * lam**t) for t in range(4)]


def _set_node(rows, index, values):
    """Overwrite one node and its antipode, which keeps the moments even."""
    n = len(rows[0])
    for t, v in enumerate(values):
        rows[t][index] = rows[t][(index + n // 2) % n] = v


class TestBatchedFloatSolve:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_grid_values_equal_the_single_node_solve(self, m, eps, rng):
        body = make_ellipse(1.6, 1.0, rng.uniform(0.0, math.pi))
        if eps:
            body = perturb(body, eps, 4)
        seq = synthesize_moments(TangentialData(body, smooth_densities(rng, m)), 3 * m, n=64)
        report = reconstruct(seq, m)
        thetas = theta_grid(64)
        for i in range(64):
            assert report.rho2_values[i] == solve_rho2(seq, m, float(thetas[i]))
            assert report.rho2_values[i] == _reference_node(seq, m, i)
        _, degenerate, max_residual, residual_scale = _reference_reconstruct(seq, m)
        assert report.degenerate_indices == degenerate == ()
        assert report.max_residual == max_residual
        assert report.residual_scale == residual_scale
        # a one-node window exposes each node's residuals, not only the grid maximum
        for i in range(64):
            node = reconstruct(seq, m, window=(thetas[i], thetas[i] + 1e-9))
            assert node.indices == (i,)
            want = _reference_residual(seq, m, [(i, report.rho2_values[i])])
            assert (node.max_residual, node.residual_scale) == want

    def test_first_failing_node_in_scan_order_is_named(self):
        n = 16
        rows = _double_root_moments(n, 1.3)
        _set_node(rows, 2, [(1.0 + t) * (-0.5) ** t for t in range(4)])  # rho^2 = -0.5
        _set_node(rows, 5, [1.0, 2.6, 3 * 1.69 * 1.001, 4 * 1.3**3])  # u_2 != u_1^2
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 2$"):
            reconstruct(_external(rows), 2)
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 2$"):
            _reference_reconstruct(_external(rows), 2)

        rows = _double_root_moments(n, 1.3)
        _set_node(rows, 3, [1.0, 2.6, 3 * 1.69 * 1.001, 4 * 1.3**3])
        _set_node(rows, 6, [(1.0 + t) * (-0.5) ** t for t in range(4)])
        message = r"^power consistency fails at grid index 3: u_2 != u_1\^2$"
        with pytest.raises(NotInModelError, match=message):
            reconstruct(_external(rows), 2)
        with pytest.raises(NotInModelError, match=message):
            _reference_reconstruct(_external(rows), 2)
        with pytest.raises(NotInModelError, match=message):
            solve_rho2(_external(rows), 2, float(theta_grid(n)[3]))

    def test_nonpositive_node_message_at_m1(self):
        rows = [np.ones(8), np.ones(8)]
        _set_node(rows, 1, [1.0, -2.0])
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 1$"):
            reconstruct(_external(rows), 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_degenerate_nodes_match_the_per_node_loop(self):
        n = 128
        rows = _double_root_moments(n, 1.3)
        _set_node(rows, 9, [1.0, 1e308, 1.0, 1.0])  # the system overflows: non-finite
        _set_node(rows, 40, [1.0, 2.0, 4.0, 8.0])  # rank-one Hankel: singular
        seq = _external(rows)
        report = reconstruct(seq, 2)
        filled, degenerate, max_residual, residual_scale = _reference_reconstruct(seq, 2)
        assert report.degenerate_indices == degenerate == (9, 40, 73, 104)
        assert np.array_equal(report.rho2_values, filled)
        assert report.max_residual == max_residual
        assert report.residual_scale == residual_scale
        assert report.notes[0] == "4 degenerate directions were interpolated"

        _set_node(rows, 20, [1.0, 2.0, 4.0, 8.0])
        _set_node(rows, 30, [1.0, 1e308, 1.0, 1.0])
        with pytest.raises(ReconstructionFailedError, match="8 of 128 directions degenerate"):
            reconstruct(_external(rows), 2)


# ---------------------------------------------------------------------------
# the exact solve, run once per distinct node, against the per-node loop
# ---------------------------------------------------------------------------


def _exact_reference_node(seq, m, index):
    """Exact rho^2 at one node: ``exactla.solve`` on the power system, then
    the powers compared with ``!=``; the raised exception class and message
    are part of the reference."""
    a, b = _reference_system(seq, m, index, object)
    try:
        u = exactla.solve(a, b)
    except SingularMatrixError as exc:
        raise DegeneratePointError(f"singular system at grid index {index}") from exc
    for i in range(2, m + 1):
        if u[i - 1] != u[0] ** i:
            raise NotInModelError(
                f"power consistency fails at grid index {index}: u_{i} != u_1^{i}"
            )
    if u[0] <= 0:
        raise NotInModelError(f"rho^2 <= 0 at grid index {index}")
    return u[0]


def _exact_per_node(seq, m, solve_node=_solve_at_index):
    """(rho^2 after gap filling, degenerate indices, max residual, residual
    scale) from ``solve_node`` at every node; raises what the first failing
    node raises."""
    n = seq.grid_size
    rho2 = np.empty(n, dtype=object)
    degenerate = []
    for i in range(n):
        try:
            rho2[i] = solve_node(seq, m, i)
        except DegeneratePointError:
            degenerate.append(i)
    solved = [i for i in range(n) if i not in degenerate]
    filled = rho2.copy()
    for i in degenerate:
        fwd = min(solved, key=lambda s: (s - i) % n)
        back = min(solved, key=lambda s: (i - s) % n)
        filled[i] = Fraction(1, 2) * (rho2[fwd] + rho2[back])
    residual = _reference_residual(seq, m, list(enumerate(filled)))
    return (filled, tuple(degenerate), *residual)


def _exact_rows(rows):
    return MomentSequence(tuple(CircleFunction(np.asarray(r, dtype=object)) for r in rows))


class TestExactSolveOnDistinctNodes:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_repeated_node_values_match_the_per_node_loop(self, m, rng):
        n = 64
        pool = [Fraction(1), Fraction(5, 4), Fraction(2)]
        rho = [rng.choice(pool) for _ in range(n // 2)]
        densities = [[rng.choice(pool) for _ in range(n // 2)] for _ in range(m)]
        if m > 1:
            densities[-1][7] = 0  # q_{m-1} = 0: a singular system at nodes 7 and 39
        data = TangentialData(SupportFunction.from_samples(mirrored(rho)),
                              tuple(mirrored(q) for q in densities))
        seq = synthesize_moments(data, 3 * m)
        report = reconstruct(seq, m)
        filled, degenerate, max_residual, residual_scale = _exact_per_node(seq, m)
        assert report.degenerate_indices == degenerate == ((7, 39) if m > 1 else ())
        assert all(x == y for x, y in zip(report.rho2_values, filled))
        assert report.max_residual == max_residual
        assert report.residual_scale == residual_scale
        reference = _exact_per_node(seq, m, _exact_reference_node)
        assert report.degenerate_indices == reference[1]
        assert all(type(x) is type(y) and x == y
                   for x, y in zip(report.rho2_values, reference[0]))
        assert (report.max_residual, report.residual_scale) == reference[2:]

    def test_first_failing_node_is_named_when_its_values_repeat(self):
        n = 16
        lam = Fraction(13, 10)
        good = [(1 + t) * lam**t for t in range(4)]
        inconsistent = [1, 2 * lam, 3 * lam**2 * Fraction(1001, 1000), 4 * lam**3]
        negative = [(1 + t) * Fraction(-1, 2) ** t for t in range(4)]
        message = r"^power consistency fails at grid index 2: u_2 != u_1\^2$"

        rows = [[v] * n for v in good]
        for index, values in ((2, inconsistent), (4, negative), (5, inconsistent)):
            _set_node(rows, index, values)
        with pytest.raises(NotInModelError, match=message):
            reconstruct(_exact_rows(rows), 2)
        with pytest.raises(NotInModelError, match=message):
            _exact_per_node(_exact_rows(rows), 2)
        with pytest.raises(NotInModelError, match=message):
            _exact_per_node(_exact_rows(rows), 2, _exact_reference_node)

        rows = [[v] * n for v in good]
        for index, values in ((3, negative), (5, inconsistent), (6, negative)):
            _set_node(rows, index, values)
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 3$"):
            reconstruct(_exact_rows(rows), 2)
        with pytest.raises(NotInModelError, match=r"^rho\^2 <= 0 at grid index 3$"):
            _exact_per_node(_exact_rows(rows), 2, _exact_reference_node)
