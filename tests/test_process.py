"""Core four-point process: recurrence, invariants, classical reference."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import verification
from zitterlab.cli import parse_config
from zitterlab.process import VERTICES
from zitterlab.scenarios import run_scenario


def params(eps, hbar=1.0, mass=1.0, **kw):
    return zl.PhysParams(hbar=hbar, mass=mass, epsilon=eps, **kw)


def step_oracle(p, perm, vel, z0, n_steps):
    """The per-step recurrence, one step at a time: (times, vertices, means).

    The step landing at n reads the drift at the cycle-boundary time 4q*eps
    with q = n//4, and the vertices are rebuilt from the offset decomposition
    mean + gamma * (s^n u^j - u^j).
    """
    eps = p.epsilon
    mean = np.asarray(z0, dtype=complex).reshape(2)
    times, vertices, means = [0.0], [np.repeat(mean[None, :], 4, axis=0)], [mean]
    for n in range(1, n_steps + 1):
        t = times[-1] + eps
        v = np.asarray(vel(t - (n % 4) * eps), dtype=complex)
        mean = mean + v * eps
        times.append(t)
        vertices.append(mean[None, :] + zl.gamma(p) * perm.offset_table()[n % 4])
        means.append(mean)
    return np.array(times), np.array(vertices), np.array(means)


def de_broglie_oracle(p, vel, z0, T):
    """The de_broglie run as a per-step loop from z0: (times, means, epsilons).

    Each cycle takes eps from |Re V| at its start t; steps 1-3 read V(t) and
    step 4 reads V(t + 4 eps), and every step adds V * eps to the mean.
    """
    times, means, epsilons = [0.0], [np.asarray(z0, dtype=complex).reshape(2)], []
    t = 0.0
    while t < T - 1e-12:
        v_boundary = np.asarray(vel(t), dtype=complex)
        eps = p.de_broglie_epsilon(float(np.linalg.norm(v_boundary.real)))
        for r in range(1, 5):
            v_step = v_boundary if r < 4 else np.asarray(vel(t + 4 * eps), dtype=complex)
            means.append(means[-1] + v_step * eps)
            times.append(t + r * eps)
            epsilons.append(eps)
        t += 4 * eps
    return np.array(times), np.array(means), np.array([epsilons[0], *epsilons])


class TestGamma:
    def test_unit_values(self):
        assert zl.gamma(params(1.0)) == 0.5 + 0.5j
        assert zl.gamma(params(4.0)) == 1.0 + 1.0j

    def test_physical_constants(self):
        # electron-scale numbers, checked against the closed form
        p = params(1e-20, hbar=1.0546e-34, mass=9.109e-31)
        g = zl.gamma(p)
        expected = math.sqrt(1.0546e-34 * 1e-20 / (4 * 9.109e-31))
        assert g == (1 + 1j) * expected
        assert g.real == pytest.approx(5.3797e-13, rel=1e-3)

    def test_modulus_squared(self):
        p = params(0.37, mass=2.5)
        assert abs(zl.gamma(p)) ** 2 == pytest.approx(p.hbar * p.epsilon / (2 * p.mass), rel=1e-14)


class TestPermutation:
    def test_vertex_listing(self):
        assert VERTICES.tolist() == [[1, 1], [1, -1], [-1, -1], [-1, 1]]

    def test_period_four(self):
        for sense in (zl.Sense.S_PLUS, zl.Sense.S_MINUS):
            p = zl.Permutation(sense)
            for j in range(1, 5):
                for n in range(9):
                    np.testing.assert_array_equal(p.apply(n + 4, j), p.apply(n, j))
                np.testing.assert_array_equal(p.apply(4, j), VERTICES[j - 1])

    def test_shifted_sum_is_zero(self):
        p = zl.Permutation()
        for n in range(8):
            total = sum(p.apply(n, j) for j in range(1, 5))
            np.testing.assert_array_equal(total, [0, 0])

    def test_offset_table_follows_apply(self):
        for sense in (zl.Sense.S_PLUS, zl.Sense.S_MINUS):
            p = zl.Permutation(sense)
            table = p.offset_table()
            assert table.shape == (4, 4, 2) and table.dtype == np.int64
            for r in range(4):
                for j in range(1, 5):
                    np.testing.assert_array_equal(table[r, j - 1], p.apply(r, j) - VERTICES[j - 1])

    @pytest.mark.parametrize("j", [0, 5])
    def test_apply_rejects_vertex_index_out_of_range(self, j):
        with pytest.raises(ValueError, match="vertex index j must be in 1..4"):
            zl.Permutation().apply(0, j)

    def test_s_minus_is_inverse(self):
        plus, minus = zl.Permutation(), zl.Permutation(zl.Sense.S_MINUS)
        for j in range(1, 5):
            fwd = plus.apply(1, j)
            k = 1 + next(i for i in range(4) if np.array_equal(VERTICES[i], fwd))
            np.testing.assert_array_equal(minus.apply(1, k), VERTICES[j - 1])


class TestVertexOffset:
    def test_boundary_offset_vanishes(self):
        for j in range(1, 5):
            np.testing.assert_array_equal(zl.vertex_offset(4, j, zl.Permutation()), [0, 0])
            np.testing.assert_array_equal(zl.vertex_offset(8, j, zl.Permutation()), [0, 0])

    def test_listed_values(self):
        p = zl.Permutation()
        np.testing.assert_array_equal(zl.vertex_offset(1, 1, p), [0, -2])
        # s^2 is the central inversion, so the offset is -2 u^3
        np.testing.assert_array_equal(zl.vertex_offset(2, 3, p), [2, 2])

    def test_components_in_allowed_set(self):
        p = zl.Permutation(zl.Sense.S_MINUS)
        for n in range(8):
            for j in range(1, 5):
                assert set(zl.vertex_offset(n, j, p).tolist()) <= {-2, 0, 2}

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            zl.vertex_offset(-1, 1, zl.Permutation())


class TestStep:
    def test_four_steps_close_the_cycle(self):
        z0 = (0.2 + 0.1j, -0.4)
        run = zl.run_process(params(0.3), zl.Permutation(), zl.zero_velocity(), z0, 4 * 0.3)
        assert len(run) == 5
        np.testing.assert_array_equal(run.vertices[0], np.repeat([z0], 4, axis=0))
        np.testing.assert_allclose(run.vertices[4], run.vertices[0], atol=1e-15)

    def test_mean_is_euler_step(self):
        vel = zl.ConstantVelocity(1.0, 0.0)
        run = zl.run_process(params(0.25), zl.Permutation(), vel, (0, 0), 1.0)
        np.testing.assert_allclose(run.means[4], [1.0, 0.0], atol=1e-15)

    def test_single_vertex_hop(self):
        # gamma (s u^1 - u^1) = (1+i) * 0.5 * (0, -2) = (0, -1-i)
        run = zl.run_process(params(1.0), zl.Permutation(), zl.zero_velocity(), (0, 0), 1.0)
        np.testing.assert_allclose(run.vertices[1, 0], [0.0, -1.0 - 1.0j], atol=1e-15)

    def test_nonfinite_velocity_rejected(self):
        bad = zl.ConstantVelocity(float("nan"), 0.0)
        with pytest.raises(zl.NonFiniteVelocity):
            zl.run_process(params(0.1), zl.Permutation(), bad, (0, 0), 0.4)

    @pytest.mark.parametrize("T", [0.0, -0.0, -1.0])
    def test_non_positive_T_rejected(self, T):
        with pytest.raises(ValueError, match="T must be > 0"):
            zl.run_process(params(0.1), zl.Permutation(), zl.zero_velocity(), (0, 0), T)


def offset_identity_deviation(run):
    """Vertices minus (mean + gamma * offset table), for every step."""
    g = (1 + 1j) * np.sqrt(run.params.hbar * run.epsilons / (4 * run.params.mass))
    offsets = run.perm.offset_table()[np.arange(len(run)) % 4]
    return np.abs(run.vertices - run.means[:, None, :] - g[:, None, None] * offsets)


class TestRunProcess:
    def test_boundary_states_repeat_for_zero_drift(self):
        run = zl.run_process(params(0.05), zl.Permutation(), zl.zero_velocity(), (1, 2), 2.0)
        for n in range(0, len(run), 4):
            np.testing.assert_allclose(run.vertices[n], run.vertices[0], atol=1e-15)

    def test_offset_identity_exact(self):
        run = zl.run_process(
            params(0.01), zl.Permutation(zl.Sense.S_MINUS), zl.CircularVelocity(), (0, 0), 1.0
        )
        # re-evaluating the identity costs one rounding of (mean + hop) - mean
        assert np.max(offset_identity_deviation(run)) <= 1e-13

    def test_mean_is_average_of_vertices(self):
        run = zl.run_process(params(0.01), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0)
        dev = np.abs(run.vertices.mean(axis=1) - run.means)
        assert np.max(dev) <= 1e-13

    def test_circular_drift_tracks_exact_integral(self):
        # closed-form antiderivative of (cos t, sin t) from 0
        eps = 1e-3
        run = zl.run_process(params(eps), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0)
        exact = np.stack([np.sin(run.times), 1.0 - np.cos(run.times)], axis=1)
        err = np.max(np.abs(run.means - exact))
        assert err < 5 * eps
        # first-order shrinkage
        run2 = zl.run_process(params(eps / 10), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0)
        exact2 = np.stack([np.sin(run2.times), 1.0 - np.cos(run2.times)], axis=1)
        assert np.max(np.abs(run2.means - exact2)) < err / 5

    def test_complex_drift_components_decouple(self):
        run = zl.run_process(
            params(1e-2), zl.Permutation(), zl.ConstantVelocity(1.0, 1.0j), (0, 0), 0.1
        )
        assert np.max(np.abs(run.means[:, 0].imag)) == 0.0
        assert np.max(np.abs(run.means[:, 1].real)) == 0.0
        assert run.means[-1, 0].real == pytest.approx(0.1, rel=1e-12)
        assert run.means[-1, 1].imag == pytest.approx(0.1, rel=1e-12)

    def test_determinism(self):
        a = zl.run_process(params(1e-2), zl.Permutation(), zl.CircularVelocity(), (0.1, 0.2), 0.5)
        b = zl.run_process(params(1e-2), zl.Permutation(), zl.CircularVelocity(), (0.1, 0.2), 0.5)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.means, b.means)

    def test_sequence_protocol_matches_step(self):
        run = zl.run_process(params(0.2), zl.Permutation(), zl.CircularVelocity(), (0, 0), 2.0)
        times, vertices, means = step_oracle(params(0.2), zl.Permutation(), zl.CircularVelocity(), (0, 0), 8)
        np.testing.assert_allclose(run.times[:9], times, atol=1e-13)
        np.testing.assert_allclose(run.vertices[:9], vertices, atol=1e-13)
        np.testing.assert_allclose(run.means[:9], means, atol=1e-13)
        assert len(run) == 11

    def test_figure_pattern_of_real_positions(self):
        # relative to the center: edge midpoints at r=1,3, corners at r=2
        eps, a = 0.04, math.sqrt(0.04 / 4)
        run = zl.run_process(params(eps), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0)
        rel = run.real_vertices() - run.real_means()[:, None, :]
        for n in range(8):
            got = {tuple(np.round(v / a).astype(int)) for v in rel[n]}
            if n % 4 == 0:
                assert got == {(0, 0)}
            elif n % 4 == 2:
                assert got == {(2, 2), (2, -2), (-2, 2), (-2, -2)}
            else:
                assert got == {(0, 2), (0, -2), (2, 0), (-2, 0)}


class TestEpsilonModes:
    def test_compton_epsilon_is_constant(self):
        p = zl.PhysParams(
            epsilon=123.0, epsilon_mode=zl.EpsilonMode.COMPTON, light_speed=2.0, mass=3.0
        )
        expected = 2 * math.pi / (4 * 3.0 * 4.0)
        assert p.compton_epsilon() == pytest.approx(expected, rel=1e-15)
        run = zl.run_process(p, zl.Permutation(), zl.zero_velocity(), (0, 0), 10 * expected)
        assert np.all(run.epsilons == run.epsilons[0])
        assert run.epsilons[0] == pytest.approx(expected, rel=1e-15)

    def test_de_broglie_refresh_follows_speed(self):
        # h/(4 m v^2) with v = |Re V| at the cycle boundary
        p = zl.PhysParams(epsilon=1.0, epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        vel = zl.ConstantVelocity(2.0, 0.0)
        run = zl.run_process(p, zl.Permutation(), vel, (0, 0), 2.0)
        expected = 2 * math.pi / (4 * 4.0)
        assert run.epsilons[1] == pytest.approx(expected, rel=1e-14)
        assert np.max(offset_identity_deviation(run)) <= 1e-13
        # cycle structure intact: boundary coincidence at every 4th step
        for n in range(0, len(run), 4):
            assert np.max(np.abs(run.vertices[n] - run.means[n])) <= 1e-14

    def test_de_broglie_varying_speed_changes_epsilon(self):
        p = zl.PhysParams(epsilon=1.0, epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        vel = zl.PolynomialVelocity((2.0, 3.0), (0.0,))
        run = zl.run_process(p, zl.Permutation(), vel, (0, 0), 3.0)
        assert len(set(np.round(run.epsilons[1:], 12))) > 1
        # n = 0 carries the first cycle's eps, not the template's
        assert run.epsilons[0] == run.epsilons[1] != p.epsilon

    def test_de_broglie_vertices_use_each_cycle_gamma(self):
        p = zl.PhysParams(hbar=0.7, mass=1.3, epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        run = zl.run_process(p, zl.Permutation(), zl.PolynomialVelocity((2.0, 1.5), (0.5,)), (0, 0), 4.0)
        assert len(set(run.epsilons)) > 3
        offsets = zl.Permutation().offset_table()
        for n in range(len(run)):
            g = zl.gamma(replace(p, epsilon=float(run.epsilons[n])))
            assert np.array_equal(run.vertices[n], run.means[n] + g * offsets[n % 4])

    @pytest.mark.parametrize(
        "vel",
        [
            zl.ConstantVelocity(2.0, -0.5j),
            zl.PolynomialVelocity((2.0, 1.5), (0.5 + 0.25j, -0.25)),
            zl.CircularVelocity(3.0, 2.0),
        ],
        ids=["constant", "polynomial", "circular"],
    )
    def test_de_broglie_run_equals_per_step_loop_from_zero(self, vel):
        p = zl.PhysParams(hbar=0.7, mass=1.3, epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        run = zl.run_process(p, zl.Permutation(zl.Sense.S_MINUS), vel, (0, 0), 10.0)
        times, means, epsilons = de_broglie_oracle(p, vel, (0, 0), 10.0)
        assert len(run) > 40
        assert np.array_equal(run.times, times) and np.array_equal(run.epsilons, epsilons)
        # from z0 = 0 the running sum is the loop's sum term by term
        assert np.array_equal(run.means, means)
        offsets = zl.Permutation(zl.Sense.S_MINUS).offset_table()
        for n in range(len(run)):
            g = zl.gamma(replace(p, epsilon=float(epsilons[n])))
            assert np.array_equal(run.vertices[n], means[n] + g * offsets[n % 4])

    def test_de_broglie_run_from_nonzero_start_differs_only_by_reassociation(self):
        # the loop sums z0 + a_1 + ... + a_n left to right, run_process sums
        # a_1 + ... + a_n and then adds z0.  Per real component each of the n
        # rounded additions errs by at most u times a partial sum, so either
        # order is within n*u*M of the exact sum, with M = max|mean| + |z0|
        # bounding the partial sums of both; the two differ by at most 2*n*u*M.
        p = zl.PhysParams(epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        vel, z0 = zl.PolynomialVelocity((2.0, 1.5), (0.5 + 0.25j, -0.25)), (0.3 + 0.1j, -1j)
        run = zl.run_process(p, zl.Permutation(), vel, z0, 10.0)
        times, means, epsilons = de_broglie_oracle(p, vel, z0, 10.0)
        assert np.array_equal(run.times, times) and np.array_equal(run.epsilons, epsilons)
        n, u = len(run) - 1, np.finfo(float).eps / 2
        parts = means.view(float)
        bound = 2 * n * u * (np.max(np.abs(parts)) + np.max(np.abs(np.asarray(z0, dtype=complex).view(float))))
        assert 0 < np.max(np.abs(run.means.view(float) - parts)) <= bound

    def test_epsilon_underflow(self):
        p = zl.PhysParams(
            epsilon=1.0, epsilon_mode=zl.EpsilonMode.DE_BROGLIE, epsilon_floor=1e-3
        )
        with pytest.raises(zl.EpsilonUnderflow):
            zl.run_process(p, zl.Permutation(), zl.ConstantVelocity(1e4, 0.0), (0, 0), 1.0)

    def test_zero_speed_rejected(self):
        p = zl.PhysParams(epsilon=1.0, epsilon_mode=zl.EpsilonMode.DE_BROGLIE)
        with pytest.raises(zl.EpsilonUnderflow):
            zl.run_process(p, zl.Permutation(), zl.zero_velocity(), (0, 0), 1.0)

    def test_invalid_params_rejected(self):
        for kw in (dict(hbar=-1.0), dict(mass=0.0), dict(epsilon=-0.1), dict(light_speed=0.0)):
            with pytest.raises(ValueError):
                zl.PhysParams(**kw)


class TestClassicalTrajectory:
    def test_zero_velocity_is_constant(self):
        path = zl.classical_trajectory(zl.zero_velocity(), (1, 2j), 1.0, 0.01)
        np.testing.assert_array_equal(path.positions[-1], path.positions[0])

    def test_circular_against_antiderivative(self):
        path = zl.classical_trajectory(zl.CircularVelocity(), (0, 0), math.pi, 1e-3)
        np.testing.assert_allclose(path.positions[-1], [0.0, 2.0], atol=1e-10)
        exact = np.stack([np.sin(path.times), 1 - np.cos(path.times)], axis=1)
        assert np.max(np.abs(path.positions - exact)) < 1e-10

    def test_polynomial_integral(self):
        vel = zl.PolynomialVelocity((0.0, 1.0), (0.0,))  # V_x = t
        path = zl.classical_trajectory(vel, (0, 0), 2.0, 1e-3)
        np.testing.assert_allclose(path.positions[-1], [2.0, 0.0], atol=1e-12)

    def test_sampled_table_interpolation(self):
        ts = np.linspace(0, 1, 11)
        vel = zl.SampledVelocity(ts, np.stack([ts, np.zeros_like(ts)], axis=1))
        path = zl.classical_trajectory(vel, (0, 0), 1.0, 1e-3)
        assert path.positions[-1][0] == pytest.approx(0.5, abs=1e-9)

    def test_sampled_table_describes_its_span(self):
        vel = zl.SampledVelocity(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
        assert vel.describe() == "sampled(0.0..1.0, 11 knots)"

    def test_a_program_is_named_by_its_class(self):
        """The base VelocityProgram has no velocity; a subclass that gives one
        and no describe() is named by its class in the non-finite error."""
        with pytest.raises(NotImplementedError):
            zl.VelocityProgram()(0.0)

        class Spike(zl.VelocityProgram):
            def __call__(self, t):
                return np.full(np.shape(t) + (2,), complex(math.inf, 0.0))

        with pytest.raises(zl.NonFiniteVelocity, match="velocity program Spike returned a non-finite value"):
            zl.run_process(params(0.1), zl.Permutation(), Spike(), (0, 0), 0.4)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            zl.classical_trajectory(zl.zero_velocity(), (0, 0), 1.0, dt)

    @pytest.mark.parametrize(
        "times, values, error, message",
        [
            ([0.0, 0.5, 1.0], np.zeros((3, 3)), ValueError, "times \\(M,\\) and values \\(M, 2\\)"),
            ([[0.0], [0.5], [1.0]], np.zeros((3, 2)), ValueError, "times \\(M,\\) and values \\(M, 2\\)"),
            ([0.0, 0.5], np.zeros((3, 2)), ValueError, "times \\(M,\\) and values \\(M, 2\\)"),
            ([0.0, 0.5, 0.5], np.zeros((3, 2)), ValueError, "strictly increasing, M >= 2"),
            ([0.0, 1.0, 0.5], np.zeros((3, 2)), ValueError, "strictly increasing, M >= 2"),
            ([0.0], np.zeros((1, 2)), ValueError, "strictly increasing, M >= 2"),
            ([0.0, math.nan], np.zeros((2, 2)), zl.NonFiniteVelocity, "non-finite"),
            ([0.0, math.inf], np.zeros((2, 2)), zl.NonFiniteVelocity, "non-finite"),
            ([0.0, 1.0], [[0.0, 0.0], [complex(0.0, math.nan), 0.0]], zl.NonFiniteVelocity, "non-finite"),
        ],
        ids=["values_3_wide", "times_2d", "lengths_differ", "repeated", "decreasing", "one_knot", "nan_time",
             "inf_time", "nan_value"],
    )
    def test_sampled_table_checked(self, times, values, error, message):
        with pytest.raises(error, match=message) as raised:
            zl.SampledVelocity(times, values)
        assert raised.type is error


def one_cumsum_path(vel, z0, T, dt):
    """classical_trajectory as one np.cumsum over the whole path: the oracle of the chunked sum."""
    z0 = np.asarray(z0, dtype=complex).reshape(2)
    n_steps, dt = zl.process._step_count(0.0, T, dt)
    t = np.arange(n_steps + 1) * dt
    v_nodes, v_mid = vel(t), vel(t[:-1] + dt / 2)
    increments = (dt / 6.0) * (v_nodes[:-1] + 4.0 * v_mid + v_nodes[1:])
    positions = np.empty((n_steps + 1, 2), dtype=complex)
    positions[0] = z0
    np.cumsum(increments, axis=0, out=positions[1:])
    positions[1:] += z0
    return t, positions


CHUNK = zl.process._BLOCK_STATES
CHUNK_VELOCITIES = [
    zl.CircularVelocity(omega=1.3, amplitude=0.9),
    zl.PolynomialVelocity((0.5, 1.0, -0.1j), (0.2j, 0.3)),
]


class TestChunkedClassicalPath:
    @pytest.mark.parametrize("n_steps", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("vel", CHUNK_VELOCITIES, ids=["circular", "polynomial"])
    def test_equals_one_cumsum(self, n_steps, vel):
        path = zl.classical_trajectory(vel, (0.3, -1j), n_steps * 1e-3, 1e-3)
        times, positions = one_cumsum_path(vel, (0.3, -1j), n_steps * 1e-3, 1e-3)
        assert len(path.times) == n_steps + 1
        np.testing.assert_array_equal(path.times, times)
        np.testing.assert_array_equal(path.positions, positions)

    @pytest.mark.parametrize("chunk", [CHUNK, 7])
    @pytest.mark.parametrize("every", [1, 3, 7, 10])
    def test_kept_positions_are_a_stride_of_the_path(self, monkeypatch, chunk, every):
        # blocks of 7 kept positions, and a last block of fewer; at every = 7 the path ends a step past its last kept
        monkeypatch.setattr(zl.process, "_BLOCK_STATES", chunk)
        vel, n_steps = CHUNK_VELOCITIES[0], 30 * 410
        times, positions = one_cumsum_path(vel, (0.3, -1j), n_steps * 1e-3, 1e-3)
        blocks = list(zl.process._classical_path(vel, (0.3, -1j), n_steps * 1e-3, 1e-3, every))
        assert [len(b) for _, b in blocks[:-1]] == [chunk] * (len(blocks) - 1) and 0 < len(blocks[-1][1]) <= chunk
        kept_times, kept = (np.concatenate(parts) for parts in zip(*blocks))
        np.testing.assert_array_equal(kept_times, times[::every])
        np.testing.assert_array_equal(kept, positions[::every])


def bits(a):
    """The bit patterns of a float or complex array, so that equality tells -0.0 from 0.0 and sees NaN payloads."""
    return np.ascontiguousarray(a).view(np.uint64)


def whole_run_oracle(p, perm, vel, z0, T):
    """run_process as it was before runs came in blocks: one np.cumsum of V eps over
    the whole run, then every vertex from the cycle table.  (times, means, epsilons, vertices)"""
    z0 = np.asarray(z0, dtype=complex).reshape(2)
    if p.epsilon_mode is zl.EpsilonMode.DE_BROGLIE:
        times, epsilons, v = zl.process._de_broglie_schedule(p, vel, T)
    else:
        if p.epsilon_mode is zl.EpsilonMode.COMPTON:
            p = replace(p, epsilon=p.compton_epsilon())
        eps = p.epsilon
        n_steps = int(math.floor(T / eps + 1e-9))
        n = np.arange(n_steps + 1)
        times, epsilons = n * eps, np.full(n_steps + 1, eps)
        v = vel(4 * (n[1:] // 4) * eps)
    means = np.empty((times.size, 2), dtype=complex)
    means[0] = z0
    np.cumsum(v * epsilons[1:, None], axis=0, out=means[1:])
    means[1:] += z0
    g = (1.0 + 1.0j) * np.sqrt(p.hbar * epsilons / (4.0 * p.mass))
    table = perm.offset_table()
    vertices = np.empty((len(times), 4, 2), dtype=complex)
    whole = len(times) - len(times) % 4
    np.multiply(g[:whole].reshape(-1, 4, 1, 1), table, out=vertices[:whole].reshape(-1, 4, 4, 2))
    vertices[:whole] += means[:whole, None, :]
    vertices[whole:] = means[whole:, None, :] + g[whole:, None, None] * table[: len(times) - whole]
    return times, means, epsilons, vertices


@pytest.mark.parametrize("block", [4, 12, CHUNK])
@pytest.mark.parametrize(
    "mode,vel,T",
    [
        # 5,002 steps: past one default block, and the last cycle ends two steps in
        (zl.EpsilonMode.FIXED, zl.CircularVelocity(omega=2.0, amplitude=0.7), 5.002),
        # eps = h/(4 m c^2) = 0.7 pi / 585, 4,098 steps: the last cycle ends two steps in
        (zl.EpsilonMode.COMPTON, zl.PolynomialVelocity((0.5, 1.0, -0.1j), (0.2j, 0.3)), 15.407),
        # 8,741 states, eps changing every cycle
        (zl.EpsilonMode.DE_BROGLIE, zl.PolynomialVelocity((2.0, 1.5), (0.5 + 0.25j, -0.25)), 20.0),
        # Re z0_x and every Re V_x eps are -0.0, so every Re mean_x is -0.0 in one cumsum
        (zl.EpsilonMode.FIXED, zl.ConstantVelocity(-0.0, 0.5), 5.002),
    ],
    ids=["fixed", "compton", "de_broglie", "negative_zero"],
)
def test_streamed_blocks_equal_the_whole_run(monkeypatch, mode, vel, T, block):
    monkeypatch.setattr(zl.process, "_BLOCK_STATES", block)
    p = params(1e-3, hbar=0.7, mass=1.3, epsilon_mode=mode, light_speed=15.0)
    perm, z0 = zl.Permutation(zl.Sense.S_MINUS), (complex(-0.0, 0.3), -1j)
    expected = whole_run_oracle(p, perm, vel, z0, T)
    used, n_states, blocks = zl.process._run_blocks(p, perm, vel, z0, T)
    blocks = list(blocks)
    assert n_states == len(expected[0]) > CHUNK and (mode is zl.EpsilonMode.DE_BROGLIE or n_states % 4 == 3)
    assert [b.start for b in blocks] == list(range(0, n_states, block))
    for k, name in enumerate(("times", "means", "epsilons", "vertices")):
        joined = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(bits(joined), bits(expected[k])), name
    # run_process joins the same blocks
    run = zl.run_process(p, perm, vel, z0, T)
    assert run.params == used and np.array_equal(bits(run.vertices), bits(expected[3]))


@pytest.mark.parametrize(
    "mode,vel,T",
    # fixed runs of 3, 5000, 5001 and 5002 steps end 0, 1, 2 and 3 steps into a cycle
    [(zl.EpsilonMode.FIXED, zl.CircularVelocity(omega=2.0, amplitude=0.7), n * 1e-3) for n in (3, 5000, 5001, 5002)]
    + [(zl.EpsilonMode.DE_BROGLIE, zl.PolynomialVelocity((2.0, 1.5), (0.5 + 0.25j, -0.25)), 5.0)],
    ids=["fixed-4", "fixed-5001", "fixed-5002", "fixed-5003", "de_broglie"],
)
@pytest.mark.parametrize("sense", list(zl.Sense))
def test_assembly_equals_gathered_offsets(mode, vel, T, sense):
    """Vertices built a whole cycle at a time equal the (M, 4, 2) gathered-offset expression bit for bit."""
    perm = zl.Permutation(sense)
    run = zl.run_process(params(1e-3, hbar=0.7, mass=1.3, epsilon_mode=mode), perm, vel, (0.3, -1j), T)
    g = (1.0 + 1.0j) * np.sqrt(0.7 * run.epsilons / (4.0 * 1.3))
    offsets = perm.offset_table()[np.arange(len(run)) % 4]
    expected = run.means[:, None, :] + g[:, None, None] * offsets
    np.testing.assert_array_equal(run.vertices.view(float), expected.view(float))
    assert np.array_equal(np.signbit(run.vertices.view(float)), np.signbit(expected.view(float)))


def test_run_csv_format(tmp_path):
    run = zl.run_process(params(0.25), zl.Permutation(), zl.CircularVelocity(), (0, 0), 1.0)
    path = tmp_path / "run.csv"
    run.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["n", "t"]
    assert header[2:6] == ["re_z1_1", "im_z1_1", "re_z2_1", "im_z2_1"]
    assert header[-4:] == ["re_mean1", "im_mean1", "re_mean2", "im_mean2"]
    assert len(lines) == len(run) + 1
    # 17 significant digits survive a round trip
    row = lines[2].split(",")
    assert float(row[1]) == run.times[1]
    run.to_csv(tmp_path / "run2.csv")
    assert (tmp_path / "run2.csv").read_bytes() == path.read_bytes()


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convergence_sweep_memory_is_flat_in_T():
    # at T = 1 the finest run takes 10,001 states, two full blocks and a part
    def sweep(T):
        vel = zl.CircularVelocity()
        return lambda: verification.process_convergence_rates(
            params(1e-2), zl.Permutation(), vel, (0, 0), T, (1e-2, 3e-3, 1e-3, 1e-4)
        )

    small, large = traced_peak(sweep(1.0)), traced_peak(sweep(4.0))
    assert large <= 1.2 * small, (small, large)


def test_process_free_memory_is_flat_in_T(tmp_path, monkeypatch):
    # blocks of 512 states keep the runs short: at T = 10.24 the run takes 1,025 states, two full blocks and one
    monkeypatch.setattr(zl.process, "_BLOCK_STATES", 512)

    def scenario(T):
        cfg = parse_config(f"scenario = process_free\nvelocity = circular\nT = {T}\n")
        return lambda: run_scenario(cfg, tmp_path / str(T))

    small, large = traced_peak(scenario(10.24)), traced_peak(scenario(40.96))
    assert large <= 1.2 * small, (small, large)


# ---------------------------------------------------------------------------
# CSV output against the earlier per-cell formatter
# ---------------------------------------------------------------------------


def cell_text(cell):
    """The earlier per-cell rule: ints verbatim, strings as-is, 17-digit floats."""
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, str):
        return cell
    return f"{float(cell):.17g}"


def oracle_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(cell_text(c) for c in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def oracle_run_csv(run) -> bytes:
    """run.csv as the earlier ProcessRun.to_csv wrote it, cell by cell."""
    header = ["n", "t"]
    for j in range(1, 5):
        header += [f"re_z1_{j}", f"im_z1_{j}", f"re_z2_{j}", f"im_z2_{j}"]
    header += ["re_mean1", "im_mean1", "re_mean2", "im_mean2"]
    rows = []
    for n in range(len(run)):
        row = [n, run.times[n]]
        for z in (*run.vertices[n], run.means[n]):
            row += [z[0].real, z[0].imag, z[1].real, z[1].imag]
        rows.append(row)
    return oracle_csv(header, rows)


def test_write_csv_formats_each_column_by_its_dtype(tmp_path):
    from zitterlab.fileio import write_csv

    columns = {
        "int": [1, -7, 0, -0],
        "int64": np.array([2**62, -(2**63), 3, 0], dtype=np.int64),
        "int32": np.array([3, -1, 2**31 - 1, 0], dtype=np.int32),
        "uint8": np.array([255, 0, 1, 7], dtype=np.uint8),
        "bool": [True, False, np.bool_(True), False],
        "str": ["tag", "", "x,y", "%d %s"],
        "float32": np.array([0.1, -0.0, 1e-45, np.inf], dtype=np.float32),
        "float": [np.float64(0.1), float("nan"), -0.0, 5e-324],
        "extremes": [float("inf"), float("-inf"), -1.7976931348623157e308, 1e22],
    }
    header = list(columns)
    path = tmp_path / "mixed.csv"
    write_csv(path, header, list(columns.values()))
    rows = list(zip(*map(np.asarray, columns.values())))
    assert path.read_bytes() == oracle_csv(header, rows)
    assert path.read_text().splitlines()[1:] == [
        "1,4611686018427387904,3,255,1,tag,0.10000000149011612,0.10000000000000001,inf",
        "-7,-9223372036854775808,-1,0,0,,-0,nan,-inf",
        "0,3,2147483647,1,1,x,y,1.4012984643248171e-45,-0,-1.7976931348623157e+308",
        "0,0,0,7,0,%d %s,inf,4.9406564584124654e-324,1e+22",
    ]
    write_csv(path, header, [])
    assert path.read_bytes() == (",".join(header) + "\n").encode()


@pytest.mark.parametrize(
    "mode,vel",
    [
        (zl.EpsilonMode.FIXED, zl.CircularVelocity(omega=2.0, amplitude=0.7)),
        (zl.EpsilonMode.DE_BROGLIE, zl.PolynomialVelocity((2.0, 1.5), (0.5 + 0.25j, -0.25))),
    ],
    ids=["circular", "de_broglie"],
)
def test_run_csv_matches_per_cell_rule(tmp_path, mode, vel):
    run = zl.run_process(params(0.01, hbar=0.7, mass=1.3, epsilon_mode=mode), zl.Permutation(), vel, (0.3, -1j), 3.0)
    run.to_csv(tmp_path / "run.csv")
    assert (tmp_path / "run.csv").read_bytes() == oracle_run_csv(run)
