"""Cycle observables: spin, uncertainty product, string geometry.

The spin oracle below re-derives the 16-term average directly from the raw
real positions of a run, independently of the library's implementation.
``loop_measure_run`` is the earlier per-cycle implementation of
``measure_run``, kept here as an independent oracle for the batched kernel.
"""

import math

import numpy as np
import pytest

import zitterlab as zl
from zitterlab.observables import CycleObservables


def _wedge(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def loop_measure_run(run):
    """One cycle at a time, in the summation order the kernel must keep."""
    out = []
    r_all = run.real_vertices()
    rm_all = run.real_means()
    for q in range(run.n_cycles):
        lo = 4 * q
        r = r_all[lo : lo + 5]
        rm = rm_all[lo : lo + 5]
        eps = run.epsilons[lo + 1]
        mass = run.params.mass
        p = mass * np.diff(r, axis=0) / eps
        pm = mass * np.diff(rm, axis=0) / eps
        sigma_total = float(np.mean(_wedge(r[:4], p)))
        sigma_orbital = float(np.mean(_wedge(rm[:4], pm)))
        dx2 = float(np.mean((r[:4, :, 0] - rm[:4, None, 0]) ** 2))
        dp2 = float(np.mean((p[:, :, 0] - pm[:, None, 0]) ** 2))
        sides = np.linalg.norm(np.roll(r[:4], -1, axis=1) - r[:4], axis=2)  # (4 steps, 4 sides)
        out.append(
            CycleObservables(
                cycle_index=q,
                t_start=float(run.times[lo]),
                sigma_z=sigma_total,
                sigma_orbital=sigma_orbital,
                sigma_intrinsic=sigma_total - sigma_orbital,
                delta_x=float(np.sqrt(dx2)),
                delta_px=float(np.sqrt(dp2)),
                heisenberg_product=float(np.sqrt(dx2) * np.sqrt(dp2)),
                string_lengths=tuple(float(s) for s in sides.sum(axis=1)),
            )
        )
    return out


def brute_force_cycle_spin(run, q):
    """Average of r ^ p over the 4 vertices and 4 instants of cycle q."""
    r = run.real_vertices()
    eps = run.epsilons[4 * q + 1]
    m = run.params.mass
    total = 0.0
    for n in range(4 * q, 4 * q + 4):
        for j in range(4):
            p = m * (r[n + 1, j] - r[n, j]) / eps
            total += r[n, j, 0] * p[1] - r[n, j, 1] * p[0]
    return total / 16.0


def brute_force_uncertainties(run, q):
    r = run.real_vertices()
    rm = run.real_means()
    eps = run.epsilons[4 * q + 1]
    m = run.params.mass
    dx2 = dp2 = 0.0
    for n in range(4 * q, 4 * q + 4):
        pm = m * (rm[n + 1] - rm[n]) / eps
        for j in range(4):
            p = m * (r[n + 1, j] - r[n, j]) / eps
            dx2 += (r[n, j, 0] - rm[n, 0]) ** 2
            dp2 += (p[0] - pm[0]) ** 2
    return math.sqrt(dx2 / 16.0), math.sqrt(dp2 / 16.0)


PROGRAMS = [
    ("zero", zl.zero_velocity()),
    ("constant", zl.ConstantVelocity(0.8, -0.5)),
    ("circular", zl.CircularVelocity()),
]


@pytest.fixture(params=PROGRAMS, ids=[name for name, _ in PROGRAMS])
def any_run(request):
    _, vel = request.param
    params = zl.PhysParams(epsilon=0.05)
    return zl.run_process(params, zl.Permutation(), vel, (0, 0), 20 * 4 * 0.05)


class TestCycleSpin:
    def test_total_matches_brute_force(self, any_run):
        for q in (0, 7, 19):
            states = [any_run[n] for n in range(4 * q, 4 * q + 5)]
            sigma_z, _, _ = zl.cycle_spin(states)
            assert sigma_z == pytest.approx(brute_force_cycle_spin(any_run, q), abs=1e-13)

    def test_intrinsic_is_minus_half(self, any_run):
        for c in zl.measure_run(any_run):
            assert abs(c.sigma_intrinsic + 0.5) < 1e-12
            assert c.sigma_z == pytest.approx(c.sigma_orbital + c.sigma_intrinsic, abs=1e-14)

    def test_zero_drift_has_no_orbital_part(self):
        run = zl.run_process(zl.PhysParams(epsilon=0.1), zl.Permutation(), zl.zero_velocity(), (0, 0), 2.0)
        sigma_z, orb, intr = zl.cycle_spin(run[0:5])
        assert sigma_z == pytest.approx(-0.5, abs=1e-14)
        assert orb == 0.0
        assert intr == pytest.approx(-0.5, abs=1e-14)

    def test_s_minus_flips_sign(self):
        run = zl.run_process(
            zl.PhysParams(epsilon=0.02),
            zl.Permutation(zl.Sense.S_MINUS),
            zl.CircularVelocity(),
            (0, 0),
            1.0,
        )
        for c in zl.measure_run(run):
            assert abs(c.sigma_intrinsic - 0.5) < 1e-12

    @pytest.mark.parametrize("hbar,mass,eps", [(1, 1, 0.3), (2, 1, 0.1), (1, 5, 0.01), (0.7, 0.3, 1.0)])
    def test_intrinsic_independent_of_parameters(self, hbar, mass, eps):
        params = zl.PhysParams(hbar=hbar, mass=mass, epsilon=eps)
        run = zl.run_process(params, zl.Permutation(), zl.ConstantVelocity(1.0, 0.0), (0, 0), 8 * eps)
        for c in zl.measure_run(run):
            assert c.sigma_intrinsic == pytest.approx(-hbar / 2, rel=1e-12)

    def test_misaligned_cycle_rejected(self, any_run):
        with pytest.raises(zl.MisalignedCycle):
            zl.cycle_spin([any_run[n] for n in range(1, 6)])
        with pytest.raises(zl.MisalignedCycle):
            zl.cycle_spin([any_run[n] for n in range(0, 4)])
        shuffled = [any_run[n] for n in (0, 2, 1, 3, 4)]
        with pytest.raises(zl.MisalignedCycle):
            zl.cycle_spin(shuffled)


class TestClosedForm:
    def test_both_senses(self):
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 1.0) == -0.5
        assert zl.intrinsic_spin_closed_form(zl.Permutation(zl.Sense.S_MINUS), 1.0) == 0.5

    def test_linear_in_hbar(self):
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 2.0) == -1.0
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 0.25) == -0.125

    def test_matches_measured_runs(self, any_run):
        target = zl.intrinsic_spin_closed_form(any_run.perm, any_run.params.hbar)
        for c in zl.measure_run(any_run):
            assert c.sigma_intrinsic == pytest.approx(target, rel=1e-12)


class TestUncertainties:
    def test_unit_parameters(self):
        run = zl.run_process(zl.PhysParams(epsilon=1.0), zl.Permutation(), zl.CircularVelocity(), (0, 0), 8.0)
        dx, dp = zl.cycle_uncertainties(run[0:5])
        assert dx == pytest.approx(math.sqrt(0.5), rel=1e-13)
        assert dp == pytest.approx(math.sqrt(0.5), rel=1e-13)
        assert dx * dp == pytest.approx(0.5, rel=1e-13)

    def test_matches_brute_force(self, any_run):
        for q in (0, 11):
            states = [any_run[n] for n in range(4 * q, 4 * q + 5)]
            dx, dp = zl.cycle_uncertainties(states)
            bx, bp = brute_force_uncertainties(any_run, q)
            assert dx == pytest.approx(bx, rel=1e-12)
            assert dp == pytest.approx(bp, rel=1e-12)

    def test_quadrupling_epsilon_scales_spreads(self):
        def spreads(eps):
            run = zl.run_process(zl.PhysParams(epsilon=eps), zl.Permutation(), zl.zero_velocity(), (0, 0), 8 * eps)
            return zl.cycle_uncertainties(run[0:5])

        dx1, dp1 = spreads(0.01)
        dx4, dp4 = spreads(0.04)
        assert dx4 == pytest.approx(2 * dx1, rel=1e-12)
        assert dp4 == pytest.approx(dp1 / 2, rel=1e-12)

    def test_product_invariance_over_three_decades(self):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            for mass in (0.5, 3.0):
                params = zl.PhysParams(epsilon=eps, mass=mass)
                run = zl.run_process(params, zl.Permutation(), zl.CircularVelocity(), (0, 0), 8 * eps)
                dx, dp = zl.cycle_uncertainties(run[0:5])
                assert dx * dp == pytest.approx(0.5, rel=1e-12)
                assert dx == pytest.approx(math.sqrt(eps / (2 * mass)), rel=1e-12)


class TestStringLength:
    def test_cycle_pattern(self):
        run = zl.run_process(zl.PhysParams(epsilon=1.0), zl.Permutation(), zl.zero_velocity(), (0, 0), 8.0)
        lengths = [zl.string_length(run[n]) for n in range(5)]
        assert lengths[0] == 0.0
        assert lengths[1] == pytest.approx(4 * math.sqrt(2), rel=1e-13)
        assert lengths[2] == pytest.approx(8.0, rel=1e-13)
        assert lengths[3] == pytest.approx(lengths[1], rel=1e-13)
        assert lengths[4] == 0.0
        assert lengths[2] == max(lengths)

    def test_extension_contraction_in_observables(self, any_run):
        for c in zl.measure_run(any_run):
            l0, l1, l2, l3 = c.string_lengths
            assert l0 == pytest.approx(0.0, abs=1e-12)
            assert l1 == pytest.approx(l3, rel=1e-10)
            assert l2 == max(c.string_lengths)


def test_measure_cycle_matches_measure_run(any_run):
    per_run = zl.measure_run(any_run)
    for q in (0, 5):
        states = [any_run[n] for n in range(4 * q, 4 * q + 5)]
        single = zl.measure_cycle(states)
        assert single.sigma_z == pytest.approx(per_run[q].sigma_z, abs=1e-14)
        assert single.delta_x == pytest.approx(per_run[q].delta_x, rel=1e-14)
        assert single.string_lengths == pytest.approx(per_run[q].string_lengths, rel=1e-12)
        assert single.cycle_index == q


def test_observables_csv(tmp_path):
    run = zl.run_process(zl.PhysParams(epsilon=0.1), zl.Permutation(), zl.CircularVelocity(), (0, 0), 2.0)
    path = tmp_path / "obs.csv"
    zl.observables_to_csv(path, zl.measure_run(run))
    lines = path.read_text().splitlines()
    assert lines[0] == "q,t_start,sigma_z,sigma_orbital,sigma_intrinsic,delta_x,delta_px,product,len0,len1,len2,len3"
    assert len(lines) == 1 + run.n_cycles
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[7]) == pytest.approx(0.5, rel=1e-12)


ORACLE_RUNS = {
    "fixed_s_plus": (zl.PhysParams(epsilon=0.03), zl.Sense.S_PLUS, zl.CircularVelocity(omega=2.0), 6.0),
    "fixed_s_minus": (zl.PhysParams(epsilon=0.03), zl.Sense.S_MINUS, zl.CircularVelocity(omega=2.0), 6.0),
    "compton": (
        zl.PhysParams(mass=2.0, light_speed=3.0, epsilon_mode=zl.EpsilonMode.COMPTON),
        zl.Sense.S_PLUS,
        zl.ConstantVelocity(0.8, -0.5),
        5.0,
    ),
    # the drift speed grows with t, so every cycle has its own eps
    "de_broglie_s_plus": (
        zl.PhysParams(hbar=0.7, mass=1.3, epsilon_mode=zl.EpsilonMode.DE_BROGLIE),
        zl.Sense.S_PLUS,
        zl.PolynomialVelocity((2.0, 1.5), (0.5, -0.25)),
        6.0,
    ),
    "de_broglie_s_minus": (
        zl.PhysParams(epsilon_mode=zl.EpsilonMode.DE_BROGLIE),
        zl.Sense.S_MINUS,
        zl.PolynomialVelocity((3.0, 2.0), (0.0,)),
        4.0,
    ),
    "no_complete_cycle": (zl.PhysParams(epsilon=0.1), zl.Sense.S_PLUS, zl.CircularVelocity(), 0.35),
}


@pytest.mark.parametrize("name", list(ORACLE_RUNS))
def test_measure_run_equals_per_cycle_loop(name):
    params, sense, vel, T = ORACLE_RUNS[name]
    run = zl.run_process(params, zl.Permutation(sense), vel, (0.3, -1.2), T)
    expected = loop_measure_run(run)
    got = zl.measure_run(run)
    assert isinstance(got, list)
    assert len(got) == run.n_cycles
    if name.startswith("de_broglie"):
        assert len(set(run.epsilons[1::4])) == run.n_cycles >= 3
    if name == "no_complete_cycle":
        assert got == []
    # dataclass equality compares every field with ==, floats included
    assert got == expected
    for q in (0, run.n_cycles - 1) if run.n_cycles else ():
        assert zl.measure_cycle([run[n] for n in range(4 * q, 4 * q + 5)]) == expected[q]
