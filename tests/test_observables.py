"""Cycle observables: spin, uncertainty product, string geometry.

The spin oracle below re-derives the 16-term average directly from the raw
real positions of a run, independently of the library's implementation.
``loop_measure_run`` is the earlier per-cycle implementation of
``measure_run``, kept here as an independent oracle for the columnar table,
and ``records_to_csv`` builds the earlier record-by-record CSV of
``observables_to_csv`` cell by cell, kept as a byte oracle for the columnar writer.
"""

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import zitterlab as zl

FIELDS = (
    "cycle_index",
    "t_start",
    "sigma_z",
    "sigma_orbital",
    "sigma_intrinsic",
    "delta_x",
    "delta_px",
    "heisenberg_product",
    "string_lengths",
)


def _wedge(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def loop_measure_run(run):
    """One record per cycle, one cycle at a time, in the summation order the
    columnar kernel must keep."""
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
            dict(
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


def records_to_csv(path, cycles):
    """The row-per-record CSV that observables_to_csv replaced, each cell
    formatted by hand: the cycle index as an integer, every other cell with
    17 significant digits."""
    header = [
        "q",
        "t_start",
        "sigma_z",
        "sigma_orbital",
        "sigma_intrinsic",
        "delta_x",
        "delta_px",
        "product",
        "len0",
        "len1",
        "len2",
        "len3",
    ]
    lines = [",".join(header)]
    for c in cycles:
        floats = [
            c["t_start"],
            c["sigma_z"],
            c["sigma_orbital"],
            c["sigma_intrinsic"],
            c["delta_x"],
            c["delta_px"],
            c["heisenberg_product"],
            *c["string_lengths"],
        ]
        lines.append(",".join([str(int(c["cycle_index"])), *(f"{float(x):.17g}" for x in floats)]))
    path.write_bytes(("\n".join(lines) + "\n").encode())


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
        table = zl.measure_run(any_run)
        for q in (0, 7, 19):
            assert table.sigma_z[q] == pytest.approx(brute_force_cycle_spin(any_run, q), abs=1e-13)

    def test_intrinsic_is_minus_half(self, any_run):
        table = zl.measure_run(any_run)
        assert np.max(np.abs(table.sigma_intrinsic + 0.5)) < 1e-12
        assert table.sigma_z == pytest.approx(table.sigma_orbital + table.sigma_intrinsic, abs=1e-14)

    def test_zero_drift_has_no_orbital_part(self):
        run = zl.run_process(zl.PhysParams(epsilon=0.1), zl.Permutation(), zl.zero_velocity(), (0, 0), 2.0)
        table = zl.measure_run(run)
        assert table.sigma_z[0] == pytest.approx(-0.5, abs=1e-14)
        assert table.sigma_orbital[0] == 0.0
        assert table.sigma_intrinsic[0] == pytest.approx(-0.5, abs=1e-14)

    def test_s_minus_flips_sign(self):
        run = zl.run_process(
            zl.PhysParams(epsilon=0.02),
            zl.Permutation(zl.Sense.S_MINUS),
            zl.CircularVelocity(),
            (0, 0),
            1.0,
        )
        assert np.max(np.abs(zl.measure_run(run).sigma_intrinsic - 0.5)) < 1e-12

    @pytest.mark.parametrize("hbar,mass,eps", [(1, 1, 0.3), (2, 1, 0.1), (1, 5, 0.01), (0.7, 0.3, 1.0)])
    def test_intrinsic_independent_of_parameters(self, hbar, mass, eps):
        params = zl.PhysParams(hbar=hbar, mass=mass, epsilon=eps)
        run = zl.run_process(params, zl.Permutation(), zl.ConstantVelocity(1.0, 0.0), (0, 0), 8 * eps)
        assert zl.measure_run(run).sigma_intrinsic == pytest.approx(-hbar / 2, rel=1e-12)


class TestClosedForm:
    def test_both_senses(self):
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 1.0) == -0.5
        assert zl.intrinsic_spin_closed_form(zl.Permutation(zl.Sense.S_MINUS), 1.0) == 0.5

    def test_linear_in_hbar(self):
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 2.0) == -1.0
        assert zl.intrinsic_spin_closed_form(zl.Permutation(), 0.25) == -0.125

    def test_matches_measured_runs(self, any_run):
        target = zl.intrinsic_spin_closed_form(any_run.perm, any_run.params.hbar)
        assert zl.measure_run(any_run).sigma_intrinsic == pytest.approx(target, rel=1e-12)


class TestUncertainties:
    def test_unit_parameters(self):
        run = zl.run_process(zl.PhysParams(epsilon=1.0), zl.Permutation(), zl.CircularVelocity(), (0, 0), 8.0)
        table = zl.measure_run(run)
        dx, dp = table.delta_x[0], table.delta_px[0]
        assert dx == pytest.approx(math.sqrt(0.5), rel=1e-13)
        assert dp == pytest.approx(math.sqrt(0.5), rel=1e-13)
        assert dx * dp == pytest.approx(0.5, rel=1e-13)

    def test_matches_brute_force(self, any_run):
        table = zl.measure_run(any_run)
        for q in (0, 11):
            bx, bp = brute_force_uncertainties(any_run, q)
            assert table.delta_x[q] == pytest.approx(bx, rel=1e-12)
            assert table.delta_px[q] == pytest.approx(bp, rel=1e-12)

    def test_quadrupling_epsilon_scales_spreads(self):
        def spreads(eps):
            run = zl.run_process(zl.PhysParams(epsilon=eps), zl.Permutation(), zl.zero_velocity(), (0, 0), 8 * eps)
            table = zl.measure_run(run)
            return table.delta_x[0], table.delta_px[0]

        dx1, dp1 = spreads(0.01)
        dx4, dp4 = spreads(0.04)
        assert dx4 == pytest.approx(2 * dx1, rel=1e-12)
        assert dp4 == pytest.approx(dp1 / 2, rel=1e-12)

    def test_product_invariance_over_three_decades(self):
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            for mass in (0.5, 3.0):
                params = zl.PhysParams(epsilon=eps, mass=mass)
                run = zl.run_process(params, zl.Permutation(), zl.CircularVelocity(), (0, 0), 8 * eps)
                table = zl.measure_run(run)
                dx, dp = table.delta_x[0], table.delta_px[0]
                assert dx * dp == pytest.approx(0.5, rel=1e-12)
                assert dx == pytest.approx(math.sqrt(eps / (2 * mass)), rel=1e-12)


class TestStringLength:
    def test_cycle_pattern(self):
        run = zl.run_process(zl.PhysParams(epsilon=1.0), zl.Permutation(), zl.zero_velocity(), (0, 0), 8.0)
        table = zl.measure_run(run)
        # n = 0..3 of cycle 0, then n = 4, which opens cycle 1
        lengths = [*table.string_lengths[0], table.string_lengths[1, 0]]
        assert lengths[0] == 0.0
        assert lengths[1] == pytest.approx(4 * math.sqrt(2), rel=1e-13)
        assert lengths[2] == pytest.approx(8.0, rel=1e-13)
        assert lengths[3] == pytest.approx(lengths[1], rel=1e-13)
        assert lengths[4] == 0.0
        assert lengths[2] == max(lengths)

    def test_extension_contraction_in_observables(self, any_run):
        lengths = zl.measure_run(any_run).string_lengths
        l0, l1, l2, l3 = lengths.T
        assert l0 == pytest.approx(0.0, abs=1e-12)
        assert l1 == pytest.approx(l3, rel=1e-10)
        assert np.array_equal(l2, lengths.max(axis=1))


def test_one_cycle_window_matches_measure_run(any_run):
    """A cycle's row depends only on the 5 states n = 4q..4q+4 of its window."""
    per_run = zl.measure_run(any_run)
    for q in (0, 5):
        w = slice(4 * q, 4 * q + 5)
        window = zl.ProcessRun(
            any_run.times[w], any_run.vertices[w], any_run.means[w], any_run.epsilons[w], any_run.params, any_run.perm
        )
        single = zl.measure_run(window)
        assert len(single) == 1
        assert single.sigma_z[0] == pytest.approx(per_run.sigma_z[q], abs=1e-14)
        assert single.delta_x[0] == pytest.approx(per_run.delta_x[q], rel=1e-14)
        assert single.string_lengths[0] == pytest.approx(per_run.string_lengths[q], rel=1e-12)
        assert single.t_start[0] == per_run.t_start[q]
        assert per_run.cycle_index[q] == q


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


def make_run(name):
    params, sense, vel, T = ORACLE_RUNS[name]
    return zl.run_process(params, zl.Permutation(sense), vel, (0.3, -1.2), T)


@pytest.mark.parametrize("name", list(ORACLE_RUNS))
def test_measure_run_equals_per_cycle_loop(name):
    run = make_run(name)
    expected = loop_measure_run(run)
    got = zl.measure_run(run)
    assert isinstance(got, zl.CycleTable)
    assert len(got) == run.n_cycles
    if name.startswith("de_broglie"):
        assert len(set(run.epsilons[1::4])) == run.n_cycles >= 3
    if name == "no_complete_cycle":
        assert all(getattr(got, f).shape == (0,) for f in FIELDS[:-1])
        assert got.string_lengths.shape == (0, 4)
    # every column bit for bit against the per-cycle records
    for f in FIELDS:
        column = np.array([c[f] for c in expected]).reshape(getattr(got, f).shape)
        assert np.array_equal(getattr(got, f), column), f


@pytest.mark.parametrize("name", ["fixed_s_plus", "de_broglie_s_plus", "no_complete_cycle"])
def test_csv_bytes_match_record_writer(name, tmp_path):
    run = make_run(name)
    zl.observables_to_csv(tmp_path / "table.csv", zl.measure_run(run))
    records_to_csv(tmp_path / "records.csv", loop_measure_run(run))
    got = (tmp_path / "table.csv").read_bytes()
    assert got == (tmp_path / "records.csv").read_bytes()
    assert got.count(b"\n") == 1 + run.n_cycles


@settings(derandomize=True, deadline=None)
@given(
    hbar=st.floats(0.7, 2.0),
    mass=st.floats(0.3, 5.0),
    eps=st.floats(1e-4, 1.0),
    sense=st.sampled_from(list(zl.Sense)),
    vel=st.one_of(
        st.builds(zl.ConstantVelocity, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        st.builds(zl.CircularVelocity, omega=st.floats(1.0, 2.0)),
    ),
    cycles=st.integers(1, 20),
)
def test_spin_and_product_hold_on_every_cycle(hbar, mass, eps, sense, vel, cycles):
    params = zl.PhysParams(hbar=hbar, mass=mass, epsilon=eps)
    perm = zl.Permutation(sense)
    table = zl.measure_run(zl.run_process(params, perm, vel, (0, 0), 4 * cycles * eps))
    assert len(table) == cycles
    assert table.sigma_intrinsic == pytest.approx(zl.intrinsic_spin_closed_form(perm, hbar), rel=1e-12)
    assert table.heisenberg_product == pytest.approx(hbar / 2, rel=1e-12)
