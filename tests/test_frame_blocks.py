"""A free frame stream is built FRAME_BLOCK frames at a time from frame 0's
spectra: frame k equals advance(frame 0, k stride) bit for bit, a guard
failure surfaces at its own frame, and no frame holds a view of a block."""

import math

import numpy as np
import pytest

import zitterlab as zl
from zitterlab import schrodinger as sch
from zitterlab.cli import parse_config
from zitterlab.scenarios import run_scenario

B = sch.FRAME_BLOCK
STRIDE = 3
DT = 5e-3
GRIDS = {"64": zl.Grid2D(64, 8.0), "256": zl.Grid2D(256, 12.0)}
N_FRAMES = [0, 1, B - 1, B, B + 1, 2 * B + 1]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def stream(grid, n_frames):
    """(propagator, psi0, frames generator) of a free packet on grid."""
    psi0 = zl.init_gaussian(grid, (0.5, -0.5), 1.0, (1.0, 0.5))
    prop = zl.Propagator(grid, zl.free_potential(), DT)
    return prop, psi0, prop.frames(psi0, STRIDE, n_frames)


def assert_same_frame(a, b):
    assert a.time == b.time
    assert all(np.array_equal(bits(fa), bits(fb)) for fa, fb in zip(a.factors, b.factors))


def mid_last_block(n_frames):
    """A frame in the middle of the last block of frames 1..n_frames."""
    start = 1 + B * ((n_frames - 1) // B)
    return (start + n_frames) // 2


@pytest.mark.parametrize("n_frames", N_FRAMES)
@pytest.mark.parametrize("n", list(GRIDS))
class TestBlockStream:
    def test_frame_k_is_advance_of_frame_0(self, n, n_frames):
        prop, psi0, frames = stream(GRIDS[n], n_frames)
        frames = list(frames)
        assert len(frames) == n_frames + 1
        assert_same_frame(frames[0], psi0)
        for k, frame in enumerate(frames):
            assert_same_frame(frame, prop.advance(frames[0], k * STRIDE))

    @pytest.mark.parametrize("fault, message", [(np.nan, "non-finite"), (2.0, "norm moved")])
    def test_a_planted_failure_raises_at_its_frame(self, monkeypatch, n, n_frames, fault, message):
        prop, psi0, frames = stream(GRIDS[n], n_frames)
        real_phase = sch._kinetic_phase
        if n_frames == 0:
            # frame 0 is a copy of psi0, and no phase is read
            monkeypatch.setattr(sch, "_kinetic_phase", lambda s, k2: fault * real_phase(s, k2))
            assert_same_frame(*frames, psi0)
            return
        bad = mid_last_block(n_frames)
        target = prop._hbar_over_2m * (bad * STRIDE) * DT
        # the phase of frame bad's time alone is NaN, or of modulus 2
        monkeypatch.setattr(sch, "_kinetic_phase", lambda s, k2: np.where(s == target, fault, 1.0) * real_phase(s, k2))
        for k in range(bad):
            frame = next(frames)
            assert_same_frame(frame, prop.advance(psi0, k * STRIDE))
        with pytest.raises(zl.ResolutionLoss, match=message):
            next(frames)

    def test_close_after_k_frames(self, n, n_frames):
        for k in sorted({0, 1, n_frames // 2, n_frames}):
            prop, psi0, frames = stream(GRIDS[n], n_frames)
            taken = [next(frames) for _ in range(k)]
            frames.close()
            with pytest.raises(StopIteration):
                next(frames)
            for j, frame in enumerate(taken):
                assert_same_frame(frame, prop.advance(psi0, j * STRIDE))

    def test_each_frame_owns_its_factors(self, n, n_frames):
        _, _, frames = stream(GRIDS[n], n_frames)
        for frame in frames:
            # no view into a block: each factor holds its own n numbers
            assert all(f.base is None or f.base.size == f.size for f in frame.factors)


def squared_norm(frame):
    return sch._squared_norm(frame.grid, sch._densities(frame))


@pytest.mark.parametrize("scenario", ["free_gaussian", "equivariance", "guided_process"])
def test_norm_holds_on_the_default_free_streams(tmp_path, monkeypatch, scenario):
    real_stream = sch.stream_frames
    drifts = []

    def recorded(*args, **kwargs):
        norm0 = None
        for frame in real_stream(*args, **kwargs):
            norm0 = norm0 or squared_norm(frame)
            drifts.append(abs(squared_norm(frame) / norm0 - 1.0))
            yield frame

    monkeypatch.setattr(sch, "stream_frames", recorded)
    assert run_scenario(parse_config(f"scenario = {scenario}\n"), tmp_path).passed
    assert len(drifts) > 100 and math.isfinite(max(drifts))
    assert max(drifts) <= 2e-15
