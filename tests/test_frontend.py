import numpy as np
import pytest

from svpipe import frontend, recipe
from svpipe.errors import InputError


def gather_einsum_context_expand(frames, half_window, n_dct):
    """Reference: gather every (T, window, D) trajectory, then one einsum."""
    t_total, dim = frames.shape
    length = 2 * half_window + 1
    proj = frontend.dct_bases(length, n_dct) * np.hamming(length)
    idx = np.clip(
        np.arange(t_total)[:, None] + np.arange(-half_window, half_window + 1),
        0,
        t_total - 1,
    )
    out = np.einsum("kl,tld->tdk", proj, frames[idx])
    return out.reshape(t_total, dim * n_dct)


def brute_stmvn(frames, window_s, rate):
    t_total, dim = frames.shape
    n = int(round(window_s * rate))
    half_left = (n - 1) // 2
    half_right = n // 2
    out = np.zeros_like(frames)
    for t in range(t_total):
        lo = max(0, t - half_left)
        hi = min(t_total, t + half_right + 1)
        window = frames[lo:hi]
        mean = window.mean(axis=0)
        std = np.maximum(window.std(axis=0), 1e-10)
        out[t] = (frames[t] - mean) / std
    return out


def test_window_is_300_frames_at_3s_100hz():
    # interior frame statistics must come from exactly 300 frames
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((1000, 3))
    out = frontend.stmvn(frames, 3.0, 100.0)
    t = 500
    window = frames[t - 149 : t + 151]  # 300 frames centered
    assert window.shape[0] == 300
    expect = (frames[t] - window.mean(axis=0)) / np.maximum(window.std(axis=0), 1e-10)
    assert np.allclose(out[t], expect, rtol=1e-10)


def test_constant_utterance_maps_to_zero():
    frames = np.full((50, 4), 3.25)
    assert np.array_equal(frontend.stmvn(frames, 1.0, 100.0), np.zeros((50, 4)))


def test_stmvn_matches_bruteforce_windows():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((500, 4)) * 2.0 + 1.0
    out = frontend.stmvn(frames, 0.71, 100.0)
    assert np.allclose(out, brute_stmvn(frames, 0.71, 100.0), rtol=1e-8, atol=1e-10)


def test_stmvn_interior_window_mean_near_zero():
    # each interior frame's own window, normalized by that window's
    # statistics, averages to zero up to accumulation rounding
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((2000, 2))
    n = 50  # 0.5 s window
    half_left, half_right = (n - 1) // 2, n // 2
    out = frontend.stmvn(frames, 0.5, 100.0)
    for t in (100, 777, 1500):
        window = frames[t - half_left : t + half_right + 1]
        mu = window.mean(axis=0)
        sd = np.maximum(window.std(axis=0), 1e-10)
        normalized = (window - mu) / sd
        assert np.abs(normalized.mean(axis=0)).max() < 1e-9
        assert np.allclose(out[t], normalized[half_left], rtol=1e-8)


def test_stmvn_preserves_frame_count_and_rejects_empty():
    frames = np.random.default_rng(3).standard_normal((33, 5))
    assert frontend.stmvn(frames, 1.0, 100.0).shape == (33, 5)
    with pytest.raises(InputError):
        frontend.stmvn(np.zeros((0, 5)), 1.0, 100.0)
    with pytest.raises(InputError):
        frontend.stmvn(frames, 0.0, 100.0)


def test_context_expand_default_width_is_360_for_60dim():
    frames = np.random.default_rng(4).standard_normal((40, 60))
    paper = recipe.Config(recipe.PAPER)
    out = frontend.context_expand(
        frames, paper.get("frontend.context"), paper.get("frontend.n_dct")
    )
    assert out.shape == (40, 360)


def test_constant_trajectory_equals_scaled_hamming_dct():
    const = 2.5
    frames = np.full((20, 3), const)
    out = frontend.context_expand(frames, half_window=15, n_dct=6)
    window = np.hamming(31)
    bases = frontend.dct_bases(31, 6)
    expect = const * (bases * window).sum(axis=1)  # per coefficient, per basis
    for d in range(3):
        assert np.allclose(out[:, d * 6 : (d + 1) * 6], expect, atol=1e-12)


def test_single_frame_utterance_matches_31_point_oracle():
    rng = np.random.default_rng(5)
    frame = rng.standard_normal((1, 4))
    out = frontend.context_expand(frame, half_window=15, n_dct=6)
    window = np.hamming(31)
    bases = frontend.dct_bases(31, 6)
    for d in range(4):
        trajectory = np.full(31, frame[0, d])
        for k in range(6):
            expect = float((trajectory * window * bases[k]).sum())
            assert abs(out[0, d * 6 + k] - expect) < 1e-12


def test_context_expand_is_linear():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((25, 4))
    y = rng.standard_normal((25, 4))
    a, b = 1.7, -0.3
    left = frontend.context_expand(a * x + b * y, 5, 3)
    right = a * frontend.context_expand(x, 5, 3) + b * frontend.context_expand(y, 5, 3)
    assert np.abs(left - right).max() < 1e-12


def test_context_expand_frame_count_and_errors():
    frames = np.random.default_rng(7).standard_normal((17, 2))
    assert frontend.context_expand(frames, 4, 2).shape == (17, 4)
    with pytest.raises(InputError):
        frontend.context_expand(np.zeros((0, 2)), 4, 2)
    with pytest.raises(InputError):
        frontend.context_expand(frames, 2, 9)  # n_dct > window length


@pytest.mark.parametrize(
    "n_frames, dim, half_window, n_dct",
    [
        (400, 20, 15, 6),  # desk frontend
        (37, 60, 15, 6),
        (1, 3, 15, 6),  # single frame
        (9, 2, 15, 6),  # fewer frames than half_window
        (25, 4, 0, 1),  # no context
        (30, 3, 4, 9),  # n_dct equal to the window length
    ],
)
def test_context_expand_bit_equal_to_gather_einsum(n_frames, dim, half_window, n_dct):
    frames = np.random.default_rng(n_frames * dim).standard_normal((n_frames, dim))
    out = frontend.context_expand(frames, half_window, n_dct)
    ref = gather_einsum_context_expand(frames, half_window, n_dct)
    assert np.array_equal(out, ref)


def test_context_expand_single_coefficient_matches_gather_einsum():
    # einsum takes another vector path for D = 1, so only rounding agrees
    frames = np.random.default_rng(8).standard_normal((300, 1))
    out = frontend.context_expand(frames, 15, 6)
    ref = gather_einsum_context_expand(frames, 15, 6)
    assert np.abs(out - ref).max() <= 1e-14
