import tracemalloc

import numpy as np
import pytest

from svpipe import frontend, gmm, recipe
from svpipe.corpus import Utterance
from svpipe.errors import InputError, ShapeError


def gathered_trajectories(frames, half_window, n_dct):
    """Every (T, window, D) trajectory, edges clipped, and the window projection."""
    t_total = frames.shape[0]
    length = 2 * half_window + 1
    proj = frontend.dct_bases(length, n_dct) * np.hamming(length)
    idx = np.clip(
        np.arange(t_total)[:, None] + np.arange(-half_window, half_window + 1),
        0,
        t_total - 1,
    )
    return frames[idx], proj


def gather_einsum_context_expand(frames, half_window, n_dct):
    """Reference: the term-by-term sum over gathered trajectories (one einsum)."""
    t_total, dim = frames.shape
    trajectories, proj = gathered_trajectories(frames, half_window, n_dct)
    out = np.einsum("kl,tld->tdk", proj, trajectories)
    return out.reshape(t_total, dim * n_dct)


def gather_matmul_context_expand(frames, half_window, n_dct):
    """Reference: one (T, D, window) @ (window, n_dct) product over gathered copies."""
    t_total, dim = frames.shape
    trajectories, proj = gathered_trajectories(frames, half_window, n_dct)
    out = trajectories.transpose(0, 2, 1) @ proj.T
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


KERNEL_CASES = [
    (400, 20, 15, 6),  # desk frontend
    (37, 60, 15, 6),
    (1, 3, 15, 6),  # single frame
    (9, 2, 15, 6),  # fewer frames than half_window
    (25, 4, 0, 1),  # no context
    (30, 3, 4, 9),  # n_dct equal to the window length
    (300, 1, 15, 6),  # one coefficient
    (6000, 20, 15, 6),  # a minute of frames
]


@pytest.mark.parametrize("n_frames, dim, half_window, n_dct", KERNEL_CASES)
def test_context_expand_bit_equal_to_gather_matmul(n_frames, dim, half_window, n_dct):
    # pins edge replication and column order bit for bit
    frames = np.random.default_rng(n_frames * dim).standard_normal((n_frames, dim))
    out = frontend.context_expand(frames, half_window, n_dct)
    ref = gather_matmul_context_expand(frames, half_window, n_dct)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("n_frames, dim, half_window, n_dct", KERNEL_CASES)
def test_context_expand_within_ulps_of_term_by_term_sum(
    n_frames, dim, half_window, n_dct
):
    frames = np.random.default_rng(n_frames * dim).standard_normal((n_frames, dim))
    out = frontend.context_expand(frames, half_window, n_dct)
    ref = gather_einsum_context_expand(frames, half_window, n_dct)
    assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()


def test_context_expand_of_non_contiguous_frames_equals_contiguous_copy():
    wide = np.random.default_rng(9).standard_normal((500, 41))
    for frames in (wide[:, 1::2], wide[:, 3:23], np.asfortranarray(wide[:, :20])):
        assert not frames.flags.c_contiguous
        out = frontend.context_expand(frames, 15, 6)
        assert np.array_equal(out, frontend.context_expand(frames.copy(order="C"), 15, 6))


def test_context_expand_copies_no_trajectory():
    # gathering the (T, D, window) trajectories would take 31x the input
    n_frames, dim, half_window, n_dct = 6000, 20, 15, 6
    frames = np.random.default_rng(10).standard_normal((n_frames, dim))
    tracemalloc.start()
    try:
        out = frontend.context_expand(frames, half_window, n_dct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = (n_frames + 2 * half_window) * dim * 8
    assert peak <= out.nbytes + 2 * padded + 2**20


def test_context_expand_single_coefficient_matches_gather_einsum():
    # einsum takes another vector path for D = 1, so only rounding agrees
    frames = np.random.default_rng(8).standard_normal((300, 1))
    out = frontend.context_expand(frames, 15, 6)
    ref = gather_einsum_context_expand(frames, 15, 6)
    assert np.abs(out - ref).max() <= 1e-14


def test_window_longer_than_the_utterance_normalizes_over_all_of_it():
    # 2T-1 frames already reach every frame from every frame; an overlong
    # or infinite window (1e308 s at 100 Hz) is clamped and gives the same bits
    frames = np.random.default_rng(5).standard_normal((7, 3))
    whole = (frames - frames.mean(axis=0)) / frames.std(axis=0)
    spanning = frontend.stmvn(frames, 0.13, 100.0)  # 13 = 2T-1 frames
    for window_s, rate in [(0.15, 100.0), (40.0, 100.0), (1e308, 100.0), (3.0, 1e300)]:
        out = frontend.stmvn(frames, window_s, rate)
        assert np.array_equal(out, spanning)
    np.testing.assert_allclose(spanning, whole, rtol=1e-12, atol=1e-12)



# frame counts around the window of frontend.context=15: one frame, fewer
# than the window, exactly the window, and longer
WINDOW_LENGTHS = [1, 7, 31, 32, 120, 1, 45]


def _f2s_set(lengths, dim=3, half_window=15, n_dct=6, components=4, seed=11, offsets=None):
    """recipe.f2s_matrices on in-memory train utterances of the given lengths.

    Returns (windows, targets, cfg, utts, rate); offsets, if given, are added
    to the frames of each utterance.
    """
    rng = np.random.default_rng(seed)
    offsets = offsets or [0.0] * len(lengths)
    utts = [
        Utterance(f"u{i}", "s", "train", rng.standard_normal((t, dim)) + off)
        for i, (t, off) in enumerate(zip(lengths, offsets))
    ]
    ubm = gmm.DiagGmm(
        np.full(components, 1.0 / components),
        np.random.default_rng(seed + 1).standard_normal((components, dim)),
        np.ones((components, dim)),
    )
    cfg = recipe.Config({
        "frontend.context": str(half_window), "frontend.n_dct": str(n_dct),
        "frontend.window_s": "0.5",
    })
    rate = 100.0
    windows, targets = recipe.f2s_matrices(cfg, ubm, utts, rate)
    return windows, targets, cfg, utts, rate


def _expanded_per_utterance(cfg, utts, rate):
    return [
        frontend.context_expand(
            frontend.stmvn(u.features, cfg.get("frontend.window_s"), rate),
            cfg.get("frontend.context"),
            cfg.get("frontend.n_dct"),
        )
        for u in utts
    ]


def test_context_windows_equal_context_expand_of_each_utterance():
    windows, targets, cfg, utts, rate = _f2s_set(WINDOW_LENGTHS)
    expanded = _expanded_per_utterance(cfg, utts, rate)
    stacked = np.vstack(expanded)
    assert windows.shape == stacked.shape == (sum(WINDOW_LENGTHS), 3 * 6)
    assert targets.shape[0] == stacked.shape[0]
    assert np.array_equal(windows[np.arange(stacked.shape[0])], stacked)
    # shuffled minibatches, as train_sgd draws them, the last one short
    order = np.random.default_rng(0).permutation(stacked.shape[0])
    for lo in range(0, len(order), 16):
        idx = order[lo : lo + 16]
        assert np.array_equal(windows[idx], stacked[idx])


def test_context_windows_first_and_last_frame_of_each_utterance():
    windows, _, cfg, utts, rate = _f2s_set(WINDOW_LENGTHS)
    expanded = _expanded_per_utterance(cfg, utts, rate)
    ends = np.cumsum(WINDOW_LENGTHS)
    firsts, lasts = ends - WINDOW_LENGTHS, ends - 1
    assert np.array_equal(windows[firsts], np.vstack([e[:1] for e in expanded]))
    assert np.array_equal(windows[lasts], np.vstack([e[-1:] for e in expanded]))
    # a lone frame's window is that frame replicated 31 times
    assert np.array_equal(windows[firsts[:1]], expanded[0])


def test_context_windows_never_read_a_neighbouring_utterance():
    # the neighbours of utterance 2 move by 1e6; its rows keep their bits
    lengths = [5, 40, 3, 40, 6]
    quiet, *_ = _f2s_set(lengths)
    loud, *_ = _f2s_set(lengths, offsets=[1e6, 1e6, 0.0, -1e6, 1e6])
    rows = np.arange(45, 48)  # utterance 2, three frames, each at a boundary
    assert np.array_equal(quiet[rows], loud[rows])


def test_context_windows_without_context_are_the_normalized_frames_projected():
    windows, _, cfg, utts, rate = _f2s_set([4, 1, 9], half_window=0, n_dct=1)
    assert np.array_equal(
        windows[np.arange(14)], np.vstack(_expanded_per_utterance(cfg, utts, rate))
    )


def test_context_windows_reject_padding_that_does_not_match_the_lengths():
    padded = np.zeros((3 + 4 + 2 * 2 * 3, 2))  # two utterances, 3 rows of padding a side
    frontend.ContextWindows(padded, [3, 4], 3, 2)
    with pytest.raises(ShapeError):
        frontend.ContextWindows(padded, [3, 5], 3, 2)
    with pytest.raises(InputError):
        frontend.ContextWindows(padded, [3, 4], 3, 8)  # n_dct > window length


def test_f2s_training_set_holds_padded_frames_not_expanded_rows():
    # 40 utterances of 800 frames: the expanded rows would take 30.7 MB, the
    # padded frames take 5.3 MB and the targets 8.2 MB
    lengths = [800] * 40
    half_window, n_dct, dim, components = 15, 6, 20, 32
    rng = np.random.default_rng(12)
    utts = [
        Utterance(f"u{i}", "s", "train", rng.standard_normal((t, dim)))
        for i, t in enumerate(lengths)
    ]
    ubm = gmm.DiagGmm(
        np.full(components, 1.0 / components),
        rng.standard_normal((components, dim)),
        np.ones((components, dim)),
    )
    cfg = recipe.Config()
    assert (cfg.get("frontend.context"), cfg.get("frontend.n_dct")) == (half_window, n_dct)
    tracemalloc.start()
    try:
        windows, targets = recipe.f2s_matrices(cfg, ubm, utts, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert windows.padded.nbytes == (sum(lengths) + 2 * half_window * len(lengths)) * dim * 8
    expanded_bytes = sum(lengths) * dim * n_dct * 8
    assert peak < windows.padded.nbytes + targets.nbytes + 3 * 2**20
    assert peak < expanded_bytes / 2
