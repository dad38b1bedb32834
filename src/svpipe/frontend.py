"""Feature preprocessing: sliding-window normalization and context expansion.

Features are (T, D) float64 matrices at a nominal frame rate (100 frames/s,
a 10 ms step, in the default corpus). Both operations preserve the frame count and
replicate edge frames at utterance boundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ShapeError

STD_FLOOR = 1e-10


def _check_frames(frames):
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise InputError("features must be a non-empty (T, D) matrix")
    if not np.isfinite(frames).all():
        raise InputError("non-finite values in features")
    return frames


def stmvn(frames, window_s, frame_rate_hz):
    """Short-term mean/variance normalization over a centered sliding window.

    The window covers round(window_s * frame_rate_hz) frames, clipped to the
    utterance bounds near the edges. Per-coefficient standard deviations are
    floored at 1e-10, so constant inputs map to zero.
    """
    frames = _check_frames(frames)
    if window_s <= 0.0:
        raise InputError("window length must be positive")
    t_total, _ = frames.shape
    n = max(1, int(round(window_s * frame_rate_hz)))
    half_left = (n - 1) // 2
    half_right = n // 2
    t = np.arange(t_total)
    starts = np.maximum(0, t - half_left)
    ends = np.minimum(t_total, t + half_right + 1)
    cum = np.vstack([np.zeros((1, frames.shape[1])), np.cumsum(frames, axis=0)])
    cum_sq = np.vstack([np.zeros((1, frames.shape[1])), np.cumsum(frames**2, axis=0)])
    counts = (ends - starts).astype(np.float64)[:, None]
    mean = (cum[ends] - cum[starts]) / counts
    var = (cum_sq[ends] - cum_sq[starts]) / counts - mean**2
    std = np.sqrt(np.maximum(var, 0.0))
    std = np.maximum(std, STD_FLOOR)
    return (frames - mean) / std


def dct_bases(length, n_bases):
    """First n_bases rows of the orthonormal DCT-II basis of the given length."""
    if n_bases < 1 or n_bases > length:
        raise ShapeError("number of bases must be in [1, window length]")
    j = np.arange(length)
    k = np.arange(n_bases)[:, None]
    bases = np.cos(np.pi * (2 * j + 1) * k / (2.0 * length))
    scale = np.full(n_bases, np.sqrt(2.0 / length))
    scale[0] = np.sqrt(1.0 / length)
    return bases * scale[:, None]


def context_expand(frames, half_window, n_dct):
    """Hamming-weighted DCT projection of per-coefficient temporal trajectories.

    For each frame, the trajectory of every coefficient over the surrounding
    2*half_window+1 frames (edges replicated) is multiplied by a Hamming
    window and projected onto the first n_dct orthonormal DCT-II bases.
    Output width is D * n_dct, ordered coefficient-major: columns
    [d * n_dct + k] hold basis k of coefficient d. Linear in the input.

    The summation order is part of the contract: every output adds its
    window terms proj[k, l] * frame[t + l - half_window] one at a time in
    window order l = 0, 1, ..., starting from zero, so the result is
    bit-identical from release to release (and to an einsum over the
    gathered (T, window, D) trajectories for D >= 2).
    """
    frames = _check_frames(frames)
    if half_window < 0:
        raise InputError("half_window must be non-negative")
    t_total, dim = frames.shape
    length = 2 * half_window + 1
    if not 1 <= n_dct <= length:
        raise InputError("n_dct must be in [1, 2*half_window+1]")
    window = np.hamming(length)
    proj = dct_bases(length, n_dct) * window  # (n_dct, length)
    padded = np.pad(frames, ((half_window, half_window), (0, 0)), mode="edge")
    acc = np.zeros((n_dct, t_total, dim))
    term = np.empty_like(acc)
    for l in range(length):
        np.multiply(proj[:, l, None, None], padded[None, l : l + t_total], out=term)
        acc += term
    return acc.transpose(1, 2, 0).reshape(t_total, dim * n_dct)
