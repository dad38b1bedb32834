"""Feature preprocessing: sliding-window normalization and context expansion.

Features are (T, D) float64 matrices at a nominal frame rate (100 frames/s,
a 10 ms step, in the default corpus). Both operations preserve the frame count and
replicate edge frames at utterance boundaries. ContextWindows serves context
expansion's rows of many utterances a minibatch at a time, from their padded
frames, so a training set never holds the expanded matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ShapeError

STD_FLOOR = 1e-10


def _check_frames(frames):
    """Checked (T, D) float64 frames in C order, so context_expand's bits ignore layout."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise InputError("features must be a non-empty (T, D) matrix")
    if not np.isfinite(frames).all():
        raise InputError("non-finite values in features")
    return frames


def stmvn(frames, window_s, frame_rate_hz):
    """Short-term mean/variance normalization over a centered sliding window.

    The window covers round(window_s * frame_rate_hz) frames, clipped to the
    utterance bounds near the edges. Per-coefficient standard deviations are
    floored at 1e-10, so constant inputs map to zero. A window of 2T-1 or
    more frames spans all T frames everywhere, so longer ones (up to an
    infinite product) are clamped to 2T+1 frames before rounding.
    """
    frames = _check_frames(frames)
    if window_s <= 0.0:
        raise InputError("window length must be positive")
    t_total, _ = frames.shape
    n = max(1, int(round(min(window_s * frame_rate_hz, 2 * t_total + 1))))
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


def _projection(half_window, n_dct):
    """The (n_dct, window) Hamming-weighted DCT-II projection of one trajectory."""
    if half_window < 0:
        raise InputError("half_window must be non-negative")
    length = 2 * half_window + 1
    if not 1 <= n_dct <= length:
        raise InputError("n_dct must be in [1, 2*half_window+1]")
    return dct_bases(length, n_dct) * np.hamming(length)


def _project(trajectories, proj):
    """(T, D, window) trajectories projected by proj, as (T, D * n_dct) rows."""
    t_total, dim, _ = trajectories.shape
    return (trajectories @ proj.T).reshape(t_total, dim * proj.shape[0])


def context_expand(frames, half_window, n_dct):
    """Hamming-weighted DCT projection of per-coefficient temporal trajectories.

    For each frame, the trajectory of every coefficient over the surrounding
    2*half_window+1 frames (edges replicated) is multiplied by a Hamming
    window and projected onto the first n_dct orthonormal DCT-II bases.
    Output width is D * n_dct, ordered coefficient-major: columns
    [d * n_dct + k] hold basis k of coefficient d. Linear in the input.

    The projection is one matrix product over a sliding-window view of the
    edge-padded frames, (T, D, window) @ (window, n_dct), so no trajectory
    is copied. Its output is bit-identical to the same product over
    explicitly gathered (T, D, window) trajectories, and within a few ulps
    of the term-by-term sum.
    """
    frames = _check_frames(frames)
    proj = _projection(half_window, n_dct)
    padded = np.pad(frames, ((half_window, half_window), (0, 0)), mode="edge")
    trajectories = np.lib.stride_tricks.sliding_window_view(padded, proj.shape[1], axis=0)
    return _project(trajectories, proj)


class ContextWindows:
    """context_expand's rows of many utterances, expanded only when asked for.

    padded holds each utterance's frames edge-padded by half_window rows on
    each side, one utterance after another, and lengths their frame counts.
    Row i is frame i of the utterances taken in order; windows[idx] gathers
    the (B, D, window) trajectories of the rows idx from padded and projects
    them as context_expand does. Each row is bit-identical to context_expand
    of its own utterance, and no window reaches past its utterance's padding.
    Holding the padded frames takes (T + 2 * half_window) / (T * n_dct) of
    the memory of the expanded rows.
    """

    def __init__(self, padded, lengths, half_window, n_dct):
        self.proj = _projection(half_window, n_dct)
        lengths = np.asarray(lengths, dtype=np.int64)
        if padded.ndim != 2 or padded.shape[0] != lengths.sum() + 2 * half_window * lengths.size:
            raise ShapeError("padded frames do not hold the utterance lengths plus their padding")
        self.padded = padded
        # entry s is padded rows s .. s + window - 1, a (window, D) view; gathering
        # whole windows copies one contiguous block per row
        self.blocks = np.lib.stride_tricks.sliding_window_view(
            padded, self.proj.shape[1], axis=0
        ).transpose(0, 2, 1)
        # utterance u's padded block starts 2 * half_window rows later per earlier utterance
        self.starts = np.arange(lengths.sum()) + 2 * half_window * np.repeat(
            np.arange(lengths.size), lengths
        )
        self.shape = (self.starts.shape[0], padded.shape[1] * self.proj.shape[0])

    def __getitem__(self, idx):
        return _project(self.blocks[self.starts[idx]].transpose(0, 2, 1), self.proj)
