"""Diagonal-covariance GMM background model.

EM training from a seeded data-point initialization, frame responsibilities
computed in log space, and exact zeroth/first order statistics accumulation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError

logger = logging.getLogger(__name__)

# posterior entries per E-step block: 256 KB of float64, which stays in cache
_E_STEP_ENTRIES = 32768


@dataclass
class DiagGmm:
    """Mixture weights plus per-component means and diagonal variances."""

    weights: np.ndarray  # (C,)
    means: np.ndarray  # (C, D)
    vars: np.ndarray  # (C, D)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.vars = np.asarray(self.vars, dtype=np.float64)
        if self.means.shape != self.vars.shape or self.weights.ndim != 1:
            raise ShapeError("inconsistent GMM parameter shapes")
        if self.weights.shape[0] != self.means.shape[0]:
            raise ShapeError("weight count != component count")
        if not all(np.isfinite(a).all() for a in (self.weights, self.means, self.vars)):
            raise ShapeError("non-finite GMM parameters")
        if abs(self.weights.sum() - 1.0) > 1e-12 or (self.weights < 0).any():
            raise ShapeError("weights must form a simplex")
        if (self.vars <= 0).any():
            raise ShapeError("variances must be strictly positive")

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def log_densities(g: DiagGmm, frames):
    """Per-frame log(weight * component density), shape (T, C)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != g.dim:
        raise ShapeError("frame dimension does not match the GMM")
    inv_var = 1.0 / g.vars
    const = (
        np.log(g.weights)
        - 0.5 * (g.dim * np.log(2.0 * np.pi) + np.log(g.vars).sum(axis=1))
        - 0.5 * (g.means**2 * inv_var).sum(axis=1)
    )
    # const + x @ (mu/var).T - (0.5 * x**2) @ (1/var).T accumulated in the
    # fresh (T, C) product: the operations of the out-of-place expression
    # (addition commutes exactly), so the same bits, with two (T, C) arrays
    # live at once instead of three
    out = frames @ (g.means * inv_var).T
    out += const
    sq = frames**2
    sq *= 0.5
    out -= sq @ inv_var.T
    return out


def _posteriors(g: DiagGmm, frames):
    """(log_norm, exp(log_dens - log_norm)) with the exponent in place."""
    log_dens = log_densities(g, frames)
    log_norm = _logsumexp_rows(log_dens)
    log_dens -= log_norm[:, None]
    return log_norm, np.exp(log_dens, out=log_dens)


def responsibilities(g: DiagGmm, frames):
    """Posterior component probabilities per frame; rows sum to 1."""
    _, resp = _posteriors(g, frames)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


def _logsumexp_rows(x):
    m = x.max(axis=1)
    shifted = x - m[:, None]
    return m + np.log(np.exp(shifted, out=shifted).sum(axis=1))


def sufficient_stats(resp, frames):
    """One utterance's zeroth/first order statistics (n (C,), f (C, D)).

    n_c = sum_t resp[t, c]; f_c = sum_t resp[t, c] * x_t. This is the exact
    classic accumulation, so swapping in predicted responsibilities leaves
    downstream extraction unchanged.
    """
    resp = np.asarray(resp, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.float64)
    if resp.ndim != 2 or frames.ndim != 2:
        raise ShapeError("responsibilities and frames must be matrices")
    if resp.shape[0] != frames.shape[0]:
        raise InputError("responsibility rows do not align with frames")
    if (resp < 0).any():
        raise InputError("negative responsibilities")
    return resp.sum(axis=0), resp.T @ frames


def _column_var(frames, rows):
    """frames.var(axis=0) bit for bit, rows frames at a time.

    numpy reduces a C-ordered (N, D) matrix along axis 0 row after row from
    0.0, so the two sums (of the frames, then of their squared deviations
    from the mean) are carried across blocks as row 0 of a (rows + 1, D)
    buffer above the block: no N x D temporary. One column, which numpy
    sums pairwise, goes whole.
    """
    n_frames, dim = frames.shape
    if dim == 1:
        return frames.var(axis=0)
    buf = np.empty((min(rows, n_frames) + 1, dim))

    def column_sum(fill):
        buf[0] = 0.0
        for lo in range(0, n_frames, rows):
            block = frames[lo : lo + rows]
            fill(block, buf[1 : len(block) + 1])
            buf[0] = np.add.reduce(buf[: len(block) + 1], axis=0)
        return buf[0] / n_frames

    mean = column_sum(lambda block, out: np.copyto(out, block))

    def squared_deviation(block, out):
        np.subtract(block, mean, out=out)
        np.square(out, out=out)

    return column_sum(squared_deviation)


def train_ubm(frames, n_components, n_iters, floor_frac, seed):
    """EM training of a diagonal GMM.

    frames: the (N, D) matrix of all training frames; callers with
    per-utterance matrices stack them (a preallocated matrix filled one
    utterance at a time holds them once). The E-step walks it in blocks of
    max(64, 32768 // C) frames and computes each block's posteriors in one
    (block, C) array of about 256 KB, so it stays in cache at any C.
    Initialization picks n_components distinct frames as means (seeded), a
    shared global diagonal variance (computed in the same blocks) and
    uniform weights. Variances are floored at floor_frac times the global
    per-dimension variance.

    Returns (model, ll_history) where ll_history[i] is the total data
    log-likelihood of the model entering iteration i (non-decreasing up to
    the floor).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise InputError("frames must form a (N, D) matrix")
    n_frames, dim = frames.shape
    if n_components < 1:
        raise InputError("need at least one component")
    if n_frames < n_components:
        raise InputError(
            f"{n_frames} frames cannot initialize {n_components} components"
        )
    rng = np.random.default_rng(seed)
    rows = max(64, _E_STEP_ENTRIES // n_components)
    global_var = _column_var(frames, rows)
    floor = np.maximum(floor_frac * global_var, 1e-12)
    idx = rng.choice(n_frames, size=n_components, replace=False)
    model = DiagGmm(
        np.full(n_components, 1.0 / n_components),
        frames[idx].copy(),
        np.tile(np.maximum(global_var, floor), (n_components, 1)),
    )
    history = []
    for it in range(n_iters):
        acc_n = np.zeros(n_components)
        acc_f = np.zeros((n_components, dim))
        acc_s = np.zeros((n_components, dim))
        total_ll = 0.0
        for lo in range(0, n_frames, rows):
            block = frames[lo : lo + rows]
            log_norm, resp = _posteriors(model, block)
            total_ll += float(log_norm.sum())
            acc_n += resp.sum(axis=0)
            acc_f += resp.T @ block
            acc_s += resp.T @ block**2
        history.append(total_ll)
        counts = np.maximum(acc_n, 1e-10)
        means = acc_f / counts[:, None]
        variances = acc_s / counts[:, None] - means**2
        model = DiagGmm(
            acc_n / acc_n.sum(),
            means,
            np.maximum(variances, floor),
        )
        logger.debug("ubm iter %d: ll per frame %.6f", it, total_ll / n_frames)
    return model, history
