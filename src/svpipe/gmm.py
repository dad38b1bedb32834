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

DEFAULT_VAR_FLOOR_FRAC = 1e-3

_E_STEP_CHUNK = 65536


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

    def to_tensors(self, prefix=""):
        return {
            f"{prefix}weights": self.weights,
            f"{prefix}means": self.means,
            f"{prefix}vars": self.vars,
        }

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(
            tensors[f"{prefix}weights"],
            tensors[f"{prefix}means"],
            tensors[f"{prefix}vars"],
        )


@dataclass
class SuffStats:
    """Per-utterance statistics: soft counts n (C,) and weighted sums f (C, D)."""

    n: np.ndarray
    f: np.ndarray
    frames_total: int

    def to_tensors(self, prefix=""):
        return {
            f"{prefix}n": self.n,
            f"{prefix}f": self.f,
            f"{prefix}frames_total": np.float64(self.frames_total),
        }

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(
            tensors[f"{prefix}n"],
            tensors[f"{prefix}f"],
            int(tensors[f"{prefix}frames_total"]),
        )


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


def log_likelihood(g: DiagGmm, frames):
    """Total log-likelihood of the frames under the mixture."""
    return float(_logsumexp_rows(log_densities(g, frames)).sum())


def _logsumexp_rows(x):
    m = x.max(axis=1)
    shifted = x - m[:, None]
    return m + np.log(np.exp(shifted, out=shifted).sum(axis=1))


def sufficient_stats(resp, frames):
    """Accumulate zeroth/first order statistics from responsibilities.

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
    return SuffStats(resp.sum(axis=0), resp.T @ frames, frames.shape[0])


def train_ubm(
    frames,
    n_components,
    n_iters=10,
    floor_frac=DEFAULT_VAR_FLOOR_FRAC,
    seed=0,
):
    """EM training of a diagonal GMM.

    frames: the (N, D) matrix of all training frames; callers with
    per-utterance matrices stack them (a preallocated matrix filled one
    utterance at a time holds them once). The E-step walks it in chunks and
    computes each chunk's posteriors in one (chunk, C) array.
    Initialization picks n_components distinct frames as means (seeded), a
    shared global diagonal variance and uniform weights. Variances are
    floored at floor_frac times the global per-dimension variance.

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
    global_var = frames.var(axis=0)
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
        for lo in range(0, n_frames, _E_STEP_CHUNK):
            chunk = frames[lo : lo + _E_STEP_CHUNK]
            log_norm, resp = _posteriors(model, chunk)
            total_ll += float(log_norm.sum())
            acc_n += resp.sum(axis=0)
            acc_f += resp.T @ chunk
            acc_s += resp.T @ chunk**2
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
