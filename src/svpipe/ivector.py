"""Total-variability i-vector extraction and the mean/LDA/length-norm chain.

The latent-factor model lives in statistics space: centered first-order
statistics are explained by a low-rank matrix T acting on a standard-normal
latent vector, with the background-model variances as residual covariance.
The extracted i-vector is the exact posterior mean of that latent vector.
Training and extraction share one batched posterior: every utterance's
precision matrix is stacked and all of them are solved in one call, in each
EM iteration of train_tv and once on the final model in extract_ivectors.
Every contraction in the posterior and in the M-step is a matrix product on
reshaped operands (a batched one for the per-component gram T_c' Sigma_c^-1
T_c), so BLAS runs them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, ShapeError
from .gmm import DiagGmm

logger = logging.getLogger(__name__)

_LDA_RIDGE = 1e-6
_TV_RIDGE = 1e-8


@dataclass
class TvModel:
    """Total-variability matrix, stored (C*D, R) with the UBM layout pinned."""

    t: np.ndarray
    n_components: int
    dim: int

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        if self.t.shape[0] != self.n_components * self.dim:
            raise ShapeError("T row count must equal n_components * dim")
        if self.t.shape[1] > self.t.shape[0]:
            raise ShapeError("latent dimension exceeds supervector dimension")

    @property
    def ivec_dim(self):
        return self.t.shape[1]

    def per_component(self):
        return self.t.reshape(self.n_components, self.dim, self.ivec_dim)


def _centered_stats(ubm: DiagGmm, n, f):
    """Counts n (M, C) and first-order statistics f (M, C, D) centered on the UBM means."""
    n = np.asarray(n, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if not n.size:
        raise InputError("no statistics")
    if n.shape[1:] != (ubm.n_components,) or f.shape != n.shape + (ubm.dim,):
        raise ShapeError("statistics do not match the background model")
    if not (np.isfinite(n).all() and np.isfinite(f).all()):
        raise InputError("non-finite statistics")
    return n, f - n[:, :, None] * ubm.means[None, :, :]


def _posterior(model: TvModel, ubm: DiagGmm, n, f_cent):
    """Posterior of every utterance's latent factor under model, as one batched solve.

    Returns (precision, proj, w): the precisions I + T' Sigma^-1 N T (M, R, R),
    the projections T' Sigma^-1 f~ (M, R) and the posterior means (M, R).
    """
    c, d, r = model.n_components, model.dim, model.ivec_dim
    tc = model.per_component()  # (C, D, R)
    ts = tc * (1.0 / ubm.vars)[:, :, None]  # Sigma^-1 T per component
    gram = tc.transpose(0, 2, 1) @ ts  # (C, R, R)
    precision = (n @ gram.reshape(c, r * r)).reshape(-1, r, r)
    precision += np.eye(r)
    proj = f_cent.reshape(-1, c * d) @ ts.reshape(c * d, r)
    w = np.linalg.solve(precision, proj[..., None])[..., 0]
    return precision, proj, w


def train_tv(n, f, ubm: DiagGmm, ivec_dim, n_iters, seed):
    """EM for the total-variability model on counts n (M, C) and sums f (M, C, D).

    Returns (model, elbo_history); elbo_history[i] is the per-corpus evidence
    (up to a T-independent constant) of the model entering iteration i, which
    plain EM makes non-decreasing.
    """
    n, f_cent = _centered_stats(ubm, n, f)
    c, d = ubm.n_components, ubm.dim
    rng = np.random.default_rng(seed)
    scale = 0.1 * np.sqrt(ubm.vars.mean())
    t = rng.standard_normal((c * d, ivec_dim)) * scale
    model = TvModel(t, c, d)

    eye = np.eye(ivec_dim)
    history = []
    for it in range(n_iters):
        precision, proj, w = _posterior(model, ubm, n, f_cent)
        cov = np.linalg.inv(precision)  # posterior covariances
        sign, logdet = np.linalg.slogdet(precision)
        if (sign <= 0).any():
            raise InputError("posterior precision lost positive definiteness")
        history.append(float(0.5 * ((proj * w).sum() - logdet.sum())))
        # M-step: per component solve A_c T_c' = C_c'
        eww = cov + w[:, :, None] * w[:, None, :]
        a = (n.T @ eww.reshape(-1, ivec_dim**2)).reshape(c, ivec_dim, ivec_dim)
        a += _TV_RIDGE * np.trace(a, axis1=1, axis2=2)[:, None, None] / ivec_dim * eye
        rhs = (w.T @ f_cent.reshape(-1, c * d)).reshape(ivec_dim, c, d)
        t_new = np.linalg.solve(a, rhs.transpose(1, 0, 2))  # (C, R, D)
        model = TvModel(t_new.transpose(0, 2, 1).reshape(c * d, ivec_dim), c, d)
        logger.debug("tv iter %d: evidence %.6f", it, history[-1])
    return model, history


def extract_ivectors(tv: TvModel, ubm: DiagGmm, n, f):
    """Posterior means of the latent factor, one row per row of n and f: (M, R).

    w = (I + T' Sigma^-1 N T)^-1 T' Sigma^-1 (f - N m), from the posterior
    train_tv's E-step computes.
    """
    return _posterior(tv, ubm, *_centered_stats(ubm, n, f))[2]


def lengthnorm(x):
    """Scale the rows of a matrix to unit norm; a zero row stays zero."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms > 0.0, x / np.where(norms > 0.0, norms, 1.0), 0.0)


@dataclass
class IvecPrep:
    """Global mean plus LDA projection fitted on normalized training vectors."""

    mean: np.ndarray  # (R,)
    lda: np.ndarray  # (R, R')


def fit_prep(ivectors, labels, out_dim):
    """Fit the mean + LDA preprocessing chain.

    The mean is taken over all training vectors; LDA directions are the top
    generalized eigenvectors of between/within scatter computed on mean-
    subtracted, length-normalized vectors. Needs more than out_dim speakers
    and out_dim at most the i-vector dimension.
    """
    ivectors = np.asarray(ivectors, dtype=np.float64)
    labels = np.asarray(labels)
    if ivectors.ndim != 2 or ivectors.shape[0] != labels.shape[0]:
        raise ShapeError("one label per i-vector required")
    if out_dim > ivectors.shape[1]:
        raise InputError(
            f"LDA to {out_dim} dims exceeds the i-vector dimension {ivectors.shape[1]}"
        )
    classes = np.unique(labels)
    if classes.shape[0] < out_dim + 1:
        raise InputError(
            f"LDA to {out_dim} dims needs at least {out_dim + 1} speakers, "
            f"got {classes.shape[0]}"
        )
    mean = ivectors.mean(axis=0)
    x = lengthnorm(ivectors - mean)
    overall = x.mean(axis=0)
    dim = x.shape[1]
    s_within = np.zeros((dim, dim))
    s_between = np.zeros((dim, dim))
    for cls_label in classes:
        group = x[labels == cls_label]
        centroid = group.mean(axis=0)
        diff = group - centroid
        s_within += diff.T @ diff
        offset = centroid - overall
        s_between += group.shape[0] * np.outer(offset, offset)
    s_within /= x.shape[0]
    s_between /= x.shape[0]
    s_within += _LDA_RIDGE * (np.trace(s_within) / dim) * np.eye(dim)
    eigvals, eigvecs = scipy.linalg.eigh(s_between, s_within)
    order = np.argsort(eigvals)[::-1][:out_dim]
    return IvecPrep(mean, np.ascontiguousarray(eigvecs[:, order]))


def prep_apply(prep: IvecPrep, w):
    """lengthnorm(lengthnorm(w - mean) @ lda) for a matrix w of row vectors.

    The one degenerate input, a row equal to the global mean, maps to the
    zero vector; every other row comes out unit-norm.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != prep.mean.shape[0]:
        raise ShapeError("vectors do not match the preprocessing dimension")
    return lengthnorm(lengthnorm(w - prep.mean) @ prep.lda)
