"""Total-variability i-vector extraction and the mean/LDA/length-norm chain.

The latent-factor model lives in statistics space: centered first-order
statistics are explained by a low-rank matrix T acting on a standard-normal
latent vector, with the background-model variances as residual covariance.
The extracted i-vector is the exact posterior mean of that latent vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, ShapeError
from .gmm import DiagGmm, SuffStats

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

    def to_tensors(self, prefix=""):
        return {
            f"{prefix}t": self.t,
            f"{prefix}n_components": np.float64(self.n_components),
            f"{prefix}dim": np.float64(self.dim),
        }

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(
            tensors[f"{prefix}t"],
            int(tensors[f"{prefix}n_components"]),
            int(tensors[f"{prefix}dim"]),
        )


def _centered_stats(ubm: DiagGmm, stats_list):
    n = np.stack([s.n for s in stats_list])  # (M, C)
    f = np.stack([s.f for s in stats_list])  # (M, C, D)
    return n, f - n[:, :, None] * ubm.means[None, :, :]


def train_tv(stats_list, ubm: DiagGmm, ivec_dim, n_iters=5, seed=0):
    """EM for the total-variability model.

    Returns (model, elbo_history); elbo_history[i] is the per-corpus evidence
    (up to a T-independent constant) of the model entering iteration i, which
    plain EM makes non-decreasing.
    """
    if not stats_list:
        raise InputError("no statistics to train on")
    c, d = ubm.n_components, ubm.dim
    for s in stats_list:
        if s.n.shape != (c,) or s.f.shape != (c, d):
            raise ShapeError("statistics do not match the background model")
        if not (np.isfinite(s.n).all() and np.isfinite(s.f).all()):
            raise InputError("non-finite statistics")
    rng = np.random.default_rng(seed)
    scale = 0.1 * np.sqrt(ubm.vars.mean())
    t = rng.standard_normal((c * d, ivec_dim)) * scale
    model = TvModel(t, c, d)

    n, f_cent = _centered_stats(ubm, stats_list)
    inv_var = 1.0 / ubm.vars  # (C, D)
    eye = np.eye(ivec_dim)
    history = []
    for it in range(n_iters):
        tc = model.per_component()  # (C, D, R)
        ts = tc * inv_var[:, :, None]  # Sigma^-1 T per component
        gram = np.einsum("cdr,cds->crs", tc, ts)  # (C, R, R)
        precision = eye[None] + np.einsum("mc,crs->mrs", n, gram)
        proj = np.einsum("cdr,mcd->mr", ts, f_cent)  # T' Sigma^-1 f~
        w = np.linalg.solve(precision, proj[..., None])[..., 0]  # posterior means
        cov = np.linalg.inv(precision)  # posterior covariances
        sign, logdet = np.linalg.slogdet(precision)
        if (sign <= 0).any():
            raise InputError("posterior precision lost positive definiteness")
        history.append(float(0.5 * ((proj * w).sum() - logdet.sum())))
        # M-step: per component solve A_c T_c' = C_c'
        eww = cov + np.einsum("mr,ms->mrs", w, w)
        a = np.einsum("mc,mrs->crs", n, eww)
        a += _TV_RIDGE * np.trace(a, axis1=1, axis2=2)[:, None, None] / ivec_dim * eye
        c_acc = np.einsum("mcd,mr->crd", f_cent, w)  # (C, R, D) transposed later
        t_new = np.linalg.solve(a, c_acc)  # (C, R, D)
        model = TvModel(t_new.transpose(0, 2, 1).reshape(c * d, ivec_dim), c, d)
        logger.debug("tv iter %d: evidence %.6f", it, history[-1])
    return model, history


def extract_ivector(tv: TvModel, ubm: DiagGmm, stats: SuffStats):
    """Posterior mean of the latent factor for one utterance.

    w = (I + T' Sigma^-1 N T)^-1 T' Sigma^-1 (f - N m).
    """
    c, d = ubm.n_components, ubm.dim
    if stats.n.shape != (c,) or stats.f.shape != (c, d):
        raise ShapeError("statistics do not match the background model")
    if not (np.isfinite(stats.n).all() and np.isfinite(stats.f).all()):
        raise InputError("non-finite statistics")
    tc = tv.per_component()
    ts = tc / ubm.vars[:, :, None]
    f_cent = stats.f - stats.n[:, None] * ubm.means
    precision = np.eye(tv.ivec_dim) + np.einsum(
        "c,cdr,cds->rs", stats.n, tc, ts
    )
    proj = np.einsum("cdr,cd->r", ts, f_cent)
    return np.linalg.solve(precision, proj)


def lengthnorm(x):
    """Scale rows (or a single vector) to unit norm; zero stays zero."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        norm = np.linalg.norm(x)
        return x / norm if norm > 0.0 else np.zeros_like(x)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms > 0.0, x / np.where(norms > 0.0, norms, 1.0), 0.0)


@dataclass
class IvecPrep:
    """Global mean plus LDA projection fitted on normalized training vectors."""

    mean: np.ndarray  # (R,)
    lda: np.ndarray  # (R, R')

    def to_tensors(self, prefix=""):
        return {f"{prefix}mean": self.mean, f"{prefix}lda": self.lda}

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(tensors[f"{prefix}mean"], tensors[f"{prefix}lda"])


def fit_prep(ivectors, labels, out_dim):
    """Fit the mean + LDA preprocessing chain.

    The mean is taken over all training vectors; LDA directions are the top
    generalized eigenvectors of between/within scatter computed on mean-
    subtracted, length-normalized vectors. Needs more than out_dim speakers.
    """
    ivectors = np.asarray(ivectors, dtype=np.float64)
    labels = np.asarray(labels)
    if ivectors.ndim != 2 or ivectors.shape[0] != labels.shape[0]:
        raise ShapeError("one label per i-vector required")
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
    return IvecPrep(mean, eigvecs[:, order])


def prep_apply(prep: IvecPrep, w):
    """lengthnorm(lda' @ lengthnorm(w - mean)); accepts a vector or matrix.

    The one degenerate input, w equal to the global mean, maps to the zero
    vector; everything else comes out unit-norm.
    """
    w = np.asarray(w, dtype=np.float64)
    single = w.ndim == 1
    rows = np.atleast_2d(w)
    if rows.shape[1] != prep.mean.shape[0]:
        raise ShapeError("vector dimension does not match the preprocessing")
    out = lengthnorm(lengthnorm(rows - prep.mean) @ prep.lda)
    return out[0] if single else out
