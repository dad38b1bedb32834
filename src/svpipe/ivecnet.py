"""Neural embedding extractor standing in for i-vector extraction.

Per-utterance statistics become relevance-MAP adapted mean supervectors,
get projected by a fixed PCA, and feed IvecNet, a netcore.Mlp with tanh
hidden layers whose final layer emits length-normalized embeddings.
Training minimizes the average cosine distance to reference vectors from
the classic extraction chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netcore
from .errors import InputError, ShapeError
from .gmm import DiagGmm


def map_supervectors(ubm: DiagGmm, n, f, relevance):
    """Relevance-MAP adapted mean supervectors, one component-major row per utterance.

    Counts n (M, C) and sums f (M, C, D) give, per utterance and component,
    (f_c + r * m_c) / (n_c + r): (M, C*D). Zero counts fall back to the
    background means; large counts approach the data means.
    """
    if relevance <= 0.0:
        raise InputError("relevance factor must be positive")
    n = np.asarray(n, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if n.shape[1:] != (ubm.n_components,) or f.shape != n.shape + (ubm.dim,):
        raise ShapeError("statistics do not match the background model")
    adapted = (f + relevance * ubm.means) / (n + relevance)[:, :, None]
    return adapted.reshape(n.shape[0], -1)


@dataclass
class PcaModel:
    mean: np.ndarray  # (C*D,)
    basis: np.ndarray  # (C*D, P), orthonormal columns


def fit_pca(supervectors, n_dims) -> PcaModel:
    """Top principal directions of the centered supervectors.

    Uses the Gram-matrix eigendecomposition when there are fewer vectors
    than dimensions; the basis is re-orthonormalized so the columns satisfy
    the orthonormality contract regardless of near-null directions.
    """
    supervectors = np.asarray(supervectors, dtype=np.float64)
    if supervectors.ndim != 2:
        raise ShapeError("supervectors must form a matrix")
    n, dim = supervectors.shape
    if not 1 <= n_dims <= min(n, dim):
        raise InputError(f"PCA dimension must lie in [1, {min(n, dim)}]")
    mean = supervectors.mean(axis=0)
    centered = supervectors - mean
    if n < dim:
        gram = centered @ centered.T
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1][:n_dims]
        eigvals = np.maximum(eigvals[order], 0.0)
        scale = np.sqrt(np.maximum(eigvals, 1e-300))
        basis = centered.T @ (eigvecs[:, order] / scale)
    else:
        cov = centered.T @ centered
        eigvals, eigvecs = np.linalg.eigh(cov)
        basis = eigvecs[:, np.argsort(eigvals)[::-1][:n_dims]]
    q, _ = np.linalg.qr(basis)
    return PcaModel(mean, q)


def pca_project(pca: PcaModel, supervectors):
    """PCA coordinates (M, P) of a matrix of supervector rows (M, C*D)."""
    supervectors = np.asarray(supervectors, dtype=np.float64)
    if supervectors.ndim != 2 or supervectors.shape[1] != pca.mean.shape[0]:
        raise ShapeError("supervectors do not match the PCA")
    return (supervectors - pca.mean) @ pca.basis


class IvecNet(netcore.Mlp):
    """tanh network with a length-normalized linear output layer."""

    def validate(self):
        super().validate()
        if self.layers[-1].activation != "lengthnorm":
            raise ShapeError("embedding network must end in a length-norm layer")


def make_ivec_net(input_dim, out_dim, hidden, seed=0):
    widths = [input_dim, *hidden, out_dim]
    activations = ["tanh"] * len(hidden) + ["lengthnorm"]
    return IvecNet(netcore.init_mlp(widths, activations, seed=seed).layers)


def cosine_loss(outputs, refs):
    """Mean (1 - output . ref) over a batch and its output gradient."""
    n = outputs.shape[0]
    loss = float((1.0 - (outputs * refs).sum(axis=1)).mean())
    return loss, -refs / n


def train_ivec_net(net: IvecNet, inputs, refs, schedule: netcore.SgdSchedule):
    """SGD with L1 regularization on the cosine-distance objective.

    refs must be unit-norm reference vectors aligned with the inputs.
    Returns (net, per-epoch losses) where the loss includes the L1 term.
    """
    refs = np.asarray(refs, dtype=np.float64)
    norms = np.linalg.norm(refs, axis=1)
    if (norms < 1e-12).any():
        raise InputError("zero-norm reference vector")
    if (np.abs(norms - 1.0) > 1e-6).any():
        raise InputError("reference vectors must be length-normalized")
    return netcore.train_sgd(net, inputs, refs, cosine_loss, schedule)
