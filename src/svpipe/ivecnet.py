"""Neural embedding extractor standing in for i-vector extraction.

Per-utterance statistics become relevance-MAP adapted mean supervectors,
get projected by a fixed PCA, and feed a tanh network whose final layer
emits length-normalized embeddings. Training minimizes the average cosine
distance to reference vectors from the classic extraction chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netcore
from .errors import InputError, ShapeError
from .gmm import DiagGmm, SuffStats

DEFAULT_RELEVANCE = 16.0


def map_supervector(ubm: DiagGmm, stats: SuffStats, relevance=DEFAULT_RELEVANCE):
    """Relevance-MAP adapted mean supervector, component-major layout.

    Per component: (f_c + r * m_c) / (n_c + r). Zero counts fall back to the
    background means; large counts approach the data means.
    """
    if relevance <= 0.0:
        raise InputError("relevance factor must be positive")
    if stats.n.shape != (ubm.n_components,) or stats.f.shape != ubm.means.shape:
        raise ShapeError("statistics do not match the background model")
    adapted = (stats.f + relevance * ubm.means) / (stats.n + relevance)[:, None]
    return adapted.ravel()


def map_supervectors(ubm, stats_list, relevance=DEFAULT_RELEVANCE):
    return np.stack([map_supervector(ubm, s, relevance) for s in stats_list])


@dataclass
class PcaModel:
    mean: np.ndarray  # (C*D,)
    basis: np.ndarray  # (C*D, P), orthonormal columns

    def to_tensors(self, prefix=""):
        return {f"{prefix}mean": self.mean, f"{prefix}basis": self.basis}

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(tensors[f"{prefix}mean"], tensors[f"{prefix}basis"])


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
    supervectors = np.asarray(supervectors, dtype=np.float64)
    single = supervectors.ndim == 1
    rows = np.atleast_2d(supervectors)
    if rows.shape[1] != pca.mean.shape[0]:
        raise ShapeError("supervector dimension does not match the PCA")
    out = (rows - pca.mean) @ pca.basis
    return out[0] if single else out


@dataclass
class IvecNet:
    """tanh network with a length-normalized linear output layer."""

    net: netcore.Mlp

    def __post_init__(self):
        if self.net.layers[-1].activation != "lengthnorm":
            raise ShapeError("embedding network must end in a length-norm layer")

    @property
    def out_dim(self):
        return self.net.n_out

    def to_tensors(self, prefix=""):
        return self.net.to_tensors(prefix)

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(netcore.Mlp.from_tensors(tensors, prefix))


def make_ivec_net(input_dim, out_dim, hidden, seed=0):
    widths = [input_dim, *hidden, out_dim]
    activations = ["tanh"] * len(hidden) + ["lengthnorm"]
    return IvecNet(netcore.init_mlp(widths, activations, seed=seed))


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
    model, history = netcore.train_sgd(net.net, inputs, refs, cosine_loss, schedule)
    return IvecNet(model), history


def extract_embedding(pca: PcaModel, net: IvecNet, supervectors):
    """Unit-norm embedding(s) for one supervector or a batch of them."""
    coords = pca_project(pca, supervectors)
    single = coords.ndim == 1
    out = netcore.forward(net.net, np.atleast_2d(coords))[-1]
    return out[0] if single else out
