"""Neural statistics extractor.

A sigmoid MLP with a softmax output predicts per-frame background-model
responsibilities from context-expanded features; a fixed pooling layer then
accumulates the exact zeroth/first order statistics from those predictions
and the unexpanded features. The pooling is differentiable, so gradients of
any statistics-level loss flow back into the network.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import netcore
from .errors import InputError, ShapeError
from .gmm import SuffStats, sufficient_stats

logger = logging.getLogger(__name__)

DEFAULT_HIDDEN = (1500, 1500, 1500, 1500)
DEFAULT_COMPONENTS = 2048

_PRED_CLIP = 1e-12


@dataclass
class StatsNet:
    """Responsibility-prediction network; output width = component count."""

    net: netcore.Mlp

    def __post_init__(self):
        if self.net.layers[-1].activation != "softmax":
            raise ShapeError("statistics network must end in a softmax layer")

    @property
    def n_components(self):
        return self.net.n_out

    def to_tensors(self, prefix=""):
        return self.net.to_tensors(prefix)

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(netcore.Mlp.from_tensors(tensors, prefix))


def make_stats_net(
    input_dim, n_components=DEFAULT_COMPONENTS, hidden=DEFAULT_HIDDEN, seed=0
):
    widths = [input_dim, *hidden, n_components]
    activations = ["sigmoid"] * len(hidden) + ["softmax"]
    return StatsNet(netcore.init_mlp(widths, activations, seed=seed))


def frame_cross_entropy(pred, targets):
    """Mean soft-target cross-entropy and its gradient w.r.t. the predictions."""
    clipped = np.maximum(pred, _PRED_CLIP)
    n = pred.shape[0]
    loss = float(-(targets * np.log(clipped)).sum() / n)
    grad = -targets / (clipped * n)
    return loss, grad


@dataclass
class StatsNetTrainConfig:
    lr: float = 0.1
    n_epochs: int = 5
    batch_frames: int = 512
    seed: int = 0


def train_stats_net(net: StatsNet, expanded_list, target_list, cfg):
    """SGD on frame-level cross-entropy against soft responsibility targets.

    expanded_list/target_list are per-utterance matrices with aligned rows;
    target rows must be distributions. Frames are pooled and shuffled across
    utterances each epoch. Returns (net, per-epoch mean losses).
    """
    if len(expanded_list) != len(target_list):
        raise InputError("one target matrix per utterance required")
    for x, t in zip(expanded_list, target_list):
        if x.shape[0] != t.shape[0]:
            raise InputError("target rows do not align with frames")
        if t.shape[1] != net.n_components:
            raise ShapeError("target width does not match the network output")
        if np.abs(t.sum(axis=1) - 1.0).max() > 1e-6:
            raise InputError("targets must be soft posteriors (rows sum to 1)")
    frames = np.vstack(expanded_list)
    targets = np.vstack(target_list)
    rng = np.random.default_rng(cfg.seed)
    model = StatsNet(net.net.copy())
    lr = cfg.lr
    best = np.inf
    history = []
    for epoch in range(cfg.n_epochs):
        order = rng.permutation(frames.shape[0])
        total = 0.0
        for lo in range(0, frames.shape[0], cfg.batch_frames):
            idx = order[lo : lo + cfg.batch_frames]
            acts = netcore.forward(model.net, frames[idx])
            loss, grad = frame_cross_entropy(acts[-1], targets[idx])
            grads, _ = netcore.backward(model.net, acts, grad, input_grad=False)
            model.net.set_parameters(
                netcore.sgd_step(model.net.parameters(), grads, lr)
            )
            total += loss * idx.shape[0]
        epoch_loss = total / frames.shape[0]
        history.append(epoch_loss)
        logger.debug("statsnet epoch %d: ce %.6f lr %.4g", epoch, epoch_loss, lr)
        if epoch_loss >= best:
            lr *= 0.5
        best = min(best, epoch_loss)
    return model, history


def predict_responsibilities(net: StatsNet, expanded):
    return netcore.forward(net.net, expanded)[-1]


def pooled_stats(net: StatsNet, expanded, raw) -> SuffStats:
    """Statistics from predicted responsibilities and the raw features.

    Exactly the classic accumulation with the softmax outputs standing in
    for background-model posteriors; raw and expanded must share their
    frame count.
    """
    expanded = np.asarray(expanded, dtype=np.float64)
    raw = np.asarray(raw, dtype=np.float64)
    if expanded.shape[0] != raw.shape[0]:
        raise InputError("expanded and raw features disagree on frame count")
    return sufficient_stats(predict_responsibilities(net, expanded), raw)


def pooled_stats_backward(net: StatsNet, acts, raw, d_n, d_f):
    """Parameter gradients of a statistics-level loss.

    d_n (C,) and d_f (C, D) are the loss gradients w.r.t. the pooled counts
    and first-order matrix; the pooling adjoint spreads them over frames and
    the network backward does the rest.
    """
    raw = np.asarray(raw, dtype=np.float64)
    d_resp = d_n[None, :] + raw @ np.asarray(d_f, dtype=np.float64).T
    grads, _ = netcore.backward(net.net, acts, d_resp, input_grad=False)
    return grads
