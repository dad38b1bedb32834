"""Neural statistics extractor.

A sigmoid MLP with a softmax output predicts per-frame background-model
responsibilities from context-expanded features; a fixed pooling layer then
accumulates the exact zeroth/first order statistics from those predictions
and the unexpanded features. The pooling is differentiable, so gradients of
any statistics-level loss flow back into the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import netcore
from .errors import InputError, ShapeError
from .gmm import SuffStats, sufficient_stats

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


def make_stats_net(input_dim, n_components, hidden, seed=0):
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


def train_stats_net(net: StatsNet, frames, targets, schedule: netcore.SgdSchedule):
    """SGD on frame-level cross-entropy against soft responsibility targets.

    frames (N, input_dim) and targets (N, C) are the stacked training frames
    of all utterances with aligned rows; target rows must be distributions.
    Callers with per-utterance matrices stack them; filling one
    preallocated matrix of each, one utterance at a time, holds the training
    set once. Frames are shuffled across utterances each epoch. Returns
    (net, per-epoch mean losses).
    """
    frames = np.asarray(frames, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if frames.ndim != 2 or targets.ndim != 2:
        raise ShapeError("frames and targets must be matrices")
    if targets.shape[1] != net.n_components:
        raise ShapeError("target width does not match the network output")
    if (np.abs(targets.sum(axis=1) - 1.0) > 1e-6).any():
        raise InputError("targets must be soft posteriors (rows sum to 1)")
    model, history = netcore.train_sgd(
        net.net, frames, targets, frame_cross_entropy, schedule
    )
    return StatsNet(model), history


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
