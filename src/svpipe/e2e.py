"""Assembled end-to-end system and its joint training loop.

The scoring path is features -> normalization/context expansion -> statistics
network -> MAP supervector -> fixed PCA -> embedding network -> quadratic
trial scoring. Its embedding half, pca_coords then embed_coords, runs one
utterance at a time and is the only inference path: scoring, the cascade
backend and the dev pass of joint training all see the same bits. Joint
training repeats train_step, one Adam step on the prior-weighted
cross-entropy of a sampled trial batch, pulled toward the anchor (the
assembled system's starting trainable parameters) with the schedule's
anchor_weight, halving the learning rate when the dev-set cost stops
improving and returning the best-on-dev parameters.

Both networks are netcore.Mlps. checkpointed_grads is the only backward
pass through the system: the batch keeps each utterance's frontend output
(it depends on no parameter), the per-frame network activations are
dropped once an utterance's statistics exist and only they are recomputed
from that output during the backward pass. Gradients are bit-identical to
a full-graph pass that keeps every activation (a test oracle), while only
one utterance's frame-level activations are ever live (the tests count the
live caches through weak references).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import netcore
from .corpus import Corpus
from .dplda import DpldaParams, TrialBatch, bxe_objective, pair_batches
from .errors import ConfigError, InputError, ShapeError
from .frontend import context_expand, stmvn
from .gmm import DiagGmm, sufficient_stats
from .ivecnet import IvecNet, PcaModel, map_supervectors, pca_project
from .metrics import ScoredTrials, c_primary, eer
from .statsnet import StatsNet, pooled_stats, pooled_stats_backward

logger = logging.getLogger(__name__)


@dataclass
class FrontendConfig:
    window_s: float
    frame_rate_hz: float
    context: int
    n_dct: int


@dataclass
class E2eSystem:
    """All stages wired together; pca and the MAP prior stay frozen.

    anchor holds copies of the starting trainable parameters, in
    trainable_parameters() order, that joint and e2e training pull toward;
    it must match them in count and shape.
    """

    frontend: FrontendConfig
    relevance: float
    stats_net: StatsNet
    ubm: DiagGmm
    pca: PcaModel
    ivec_net: IvecNet
    dplda: DpldaParams
    anchor: list[np.ndarray]

    def __post_init__(self):
        params = self.trainable_parameters()
        if len(self.anchor) != len(params):
            raise ShapeError(f"anchor holds {len(self.anchor)} arrays for {len(params)} groups")
        for i, (a, p) in enumerate(zip(self.anchor, params)):
            if np.shape(a) != np.shape(p):
                raise ShapeError(f"anchor.{i} has shape {np.shape(a)}, not {np.shape(p)}")

    @property
    def n_stats_params(self):
        return 2 * len(self.stats_net.layers)

    @property
    def n_ivec_params(self):
        return 2 * len(self.ivec_net.layers)

    def trainable_parameters(self):
        """Flat list: statistics net, embedding net, then (lam, gamma, c, k)."""
        return (
            self.stats_net.parameters()
            + self.ivec_net.parameters()
            + self.dplda.parameters()
        )

    def set_trainable_parameters(self, params):
        n_s, n_i = self.n_stats_params, self.n_ivec_params
        if len(params) != n_s + n_i + 4:
            raise ShapeError("trainable parameter list has the wrong length")
        self.stats_net.set_parameters(params[:n_s])
        self.ivec_net.set_parameters(params[n_s : n_s + n_i])
        self.dplda = DpldaParams(*params[n_s + n_i :])

    def freeze_anchor(self):
        """Make copies of the current trainable parameters the anchor."""
        self.anchor = [p.copy() for p in self.trainable_parameters()]


def assemble_system(frontend, stats_net, ubm, pca, ivec_net, dplda, relevance) -> E2eSystem:
    """Wire copies of the individually trained stages together.

    Training the system never changes the caller's networks or backend. Its
    anchor is a copy of the starting trainable parameters.
    """
    stats_net, ivec_net, dplda = stats_net.copy(), ivec_net.copy(), dplda.copy()
    params = stats_net.parameters() + ivec_net.parameters() + dplda.parameters()
    anchor = [p.copy() for p in params]
    return E2eSystem(frontend, relevance, stats_net, ubm, pca, ivec_net, dplda, anchor)


def preprocess(system: E2eSystem, features):
    """Normalized features and their context expansion."""
    norm = stmvn(features, system.frontend.window_s, system.frontend.frame_rate_hz)
    return norm, context_expand(norm, system.frontend.context, system.frontend.n_dct)


def pca_coords(system: E2eSystem, features_list):
    """(U, P) PCA coordinates of the utterances' MAP supervectors, one at a time.

    They depend on the statistics network, so they stay valid only while
    it is frozen; embed_coords turns them into embeddings.
    """
    if not features_list:
        raise InputError("no utterances to embed")
    rows = []
    for features in features_list:
        norm, expanded = preprocess(system, features)
        n, f = pooled_stats(system.stats_net, expanded, norm)
        supervector = map_supervectors(system.ubm, n[None], f[None], system.relevance)
        rows.append(pca_project(system.pca, supervector))
    return np.concatenate(rows)


def embed_coords(system: E2eSystem, coords):
    """Unit-norm embeddings of (U, P) PCA coordinates, one row at a time."""
    if len(coords) == 0:
        raise InputError("no PCA coordinates to embed")
    return np.stack(
        [netcore.forward(system.ivec_net, row[None, :])[-1][0] for row in coords]
    )


def embed_utterance(system: E2eSystem, features):
    """Unit-norm embedding of one utterance (inference path)."""
    return embed_coords(system, pca_coords(system, [features]))[0]


def checkpointed_grads(system, features_list, loss_fn):
    """Gradients with per-utterance recomputation of frame-level activations.

    loss_fn maps the (U, R') embedding matrix to (loss, d_embeddings).
    Returns (loss, grads) with grads aligned to the statistics-net plus
    embedding-net parameters. The arithmetic is that of a full-graph pass;
    only one utterance's statistics-network activations are live at any
    time.
    """
    if not features_list:
        raise InputError("empty utterance batch")
    net = system.stats_net
    n = np.empty((len(features_list), system.ubm.n_components))
    f = np.empty((len(features_list), system.ubm.n_components, system.ubm.dim))
    norms = []
    expanded_list = []
    for u, features in enumerate(features_list):
        norm, expanded = preprocess(system, features)
        n[u], f[u] = sufficient_stats(netcore.forward(net, expanded)[-1], norm)
        norms.append(norm)
        expanded_list.append(expanded)

    supervectors = map_supervectors(system.ubm, n, f, system.relevance)
    coords = pca_project(system.pca, supervectors)
    ivec_acts = netcore.forward(system.ivec_net, coords)
    loss, d_emb = loss_fn(ivec_acts[-1])
    ivec_grads, d_coords = netcore.backward(system.ivec_net, ivec_acts, d_emb)

    # adjoint of the MAP supervectors (f + r m) / (n + r), every utterance at once
    d_sv = (d_coords @ system.pca.basis.T).reshape(f.shape)
    denom = n + system.relevance
    d_f = d_sv / denom[:, :, None]
    d_n = -(d_sv * supervectors.reshape(f.shape)).sum(axis=2) / denom
    stats_grads = [np.zeros_like(p) for p in net.parameters()]
    for u in range(len(features_list)):
        acts = netcore.forward(net, expanded_list[u])
        grads_u = pooled_stats_backward(net, acts, norms[u], d_n[u], d_f[u])
        del acts
        for g, gu in zip(stats_grads, grads_u):
            g += gu
    return loss, stats_grads + ivec_grads


@dataclass
class TrainSchedule:
    n_pairs: int
    lr: float
    epoch_batches: int
    max_epochs: int
    p_target: float
    anchor_weight: float

    def __post_init__(self):
        if self.epoch_batches < 1:
            raise ConfigError("epoch_batches must be >= 1")
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_eer: float
    dev_c_primary: float
    lr: float


def format_epoch_log(record: EpochRecord):
    return (
        f"{record.epoch}\t{record.train_loss:.6f}\t{record.dev_eer:.6f}"
        f"\t{record.dev_c_primary:.6f}\t{record.lr:.6g}"
    )


def _split_features(corpus: Corpus, split):
    utts = corpus.require(split)
    return [u.features for u in utts], np.array([u.speaker for u in utts])


def _dev_metrics(embeddings, speakers, params):
    batch = TrialBatch.all_trials(embeddings, speakers)
    trials = ScoredTrials(batch.scores(params), batch.is_target)
    return eer(trials), c_primary(trials)


def train_joint_s2i_dplda(system: E2eSystem, corpus: Corpus, schedule, rng, *, train_coords):
    """Jointly train the embedding network and the scoring parameters.

    The statistics network stays frozen. train_coords are pca_coords of the
    corpus's train split under this system, which the caller has already
    computed, so the frontend does not run again. Returns (system, history);
    the system carries the best-on-dev parameters (initialization included
    as a candidate).
    """
    return _train_jointly(
        system, corpus, schedule, rng, train_stats_net=False, train_coords=train_coords
    )


def train_e2e_full(system: E2eSystem, corpus: Corpus, schedule, rng):
    """Train all three stages jointly with checkpointed backpropagation."""
    return _train_jointly(system, corpus, schedule, rng, train_stats_net=True)


def train_step(system, adam, schedule, inputs, speakers, train_stats_net):
    """One Adam step on all trials among a batch, pulled toward the anchor.

    inputs are the batch's features if the statistics network is trained,
    else their PCA coordinates; a frozen network is neither stepped nor
    pulled. The trained groups step on the prior-weighted cross-entropy plus
    netcore.penalty_to_snapshot toward their slice of system.anchor. Returns
    the loss plus the penalty, both at the parameters before the step.
    """
    n_skip = 0 if train_stats_net else system.n_stats_params
    trained = system.trainable_parameters()
    backend_grads = None

    def loss_fn(embeddings):
        nonlocal backend_grads
        batch = TrialBatch.all_trials(embeddings, speakers)
        loss, backend_grads, d_emb = bxe_objective(system.dplda, batch, schedule.p_target)
        return loss, d_emb

    if train_stats_net:
        loss, net_grads = checkpointed_grads(system, inputs, loss_fn)
    else:
        acts = netcore.forward(system.ivec_net, inputs)
        loss, d_emb = loss_fn(acts[-1])
        net_grads, _ = netcore.backward(system.ivec_net, acts, d_emb, input_grad=False)
    params = trained[n_skip:]
    penalty, pen_grads = netcore.penalty_to_snapshot(
        params, system.anchor[n_skip:], schedule.anchor_weight
    )
    grads = [g + pg for g, pg in zip(net_grads + backend_grads.parameters(), pen_grads)]
    system.set_trainable_parameters(trained[:n_skip] + netcore.adam_step(adam, params, grads))
    return loss + penalty


def _train_jointly(system, corpus, schedule, rng, train_stats_net, train_coords=None):
    """train_step on sampled trial batches, keeping the best on dev.

    A frozen statistics network only feeds fixed inputs to the embedding
    network: the caller hands in the train PCA coordinates, the dev ones
    are computed once per utterance, and each batch runs the embedding
    network alone. A trained one is backpropagated through per batch with
    checkpointed_grads.
    """
    train_feats, train_speakers = _split_features(corpus, "train")
    dev_feats, dev_speakers = _split_features(corpus, "dev")
    if not train_stats_net:
        if np.shape(train_coords) != (len(train_feats), system.pca.basis.shape[1]):
            raise ShapeError("train_coords must hold one PCA row per train utterance")
        dev_coords = pca_coords(system, dev_feats)

    def dev_embeddings():
        coords = pca_coords(system, dev_feats) if train_stats_net else dev_coords
        return embed_coords(system, coords)

    batches = pair_batches(train_speakers, schedule.n_pairs, rng)
    n_skip = 0 if train_stats_net else system.n_stats_params
    adam = netcore.AdamState.create(system.trainable_parameters()[n_skip:], lr=schedule.lr)

    def batch_step():
        idx = next(batches)
        inputs = [train_feats[i] for i in idx] if train_stats_net else train_coords[idx]
        return train_step(system, adam, schedule, inputs, train_speakers[idx], train_stats_net)

    init_eer, best_c = _dev_metrics(dev_embeddings(), dev_speakers, system.dplda)
    best_epoch = 0
    best_params = [p.copy() for p in system.trainable_parameters()]
    history = [EpochRecord(0, np.nan, init_eer, best_c, schedule.lr)]
    dev_curve = [best_c]
    for epoch in range(1, schedule.max_epochs + 1):
        losses = [batch_step() for _ in range(schedule.epoch_batches)]
        dev_eer, dev_c = _dev_metrics(dev_embeddings(), dev_speakers, system.dplda)
        dev_curve.append(dev_c)
        adam.lr = netcore.lr_schedule_step(dev_curve, adam.lr)
        record = EpochRecord(epoch, float(np.mean(losses)), dev_eer, dev_c, adam.lr)
        history.append(record)
        logger.info("%s", format_epoch_log(record))
        if dev_c < best_c:
            best_epoch, best_c = epoch, dev_c
            best_params = [p.copy() for p in system.trainable_parameters()]
    kept = f"epoch {best_epoch}" if best_epoch else "the initialization (epoch 0)"
    logger.info("kept %s: dev C_primary %.6f", kept, best_c)
    system.set_trainable_parameters(best_params)
    return system, history
