"""Assembled end-to-end system and its joint training loop.

The scoring path is features -> normalization/context expansion -> statistics
network -> MAP supervector -> fixed PCA -> embedding network -> quadratic
trial scoring. Joint training runs Adam on the prior-weighted cross-entropy
over sampled trial batches, regularized toward a snapshot of the initial
parameters, halving the learning rate when the dev-set cost stops improving
and returning the best-on-dev parameters.

Backpropagation through the statistics network is memory-checkpointed: the
batch keeps each utterance's frontend output (it depends on no parameter),
the per-frame network activations are dropped once an utterance's statistics
exist and only they are recomputed from that output during the backward
pass, which leaves gradients bit-identical to the full-graph pass while only
one utterance's frame-level activations are ever live.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import netcore
from .corpus import Corpus
from .dplda import (
    DpldaParams,
    ObjectiveConfig,
    TrialBatch,
    bxe_objective,
    draw_groups,
    make_pair_pool,
)
from .errors import ConfigError, InputError, ShapeError
from .frontend import context_expand, stmvn
from .gmm import DiagGmm, sufficient_stats
from .ivecnet import DEFAULT_RELEVANCE, IvecNet, PcaModel, map_supervector
from .metrics import ScoredTrials, c_primary, eer
from .statsnet import StatsNet, pooled_stats_backward

logger = logging.getLogger(__name__)


@dataclass
class FrontendConfig:
    window_s: float
    frame_rate_hz: float
    context: int
    n_dct: int


class ActivationLedger:
    """Counts utterances whose frame-level activations are currently live."""

    def __init__(self):
        self.live = 0
        self.max_live = 0

    def acquire(self):
        self.live += 1
        self.max_live = max(self.max_live, self.live)

    def release(self):
        self.live -= 1


@dataclass
class E2eSystem:
    """All stages wired together; pca and the MAP prior stay frozen."""

    frontend: FrontendConfig
    stats_net: StatsNet
    ubm: DiagGmm
    pca: PcaModel
    ivec_net: IvecNet
    dplda: DpldaParams
    relevance: float = DEFAULT_RELEVANCE
    snapshot: netcore.ParamSnapshot | None = None

    @property
    def n_stats_params(self):
        return 2 * len(self.stats_net.net.layers)

    @property
    def n_ivec_params(self):
        return 2 * len(self.ivec_net.net.layers)

    def trainable_parameters(self):
        """Flat list: statistics net, embedding net, then (lam, gamma, c, k)."""
        return (
            self.stats_net.net.parameters()
            + self.ivec_net.net.parameters()
            + [self.dplda.lam, self.dplda.gamma, self.dplda.c, np.asarray(self.dplda.k, dtype=np.float64)]
        )

    def set_trainable_parameters(self, params):
        n_s, n_i = self.n_stats_params, self.n_ivec_params
        if len(params) != n_s + n_i + 4:
            raise ShapeError("trainable parameter list has the wrong length")
        self.stats_net.net.set_parameters(params[:n_s])
        self.ivec_net.net.set_parameters(params[n_s : n_s + n_i])
        lam, gamma, c, k = params[n_s + n_i :]
        self.dplda = DpldaParams(lam, gamma, c, float(k))

    def to_tensors(self):
        tensors = {
            "frontend.window_s": np.float64(self.frontend.window_s),
            "frontend.frame_rate_hz": np.float64(self.frontend.frame_rate_hz),
            "frontend.context": np.float64(self.frontend.context),
            "frontend.n_dct": np.float64(self.frontend.n_dct),
            "relevance": np.float64(self.relevance),
        }
        tensors.update(self.stats_net.to_tensors("stats_net."))
        tensors.update(self.ubm.to_tensors("ubm."))
        tensors.update(self.pca.to_tensors("pca."))
        tensors.update(self.ivec_net.to_tensors("ivec_net."))
        tensors.update(self.dplda.to_tensors("dplda."))
        if self.snapshot is not None:
            tensors["snapshot.weights"] = self.snapshot.weights
            for i, value in enumerate(self.snapshot.values):
                tensors[f"snapshot.values.{i}"] = value
        return tensors

    @classmethod
    def from_tensors(cls, tensors):
        snapshot = None
        if "snapshot.weights" in tensors:
            weights = np.atleast_1d(np.asarray(tensors["snapshot.weights"]))
            values = [
                np.asarray(tensors[f"snapshot.values.{i}"])
                for i in range(weights.shape[0])
            ]
            snapshot = netcore.ParamSnapshot(values, weights)
        return cls(
            frontend=FrontendConfig(
                window_s=float(tensors["frontend.window_s"]),
                frame_rate_hz=float(tensors["frontend.frame_rate_hz"]),
                context=int(tensors["frontend.context"]),
                n_dct=int(tensors["frontend.n_dct"]),
            ),
            stats_net=StatsNet.from_tensors(tensors, "stats_net."),
            ubm=DiagGmm.from_tensors(tensors, "ubm."),
            pca=PcaModel.from_tensors(tensors, "pca."),
            ivec_net=IvecNet.from_tensors(tensors, "ivec_net."),
            dplda=DpldaParams.from_tensors(tensors, "dplda."),
            relevance=float(tensors["relevance"]),
            snapshot=snapshot,
        )


def assemble_system(
    frontend, stats_net, ubm, pca, ivec_net, dplda, relevance=DEFAULT_RELEVANCE,
    snapshot_weight=0.0,
) -> E2eSystem:
    """Wire copies of the individually trained stages together and freeze the snapshot.

    Training the system never changes the caller's networks or backend.
    """
    system = E2eSystem(
        frontend=frontend,
        stats_net=StatsNet(stats_net.net.copy()),
        ubm=ubm,
        pca=pca,
        ivec_net=IvecNet(ivec_net.net.copy()),
        dplda=dplda.copy(),
        relevance=relevance,
    )
    system.snapshot = netcore.make_snapshot(
        system.trainable_parameters(), snapshot_weight
    )
    return system


def preprocess(system: E2eSystem, features):
    """Normalized features and their context expansion."""
    norm = stmvn(features, system.frontend.window_s, system.frontend.frame_rate_hz)
    return norm, context_expand(norm, system.frontend.context, system.frontend.n_dct)


def _utterance_stats(system, features, ledger=None, keep_cache=False):
    norm, expanded = preprocess(system, features)
    if ledger is not None:
        ledger.acquire()
    acts = netcore.forward(system.stats_net.net, expanded)
    stats = sufficient_stats(acts[-1], norm)
    if not keep_cache:
        acts = None
        if ledger is not None:
            ledger.release()
    return norm, expanded, stats, acts


def _utterance_coords(system, features):
    _, _, stats, _ = _utterance_stats(system, features)
    supervector = map_supervector(system.ubm, stats, system.relevance)
    return (supervector - system.pca.mean) @ system.pca.basis


def pca_coords(system: E2eSystem, features_list):
    """(U, P) PCA coordinates of the utterances' MAP supervectors.

    They depend on the statistics network, so they stay valid only while
    it is frozen; embed_coords turns them into embeddings.
    """
    return np.stack([_utterance_coords(system, f) for f in features_list])


def embed_coords(system: E2eSystem, coords):
    """Unit-norm embeddings of (U, P) PCA coordinates, one row at a time."""
    return np.stack(
        [netcore.forward(system.ivec_net.net, row[None, :])[-1][0] for row in coords]
    )


def embed_utterance(system: E2eSystem, features):
    """Unit-norm embedding of one utterance (inference path)."""
    return embed_coords(system, pca_coords(system, [features]))[0]


def embed_utterances(system: E2eSystem, features_list):
    return embed_coords(system, pca_coords(system, features_list))


def _system_grads(system, features_list, loss_fn, ledger, keep_caches):
    """Shared forward/backward machinery for both checkpointing modes.

    loss_fn maps the (U, R') embedding matrix to (loss, d_embeddings).
    Returns (loss, grads) with grads aligned to the statistics-net plus
    embedding-net parameters.
    """
    if not features_list:
        raise InputError("empty utterance batch")
    norms = []
    expanded_list = []
    stats_list = []
    caches = []
    for features in features_list:
        norm, expanded, stats, acts = _utterance_stats(
            system, features, ledger=ledger, keep_cache=keep_caches
        )
        norms.append(norm)
        expanded_list.append(expanded)
        stats_list.append(stats)
        caches.append(acts)

    supervectors = np.stack(
        [map_supervector(system.ubm, s, system.relevance) for s in stats_list]
    )
    coords = (supervectors - system.pca.mean) @ system.pca.basis
    ivec_acts = netcore.forward(system.ivec_net.net, coords)
    loss, d_emb = loss_fn(ivec_acts[-1])
    ivec_grads, d_coords = netcore.backward(system.ivec_net.net, ivec_acts, d_emb)
    d_super = d_coords @ system.pca.basis.T

    c, d = system.ubm.n_components, system.ubm.dim
    stats_grads = [np.zeros_like(p) for p in system.stats_net.net.parameters()]
    for u in range(len(features_list)):
        d_sv = d_super[u].reshape(c, d)
        denom = stats_list[u].n + system.relevance
        d_f = d_sv / denom[:, None]
        d_n = -(d_sv * supervectors[u].reshape(c, d)).sum(axis=1) / denom
        if keep_caches:
            acts = caches[u]
        else:
            if ledger is not None:
                ledger.acquire()
            acts = netcore.forward(system.stats_net.net, expanded_list[u])
        grads_u = pooled_stats_backward(system.stats_net, acts, norms[u], d_n, d_f)
        if not keep_caches and ledger is not None:
            ledger.release()
        for g, gu in zip(stats_grads, grads_u):
            g += gu
    if keep_caches and ledger is not None:
        for _ in features_list:
            ledger.release()
    return loss, stats_grads + ivec_grads


def checkpointed_grads(system, features_list, loss_fn, ledger=None):
    """Gradients with per-utterance recomputation of frame-level activations.

    Identical arithmetic to full_graph_grads; only one utterance's
    statistics-network activations are live at any time.
    """
    return _system_grads(system, features_list, loss_fn, ledger, keep_caches=False)


def full_graph_grads(system, features_list, loss_fn, ledger=None):
    """Reference backward pass that keeps every activation in memory."""
    return _system_grads(system, features_list, loss_fn, ledger, keep_caches=True)


@dataclass
class TrainSchedule:
    n_pairs: int
    lr: float
    epoch_batches: int
    max_epochs: int
    objective: ObjectiveConfig

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
    utts = corpus.split(split)
    if not utts:
        raise ConfigError(f"corpus has no {split} utterances")
    return [u.features for u in utts], np.array([u.speaker for u in utts])


def _dev_metrics(embeddings, speakers, params):
    batch = TrialBatch.all_trials(embeddings, speakers)
    trials = ScoredTrials(batch.scores(params), batch.is_target)
    return eer(trials), c_primary(trials)


def train_joint_s2i_dplda(
    system: E2eSystem, corpus: Corpus, schedule, rng, *, train_coords=None
):
    """Jointly train the embedding network and the scoring parameters.

    The statistics network stays frozen. train_coords, when given, are
    pca_coords of the corpus's train split under this system, so a caller
    that already computed them does not pay for the frontend again. Returns
    (system, history); the system carries the best-on-dev parameters
    (initialization included as a candidate).
    """
    return _train_jointly(
        system, corpus, schedule, rng, train_stats_net=False, train_coords=train_coords
    )


def train_e2e_full(system: E2eSystem, corpus: Corpus, schedule, rng):
    """Train all three stages jointly with checkpointed backpropagation."""
    return _train_jointly(system, corpus, schedule, rng, train_stats_net=True)


def _train_jointly(system, corpus, schedule, rng, train_stats_net, train_coords=None):
    """Adam on sampled trial batches with a snapshot penalty and best-on-dev.

    A frozen statistics network only feeds fixed inputs to the embedding
    network, so its PCA coordinates are computed once per utterance (unless
    the caller hands in train_coords) and each batch runs the embedding
    network alone. A trained one is backpropagated through per batch with
    checkpointed_grads.
    """
    if system.snapshot is None:
        raise ConfigError("system has no parameter snapshot; assemble it first")
    train_feats, train_speakers = _split_features(corpus, "train")
    dev_feats, dev_speakers = _split_features(corpus, "dev")
    n_skip = 0 if train_stats_net else system.n_stats_params
    frozen = system.trainable_parameters()[:n_skip]
    snapshot = netcore.ParamSnapshot(
        system.snapshot.values[n_skip:], system.snapshot.weights[n_skip:]
    )

    def params_of():
        return system.trainable_parameters()[n_skip:]

    def set_params(params):
        system.set_trainable_parameters(frozen + params)

    if train_stats_net:
        def dev_embeddings():
            return embed_utterances(system, dev_feats)
    else:
        if train_coords is None:
            train_coords = pca_coords(system, train_feats)
        elif np.shape(train_coords) != (len(train_feats), system.pca.basis.shape[1]):
            raise ShapeError("train_coords must hold one PCA row per train utterance")
        dev_coords = pca_coords(system, dev_feats)

        def dev_embeddings():
            return netcore.forward(system.ivec_net.net, dev_coords)[-1]

    utts_by_speaker = {
        spk: np.flatnonzero(train_speakers == spk)
        for spk in np.unique(train_speakers)
    }
    pool = make_pair_pool(utts_by_speaker, rng)
    adam = netcore.AdamState.create(params_of(), lr=schedule.lr)

    def batch_step():
        idx = draw_groups(pool, schedule.n_pairs, rng)
        holder = {}

        def loss_fn(embeddings):
            batch = TrialBatch.all_trials(embeddings, train_speakers[idx])
            loss, holder["d"], d_emb = bxe_objective(
                system.dplda, batch, schedule.objective
            )
            return loss, d_emb

        if train_stats_net:
            loss, net_grads = checkpointed_grads(
                system, [train_feats[i] for i in idx], loss_fn
            )
        else:
            acts = netcore.forward(system.ivec_net.net, train_coords[idx])
            loss, d_emb = loss_fn(acts[-1])
            net_grads, _ = netcore.backward(
                system.ivec_net.net, acts, d_emb, input_grad=False
            )
        d = holder["d"]
        grads = net_grads + [d.lam, d.gamma, d.c, np.asarray(d.k, dtype=np.float64)]
        params = params_of()
        penalty, pen_grads = netcore.penalty_to_snapshot(params, snapshot)
        grads = [g + pg for g, pg in zip(grads, pen_grads)]
        set_params(netcore.adam_step(adam, params, grads))
        return loss + penalty

    init_eer, best_c = _dev_metrics(dev_embeddings(), dev_speakers, system.dplda)
    best_params = [p.copy() for p in params_of()]
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
            best_c = dev_c
            best_params = [p.copy() for p in params_of()]
    set_params(best_params)
    return system, history
