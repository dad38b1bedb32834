"""Discriminative PLDA backend.

Scores a trial from two embeddings through the symmetric quadratic form

    s = phi_i' L phi_j + phi_j' L phi_i + phi_i' G phi_i + phi_j' G phi_j
        + (phi_i + phi_j)' c + k

and trains (L, G, c, k) directly on target/non-target trials with a bare
prior-weighted binary cross-entropy: full-batch with scipy's L-BFGS-B, until
the gradient 2-norm is at most 1e-6, when trained alone; minibatches drawn from
per-speaker utterance pairs when trained jointly with the upstream networks.
Both add netcore.penalty_to_snapshot, toward zero or toward the joint anchor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np
from scipy.optimize import minimize

from . import netcore
from .errors import InputError, ObjectiveError, OptimizerError, ShapeError

logger = logging.getLogger(__name__)

_GRAD_TOL = 1e-6  # L-BFGS-B stops when the gradient 2-norm is at most this
_LBFGS_HISTORY = 10


@dataclass
class DpldaParams:
    """Quadratic scoring parameters; lam and gamma are kept symmetric."""

    lam: np.ndarray  # (R, R) cross-pair coefficient
    gamma: np.ndarray  # (R, R) per-side coefficient
    c: np.ndarray  # (R,)
    k: float

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.k = float(self.k)
        dim = self.c.shape[0]
        if self.lam.shape != (dim, dim) or self.gamma.shape != (dim, dim):
            raise ShapeError("inconsistent scoring parameter shapes")
        self.lam = 0.5 * (self.lam + self.lam.T)
        self.gamma = 0.5 * (self.gamma + self.gamma.T)

    @property
    def dim(self):
        return self.c.shape[0]

    def copy(self):
        return DpldaParams(self.lam.copy(), self.gamma.copy(), self.c.copy(), self.k)

    def parameters(self):
        """[lam, gamma, c, k] as arrays; DpldaParams(*p) rebuilds them."""
        return [self.lam, self.gamma, self.c, np.asarray(self.k, dtype=np.float64)]

    def set_parameters(self, params):
        """Install [lam, gamma, c, k] of this backend's shapes, symmetrizing lam and gamma."""
        if [np.shape(p) for p in params] != [np.shape(p) for p in self.parameters()]:
            raise ShapeError("scoring parameters do not match the backend's shapes")
        vars(self).update(vars(DpldaParams(*params)))


def score_pairs(params: DpldaParams, enroll, test):
    """Vectorized scores for row-aligned enrollment/test matrices."""
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    test = np.atleast_2d(np.asarray(test, dtype=np.float64))
    if enroll.shape != test.shape or enroll.shape[1] != params.dim:
        raise ShapeError("enroll/test matrices must align with the parameters")
    cross = 2.0 * ((enroll @ params.lam) * test).sum(axis=1)
    quad_e = ((enroll @ params.gamma) * enroll).sum(axis=1)
    quad_t = ((test @ params.gamma) * test).sum(axis=1)
    lin = (enroll + test) @ params.c
    return cross + quad_e + quad_t + lin + params.k


@dataclass
class TrialBatch:
    """A set of utterances plus every unordered trial among them.

    Trial (i, j), i < j, is cell [i, j] of the (U, U) pair matrices. Trials
    are ordered row-major over the strict upper triangle (the order of
    np.triu_indices(U, 1)) in is_target and scores().
    """

    vectors: np.ndarray  # (U, R)
    trials: np.ndarray  # (U, U) bool, the strict upper triangle
    targets: np.ndarray  # (U, U) bool, the same-speaker trials

    @classmethod
    def all_trials(cls, vectors, speakers):
        vectors = np.asarray(vectors, dtype=np.float64)
        speakers = np.asarray(speakers)
        if vectors.ndim != 2 or vectors.shape[0] != speakers.shape[0]:
            raise ShapeError("one speaker label per vector required")
        n = vectors.shape[0]
        trials = np.triu(np.ones((n, n), dtype=bool), k=1)
        targets = trials & (speakers[:, None] == speakers[None, :])
        return cls(vectors, trials, targets)

    @property
    def n_trials(self):
        n = self.vectors.shape[0]
        return n * (n - 1) // 2

    @property
    def is_target(self):
        return self.targets[self.trials]

    def score_matrix(self, params: DpldaParams):
        """(U, U) scores of every ordered pair: 2 Phi L Phi' + s 1' + 1 s' + k,
        with s_i = phi_i' G phi_i + c' phi_i."""
        phis = self.vectors
        own = ((phis @ params.gamma) * phis).sum(axis=1) + phis @ params.c
        return 2.0 * (phis @ params.lam) @ phis.T + own[:, None] + own[None, :] + params.k

    def scores(self, params: DpldaParams):
        return self.score_matrix(params)[self.trials]


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bxe_objective(params: DpldaParams, batch: TrialBatch, p_target):
    """Prior-weighted binary cross-entropy over a trial batch.

    Returns (loss, grads: DpldaParams, grad_vectors (U, R)). Target trials
    carry weight p_target/#targets, non-targets (1-p_target)/#nontargets, so
    the loss is an empirical Bayes risk at the prior p_target, which must lie
    strictly inside (0, 1). grad_vectors backpropagates into the embeddings
    for joint training.
    """
    if not 0.0 < p_target < 1.0:
        raise InputError("target prior must lie strictly inside (0, 1)")
    if batch.n_trials == 0:
        raise ObjectiveError("empty trial batch")
    n_target = int(batch.targets.sum())
    n_non = batch.n_trials - n_target
    if n_target == 0 or n_non == 0:
        raise ObjectiveError("batch must contain both target and non-target trials")
    theta = np.log(p_target / (1.0 - p_target))
    z = batch.score_matrix(params) + theta
    alpha = p_target / n_target
    beta = (1.0 - p_target) / n_non
    non = batch.trials & ~batch.targets
    loss = alpha * _softplus(-z[batch.targets]).sum() + beta * _softplus(z[non]).sum()

    # dloss/dscore of each trial, in its cell of the upper triangle
    sig = _sigmoid(z)
    m = np.where(batch.targets, alpha * (sig - 1.0), np.where(non, beta * sig, 0.0))
    sym = m + m.T
    per_utt = sym.sum(axis=1)  # total trial weight touching each utterance
    phis = batch.vectors
    d_lam = phis.T @ sym @ phis
    d_gamma = (phis * per_utt[:, None]).T @ phis
    d_c = phis.T @ per_utt
    d_k = float(m.sum())
    d_vectors = (
        2.0 * (sym @ phis) @ params.lam
        + 2.0 * per_utt[:, None] * (phis @ params.gamma)
        + per_utt[:, None] * params.c
    )
    grads = DpldaParams(d_lam, d_gamma, d_c, d_k)
    return float(loss), grads, d_vectors


# ---------------------------------------------------------------------------
# full-batch training with scipy's L-BFGS-B

def pack_params(params: DpldaParams):
    return np.concatenate([p.ravel() for p in params.parameters()])


def unpack_params(flat, dim):
    n = dim * dim
    return DpldaParams(
        flat[:n].reshape(dim, dim),
        flat[n : 2 * n].reshape(dim, dim),
        flat[2 * n : 2 * n + dim],
        float(flat[-1]),
    )


def train_dplda_fullbatch(init: DpldaParams, vectors, speakers, p_target, l2, max_iters):
    """Minimize the weighted cross-entropy over all trials with L-BFGS-B.

    The objective is bxe_objective at p_target plus netcore.penalty_to_snapshot
    of (lam, gamma, c) toward zero with weight l2; k is never pulled.
    scipy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995; history 10, no bounds)
    stops when the 2-norm of the gradient is at most 1e-6 (its per-entry
    gtol is that over sqrt(#parameters)) or after max_iters iterations; a
    failed line search stops with a warning. Returns (params, loss_history):
    the loss at init and after each iteration, never rising.
    """
    batch = TrialBatch.all_trials(vectors, speakers)
    dim = batch.vectors.shape[1]
    if init.dim != dim:
        raise ShapeError("initial parameters do not match the vectors")
    zeros = [np.zeros((dim, dim)), np.zeros((dim, dim)), np.zeros(dim)]
    history: list[float] = []

    def evaluate(flat):
        params = unpack_params(flat, dim)
        loss, grads, _ = bxe_objective(params, batch, p_target)
        penalty, (d_lam, d_gamma, d_c) = netcore.penalty_to_snapshot(
            [params.lam, params.gamma, params.c], zeros, l2
        )
        loss += penalty
        if not history:  # the first evaluation is at init
            history.append(loss)
        grads = DpldaParams(grads.lam + d_lam, grads.gamma + d_gamma, grads.c + d_c, grads.k)
        return loss, pack_params(grads)

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    x0 = pack_params(init)
    if max_iters < 1:  # L-BFGS-B takes one iteration before it reads maxiter
        evaluate(x0)
        return unpack_params(x0, dim), history
    res = minimize(
        evaluate,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={
            "maxiter": max_iters,
            "maxcor": _LBFGS_HISTORY,
            "ftol": 0.0,
            "gtol": _GRAD_TOL / np.sqrt(x0.size),
        },
    )
    if res.status == 2:
        logger.warning("L-BFGS-B stopped early: %s", res.message)
    if not np.isfinite(res.fun):
        raise OptimizerError("non-finite loss after optimization")
    return unpack_params(res.x, dim), history


# ---------------------------------------------------------------------------
# minibatch sampler: per-speaker utterance pairs drawn without replacement

def make_pair_pool(utts_by_speaker, rng):
    """One pass: each speaker's utterances randomly grouped into pairs.

    A single utterance forms its own group; an odd count of three or more
    puts three utterances in one group. Returns the groups in a shuffled
    draw order.
    """
    if not utts_by_speaker:
        raise InputError("empty speaker map")
    groups = []
    for spk in sorted(utts_by_speaker, key=str):
        utts = np.asarray(utts_by_speaker[spk])
        perm = utts[rng.permutation(utts.shape[0])]
        if perm.shape[0] == 1:
            groups.append(perm)
        elif perm.shape[0] % 2 == 0:
            groups.extend(perm[i : i + 2] for i in range(0, perm.shape[0], 2))
        else:
            groups.extend(perm[i : i + 2] for i in range(0, perm.shape[0] - 3, 2))
            groups.append(perm[-3:])
    order = rng.permutation(len(groups))
    return [groups[i] for i in order]


def pair_batches(speakers, n_pairs, rng):
    """Endless batches of n_pairs groups, as flat indices into speakers.

    speakers holds one label per utterance. The first pass is drawn now;
    groups are taken without replacement and a fresh pass is drawn when one
    runs out, mid-batch included. A batch that spans two passes drops every
    index it already holds, keeping the order of first occurrences, so no
    trial pairs an utterance with itself.
    """
    if n_pairs < 1:
        raise InputError("must draw at least one group")
    speakers = np.asarray(speakers)
    by_speaker = {s: np.flatnonzero(speakers == s) for s in np.unique(speakers)}
    first = make_pair_pool(by_speaker, rng)
    passes = chain([first], (make_pair_pool(by_speaker, rng) for _ in count()))
    groups = chain.from_iterable(passes)
    return (_first_occurrences(np.concatenate(list(islice(groups, n_pairs)))) for _ in count())


def _first_occurrences(indices):
    """indices without repeats, in the order each first occurs."""
    _, first = np.unique(indices, return_index=True)
    return indices[np.sort(first)]
