"""Discriminative PLDA backend.

Scores a trial from two embeddings through the symmetric quadratic form

    s = phi_i' L phi_j + phi_j' L phi_i + phi_i' G phi_i + phi_j' G phi_j
        + (phi_i + phi_j)' c + k

and trains (L, G, c, k) directly on target/non-target trials with a
prior-weighted binary cross-entropy: full-batch quasi-Newton when trained
alone, minibatches drawn from per-speaker utterance pairs when trained
jointly with the upstream networks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ObjectiveError, OptimizerError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_TARGET_PRIOR = 0.0075  # midpoint of the 0.01 / 0.005 operating points


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

    def to_tensors(self, prefix=""):
        return {
            f"{prefix}lam": self.lam,
            f"{prefix}gamma": self.gamma,
            f"{prefix}c": self.c,
            f"{prefix}k": np.float64(self.k),
        }

    @classmethod
    def from_tensors(cls, tensors, prefix=""):
        return cls(
            tensors[f"{prefix}lam"],
            tensors[f"{prefix}gamma"],
            tensors[f"{prefix}c"],
            float(tensors[f"{prefix}k"]),
        )


def dplda_score(params: DpldaParams, phi_i, phi_j):
    """Score one trial; term-by-term evaluation of the quadratic form."""
    phi_i = np.asarray(phi_i, dtype=np.float64)
    phi_j = np.asarray(phi_j, dtype=np.float64)
    if phi_i.shape != (params.dim,) or phi_j.shape != (params.dim,):
        raise ShapeError("embedding dimension does not match the parameters")
    return float(
        phi_i @ params.lam @ phi_j
        + phi_j @ params.lam @ phi_i
        + phi_i @ params.gamma @ phi_i
        + phi_j @ params.gamma @ phi_j
        + (phi_i + phi_j) @ params.c
        + params.k
    )


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
    """A set of utterances plus every unordered trial among them."""

    vectors: np.ndarray  # (U, R)
    speakers: np.ndarray  # (U,)
    pairs: np.ndarray  # (n_trials, 2) int indices, i < j
    is_target: np.ndarray  # (n_trials,) bool

    @classmethod
    def all_trials(cls, vectors, speakers):
        vectors = np.asarray(vectors, dtype=np.float64)
        speakers = np.asarray(speakers)
        if vectors.ndim != 2 or vectors.shape[0] != speakers.shape[0]:
            raise ShapeError("one speaker label per vector required")
        n = vectors.shape[0]
        idx_i, idx_j = np.triu_indices(n, k=1)
        pairs = np.stack([idx_i, idx_j], axis=1)
        is_target = speakers[idx_i] == speakers[idx_j]
        return cls(vectors, speakers, pairs, is_target)

    @property
    def n_trials(self):
        return self.pairs.shape[0]

    def scores(self, params: DpldaParams):
        return score_pairs(
            params, self.vectors[self.pairs[:, 0]], self.vectors[self.pairs[:, 1]]
        )


@dataclass
class ObjectiveConfig:
    p_target: float = DEFAULT_TARGET_PRIOR
    l2_weight: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise InputError("target prior must lie strictly inside (0, 1)")
        if self.l2_weight < 0.0:
            raise InputError("l2 weight must be non-negative")


def _softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bxe_objective(params: DpldaParams, batch: TrialBatch, cfg: ObjectiveConfig):
    """Prior-weighted binary cross-entropy over a trial batch.

    Returns (loss, grads: DpldaParams, grad_vectors (U, R)). Target trials
    carry weight p_target/#targets, non-targets (1-p_target)/#nontargets, so
    the loss is an empirical Bayes risk at the configured prior. The L2 term
    covers lam, gamma and c but never k. grad_vectors backpropagates into the
    embeddings for joint training.
    """
    if batch.n_trials == 0:
        raise ObjectiveError("empty trial batch")
    n_target = int(batch.is_target.sum())
    n_non = batch.n_trials - n_target
    if n_target == 0 or n_non == 0:
        raise ObjectiveError("batch must contain both target and non-target trials")
    theta = np.log(cfg.p_target / (1.0 - cfg.p_target))
    z = batch.scores(params) + theta
    alpha = cfg.p_target / n_target
    beta = (1.0 - cfg.p_target) / n_non
    tgt = batch.is_target
    loss = alpha * _softplus(-z[tgt]).sum() + beta * _softplus(z[~tgt]).sum()
    loss += cfg.l2_weight * (
        (params.lam**2).sum() + (params.gamma**2).sum() + (params.c**2).sum()
    )

    # per-trial dloss/dscore
    w = np.where(tgt, alpha * (_sigmoid(z) - 1.0), beta * _sigmoid(z))
    n_utts = batch.vectors.shape[0]
    m = np.zeros((n_utts, n_utts))
    np.add.at(m, (batch.pairs[:, 0], batch.pairs[:, 1]), w)
    sym = m + m.T
    per_utt = sym.sum(axis=1)  # total trial weight touching each utterance
    phis = batch.vectors
    d_lam = phis.T @ sym @ phis + 2.0 * cfg.l2_weight * params.lam
    d_gamma = (phis * per_utt[:, None]).T @ phis + 2.0 * cfg.l2_weight * params.gamma
    d_c = phis.T @ per_utt + 2.0 * cfg.l2_weight * params.c
    d_k = float(w.sum())
    d_vectors = (
        2.0 * (sym @ phis) @ params.lam
        + 2.0 * per_utt[:, None] * (phis @ params.gamma)
        + per_utt[:, None] * params.c
    )
    grads = DpldaParams(d_lam, d_gamma, d_c, d_k)
    return float(loss), grads, d_vectors


# ---------------------------------------------------------------------------
# full-batch quasi-Newton training

def pack_params(params: DpldaParams):
    return np.concatenate(
        [params.lam.ravel(), params.gamma.ravel(), params.c, [params.k]]
    )


def unpack_params(flat, dim):
    n = dim * dim
    return DpldaParams(
        flat[:n].reshape(dim, dim),
        flat[n : 2 * n].reshape(dim, dim),
        flat[2 * n : 2 * n + dim],
        float(flat[-1]),
    )


def train_dplda_fullbatch(
    init: DpldaParams,
    vectors,
    speakers,
    cfg: ObjectiveConfig,
    max_iters=200,
    grad_tol=1e-6,
    history_size=10,
):
    """Minimize the weighted cross-entropy over all trials with L-BFGS.

    Two-loop recursion (history 10) with Armijo backtracking; a non-finite
    loss rejects the step and halves it, and a step below 1e-16 stops with a
    warning. Returns (params, loss_history); the final loss never exceeds
    the initial one.
    """
    batch = TrialBatch.all_trials(vectors, speakers)
    dim = batch.vectors.shape[1]
    if init.dim != dim:
        raise ShapeError("initial parameters do not match the vectors")

    def evaluate(flat):
        loss, grads, _ = bxe_objective(unpack_params(flat, dim), batch, cfg)
        return loss, pack_params(grads)

    x = pack_params(init)
    f, g = evaluate(x)
    history = [f]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    for it in range(max_iters):
        if np.linalg.norm(g) < grad_tol:
            break
        d = -_two_loop(g, s_hist, y_hist)
        descent = float(d @ g)
        if descent >= 0.0:  # curvature info unusable; fall back to steepest
            d = -g
            descent = float(d @ g)
        step = 1.0 if s_hist else min(1.0, 1.0 / max(1.0, np.linalg.norm(g)))
        accepted = False
        while step >= 1e-16:
            x_new = x + step * d
            f_new, g_new = evaluate(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * descent:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            logger.warning("line search step underflow at iteration %d", it)
            break
        s = x_new - x
        y = g_new - g
        if float(s @ y) > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            s_hist.append(s)
            y_hist.append(y)
            if len(s_hist) > history_size:
                s_hist.pop(0)
                y_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        history.append(f)
    if not np.isfinite(f):
        raise OptimizerError("non-finite loss after optimization")
    return unpack_params(x, dim), history


def _two_loop(g, s_hist, y_hist):
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        q -= a * y
        alphas.append((a, rho))
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        q *= float(s @ y) / float(y @ y)
    for (a, rho), s, y in zip(reversed(alphas), s_hist, y_hist):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


# ---------------------------------------------------------------------------
# minibatch sampler: per-speaker utterance pairs drawn without replacement

@dataclass
class PairPool:
    """Per-speaker utterance groups (size 2, with one 1- or 3-group allowed).

    groups is the remaining draw order for the current pass; source keeps the
    speaker map so an exhausted pool can be rebuilt with a fresh pairing.
    """

    groups: list[np.ndarray]
    source: dict

    @property
    def n_remaining(self):
        return len(self.groups)


def make_pair_pool(utts_by_speaker, rng) -> PairPool:
    """Randomly group each speaker's utterances into pairs.

    A single utterance forms its own group; an odd count of three or more
    puts three utterances in one group. Group draw order is shuffled.
    """
    source = {spk: np.asarray(utts) for spk, utts in utts_by_speaker.items()}
    if not source:
        raise InputError("empty speaker map")
    groups = []
    for spk in sorted(source, key=str):
        perm = source[spk][rng.permutation(source[spk].shape[0])]
        if perm.shape[0] == 1:
            groups.append(perm)
        elif perm.shape[0] % 2 == 0:
            groups.extend(perm[i : i + 2] for i in range(0, perm.shape[0], 2))
        else:
            groups.extend(perm[i : i + 2] for i in range(0, perm.shape[0] - 3, 2))
            groups.append(perm[-3:])
    order = rng.permutation(len(groups))
    return PairPool([groups[i] for i in order], source)


def draw_groups(pool: PairPool, n_pairs, rng):
    """Take n_pairs groups without replacement, refreshing the pool when the
    current pass runs out mid-draw. Returns flat utterance indices."""
    if n_pairs < 1:
        raise InputError("must draw at least one group")
    taken = []
    while len(taken) < n_pairs:
        if not pool.groups:
            fresh = make_pair_pool(pool.source, rng)
            pool.groups = fresh.groups
        taken.append(pool.groups.pop(0))
    return np.concatenate(taken)

