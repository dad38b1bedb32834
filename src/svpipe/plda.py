"""Generative two-covariance PLDA.

Each speaker has a latent mean drawn from N(mu, between); utterances scatter
around it with covariance `within`. Training is exact EM; verification
scoring is the log-likelihood ratio between the shared-speaker and
independent-speaker hypotheses, evaluated from Gaussian densities. The
closed-form conversion to quadratic scoring parameters is checked against
that density route at construction time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dplda import DpldaParams, score_pairs
from .errors import InputError, ModelError, ShapeError

logger = logging.getLogger(__name__)

_RIDGE = 1e-10
_CONVERSION_TOL = 1e-8


@dataclass
class TwoCovPlda:
    """Global mean, across-class covariance and within-class covariance."""

    mu: np.ndarray
    between: np.ndarray
    within: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.between = np.asarray(self.between, dtype=np.float64)
        self.within = np.asarray(self.within, dtype=np.float64)
        dim = self.mu.shape[0]
        if self.between.shape != (dim, dim) or self.within.shape != (dim, dim):
            raise ShapeError("covariance shapes do not match the mean")
        self.between = 0.5 * (self.between + self.between.T)
        self.within = 0.5 * (self.within + self.within.T)

    @property
    def dim(self):
        return self.mu.shape[0]


def _chol_logdet(mat, what):
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ModelError(f"{what} covariance is not positive definite") from None
    return chol, 2.0 * float(np.log(np.diag(chol)).sum())


def train_plda(vectors, labels, n_iters):
    """EM for the two-covariance model.

    Needs at least two speakers and at least one speaker with two or more
    utterances. Returns (model, ll_history) where ll_history[i] is the exact
    marginal log-likelihood of the model entering iteration i.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    if vectors.ndim != 2 or vectors.shape[0] != labels.shape[0]:
        raise ShapeError("one label per vector required")
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise InputError("two-covariance training needs at least two speakers")
    counts = np.array([(labels == c).sum() for c in classes])
    if counts.max() < 2:
        raise InputError(
            "within-class covariance unidentifiable: no speaker has two utterances"
        )
    dim = vectors.shape[1]
    groups = [vectors[labels == c] for c in classes]
    group_means = np.stack([g.mean(axis=0) for g in groups])

    mu = vectors.mean(axis=0)
    within = np.zeros((dim, dim))
    for g, m in zip(groups, group_means):
        diff = g - m
        within += diff.T @ diff
    within /= vectors.shape[0]
    diff = group_means - mu
    between = (diff.T @ (diff * counts[:, None])) / vectors.shape[0]
    ridge = np.eye(dim)
    within += 1e-6 * (np.trace(within) / dim + 1e-12) * ridge
    between += 1e-6 * (np.trace(between) / dim + 1e-12) * ridge

    model = TwoCovPlda(mu, between, within)
    history = []
    for it in range(n_iters):
        ll = 0.0
        sum_post_mean = np.zeros(dim)
        acc_between = np.zeros((dim, dim))
        acc_within = np.zeros((dim, dim))
        _, w_logdet = _chol_logdet(model.within, "within")
        w_inv = np.linalg.inv(model.within)
        for g, count in zip(groups, counts):
            xbar = g.mean(axis=0)
            # marginal: xbar ~ N(mu, between + within/n), residuals around xbar
            marg_cov = model.between + model.within / count
            marg_chol, marg_logdet = _chol_logdet(marg_cov, "marginal")
            resid = g - xbar
            quad_resid = float(np.einsum("td,de,te->", resid, w_inv, resid))
            delta = np.linalg.solve(marg_chol, xbar - model.mu)
            ll += -0.5 * (
                count * dim * np.log(2.0 * np.pi)
                + (count - 1) * w_logdet
                + dim * np.log(count)
                + marg_logdet
                + quad_resid
                + float(delta @ delta)
            )
            # posterior of the latent speaker mean (Kalman form, no B^-1)
            gain = model.between @ np.linalg.inv(marg_cov)
            post_mean = model.mu + gain @ (xbar - model.mu)
            post_cov = model.between - gain @ model.between
            sum_post_mean += post_mean
            acc_between += post_cov + np.outer(post_mean, post_mean)
            acc_within += resid.T @ resid + count * post_cov + count * np.outer(
                xbar - post_mean, xbar - post_mean
            )
        history.append(ll)
        n_spk = classes.shape[0]
        mu = sum_post_mean / n_spk
        between = acc_between / n_spk - np.outer(mu, mu)
        within = acc_within / vectors.shape[0]
        between += _RIDGE * (np.trace(between) / dim + 1e-12) * ridge
        within += _RIDGE * (np.trace(within) / dim + 1e-12) * ridge
        model = TwoCovPlda(mu, between, within)
        logger.debug("plda iter %d: ll %.6f", it, ll)
    return model, history


def _llr_terms(model: TwoCovPlda):
    dim = model.dim
    tot = model.between + model.within
    joint = np.block([[tot, model.between], [model.between, tot]])
    _, tot_logdet = _chol_logdet(tot, "total")
    _, joint_logdet = _chol_logdet(joint, "joint")
    tot_inv = np.linalg.inv(tot)
    tot_inv = 0.5 * (tot_inv + tot_inv.T)
    joint_inv = np.linalg.inv(joint)
    diag = 0.5 * (joint_inv[:dim, :dim] + joint_inv[dim:, dim:])
    diag = 0.5 * (diag + diag.T)
    cross = 0.5 * (joint_inv[:dim, dim:] + joint_inv[dim:, :dim].T)
    cross = 0.5 * (cross + cross.T)
    const = tot_logdet - 0.5 * joint_logdet
    return tot_inv, diag, cross, const


def plda_llr_pairs(model: TwoCovPlda, enroll, test):
    """Verification log-likelihood ratio of each row-aligned trial.

    log p(e, t | same speaker) - log p(e) p(t), both hypotheses evaluated as
    Gaussian densities of the two-covariance model. The cross term is
    evaluated symmetrically, so swapping enroll and test is exact.
    """
    enroll = np.atleast_2d(np.asarray(enroll, dtype=np.float64))
    test = np.atleast_2d(np.asarray(test, dtype=np.float64))
    if enroll.shape != test.shape or enroll.shape[1] != model.dim:
        raise ShapeError("enroll/test matrices must align with the model")
    tot_inv, diag, cross, const = _llr_terms(model)
    phi_e = enroll - model.mu
    phi_t = test - model.mu
    quad_joint = ((phi_e @ diag) * phi_e).sum(axis=1) + ((phi_t @ diag) * phi_t).sum(
        axis=1
    )
    plus = phi_e + phi_t
    minus = phi_e - phi_t
    quad_cross = 0.25 * (
        ((plus @ cross) * plus).sum(axis=1) - ((minus @ cross) * minus).sum(axis=1)
    )
    quad_marg = ((phi_e @ tot_inv) * phi_e).sum(axis=1) + (
        (phi_t @ tot_inv) * phi_t
    ).sum(axis=1)
    return -0.5 * quad_joint - quad_cross + 0.5 * quad_marg + const


def to_dplda(model: TwoCovPlda) -> DpldaParams:
    """Closed-form conversion of the LLR into the quadratic scoring form.

    Diagonalizing the shared-speaker covariance over the sum/difference of
    the pair gives

        lam   = (W^-1 - (W + 2B)^-1) / 4
        gamma = (B + W)^-1 / 2 - ((W + 2B)^-1 + W^-1) / 4
        c     = -2 (lam + gamma) mu
        k     = 2 mu'(lam + gamma) mu + log|B + W|
                - log|W + 2B| / 2 - log|W| / 2

    The construction is verified, not trusted: scores on a few random pairs
    must match plda_llr_pairs to 1e-8 or a ModelError is raised.
    """
    w_inv = np.linalg.inv(model.within)
    wide = model.within + 2.0 * model.between
    wide_inv = np.linalg.inv(wide)
    tot_inv = np.linalg.inv(model.between + model.within)
    _, w_logdet = _chol_logdet(model.within, "within")
    _, wide_logdet = _chol_logdet(wide, "wide")
    _, tot_logdet = _chol_logdet(model.between + model.within, "total")
    lam = 0.25 * (w_inv - wide_inv)
    gamma = 0.5 * tot_inv - 0.25 * (wide_inv + w_inv)
    both = lam + gamma
    c = -2.0 * both @ model.mu
    k = float(
        2.0 * model.mu @ both @ model.mu
        + tot_logdet
        - 0.5 * wide_logdet
        - 0.5 * w_logdet
    )
    params = DpldaParams(lam, gamma, c, k)
    rng = np.random.default_rng(0)
    scale = np.sqrt(np.trace(model.between + model.within) / model.dim)
    e = model.mu + scale * rng.standard_normal((8, model.dim))
    t = model.mu + scale * rng.standard_normal((8, model.dim))
    gap = np.abs(score_pairs(params, e, t) - plda_llr_pairs(model, e, t)).max()
    if not gap < _CONVERSION_TOL:
        raise ModelError(
            f"quadratic-form conversion failed its self-check (gap {gap:.3e})"
        )
    return params
