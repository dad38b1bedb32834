import numpy as np
import pytest
from scipy.stats import multivariate_normal

from conftest import dplda_score
from svpipe import dplda, plda
from svpipe.errors import InputError, ShapeError

def random_model(rng, dim=5, between_scale=1.0):
    a = rng.standard_normal((dim, dim))
    b = between_scale * (a @ a.T / dim) + 0.05 * np.eye(dim)
    c = rng.standard_normal((dim, dim))
    w = c @ c.T / dim + 0.1 * np.eye(dim)
    return plda.TwoCovPlda(rng.standard_normal(dim), b, w)


def sample_from_model(rng, model, n_speakers, utts_per_speaker):
    if np.trace(model.between) == 0.0:
        b_chol = np.zeros_like(model.between)
    else:
        b_chol = np.linalg.cholesky(model.between)
    w_chol = np.linalg.cholesky(model.within)
    vectors = []
    labels = []
    for s in range(n_speakers):
        center = model.mu + b_chol @ rng.standard_normal(model.dim)
        for _ in range(utts_per_speaker):
            vectors.append(center + w_chol @ rng.standard_normal(model.dim))
            labels.append(s)
    return np.stack(vectors), np.array(labels)


def llr(model, e, t):
    """The LLR of one trial, through the one-row case of plda_llr_pairs."""
    return plda.plda_llr_pairs(model, e[None], t[None])[0]


def test_llr_zero_when_between_is_zero():
    rng = np.random.default_rng(0)
    dim = 4
    c = rng.standard_normal((dim, dim))
    w = c @ c.T / dim + 0.2 * np.eye(dim)
    model = plda.TwoCovPlda(rng.standard_normal(dim), np.zeros((dim, dim)), w)
    for _ in range(5):
        e, t = rng.standard_normal(dim), rng.standard_normal(dim)
        assert abs(llr(model, e, t)) < 1e-10


def test_llr_matches_density_evaluation_oracle():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    dim = model.dim
    tot = model.between + model.within
    joint_cov = np.block([[tot, model.between], [model.between, tot]])
    joint_mean = np.concatenate([model.mu, model.mu])
    for _ in range(10):
        e, t = rng.standard_normal(dim), rng.standard_normal(dim)
        same = multivariate_normal.logpdf(np.concatenate([e, t]), joint_mean, joint_cov)
        diff = multivariate_normal.logpdf(e, model.mu, tot) + multivariate_normal.logpdf(
            t, model.mu, tot
        )
        assert abs(llr(model, e, t) - (same - diff)) < 1e-8
    # the e = t = mu special case: quadratic terms vanish except the constant
    assert abs(
        llr(model, model.mu.copy(), model.mu.copy())
        - (
            multivariate_normal.logpdf(np.concatenate([model.mu] * 2), joint_mean, joint_cov)
            - 2 * multivariate_normal.logpdf(model.mu, model.mu, tot)
        )
    ) < 1e-8


def test_llr_swap_symmetry_exact():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    for _ in range(20):
        e, t = rng.standard_normal(model.dim), rng.standard_normal(model.dim)
        assert llr(model, e, t) == llr(model, t, e)


def test_llr_rejects_vectors_of_another_dimension():
    model = random_model(np.random.default_rng(2))
    wrong = np.zeros((3, model.dim + 1))
    with pytest.raises(ShapeError):
        plda.plda_llr_pairs(model, wrong, wrong)
    with pytest.raises(ShapeError):
        plda.plda_llr_pairs(model, np.zeros((3, model.dim)), np.zeros((2, model.dim)))


def test_train_collapses_between_on_pure_noise_speakers():
    rng = np.random.default_rng(3)
    dim = 4
    noise_model = plda.TwoCovPlda(
        np.zeros(dim), np.zeros((dim, dim)), np.eye(dim)
    )
    vectors, labels = sample_from_model(rng, noise_model, 150, 25)
    learned, _ = plda.train_plda(vectors, labels, n_iters=40)
    assert np.trace(learned.between) < 1e-2 * np.trace(learned.within)


def test_train_identifiability_errors():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 3))
    with pytest.raises(InputError):
        plda.train_plda(x, np.zeros(10, dtype=int), n_iters=2)
    with pytest.raises(InputError):
        plda.train_plda(x, np.arange(10), n_iters=2)


def test_training_loglik_matches_joint_gaussian_oracle():
    # the history values reported by train_plda are exact marginal
    # log-likelihoods: check iteration 0 against a direct joint-Gaussian
    # evaluation, covariance kron(ones, between) + kron(I, within)
    rng = np.random.default_rng(12)
    truth = random_model(rng, dim=3)
    vectors, labels = sample_from_model(rng, truth, 10, 3)
    _, history = plda.train_plda(vectors, labels, n_iters=1)

    # rebuild the init exactly as train_plda does
    classes = np.unique(labels)
    counts = np.array([(labels == c).sum() for c in classes])
    groups = [vectors[labels == c] for c in classes]
    group_means = np.stack([g.mean(axis=0) for g in groups])
    mu = vectors.mean(axis=0)
    within = sum(
        ((g - m).T @ (g - m) for g, m in zip(groups, group_means)),
        np.zeros((3, 3)),
    ) / vectors.shape[0]
    diff = group_means - mu
    between = (diff.T @ (diff * counts[:, None])) / vectors.shape[0]
    within += 1e-6 * (np.trace(within) / 3 + 1e-12) * np.eye(3)
    between += 1e-6 * (np.trace(between) / 3 + 1e-12) * np.eye(3)

    oracle = 0.0
    for g, count in zip(groups, counts):
        joint_cov = np.kron(np.ones((count, count)), between) + np.kron(
            np.eye(count), within
        )
        oracle += multivariate_normal.logpdf(g.ravel(), np.tile(mu, count), joint_cov)
    assert abs(history[0] - oracle) < 1e-8


def test_train_recovers_generating_covariances():
    rng = np.random.default_rng(5)
    truth = random_model(rng, dim=4)
    vectors, labels = sample_from_model(rng, truth, 200, 10)
    learned, history = plda.train_plda(vectors, labels, n_iters=25)
    assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))
    rel_b = np.linalg.norm(learned.between - truth.between) / np.linalg.norm(truth.between)
    rel_w = np.linalg.norm(learned.within - truth.within) / np.linalg.norm(truth.within)
    assert rel_b < 0.15
    assert rel_w < 0.15


def test_to_dplda_constant_when_centered():
    rng = np.random.default_rng(6)
    model = random_model(rng, dim=3)
    model = plda.TwoCovPlda(np.zeros(3), model.between, model.within)
    params = plda.to_dplda(model)
    zero = np.zeros(3)
    assert abs(dplda_score(params, zero, zero) - params.k) < 1e-12


def test_to_dplda_zero_between_gives_zero_params():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 3))
    w = c @ c.T / 3 + 0.2 * np.eye(3)
    model = plda.TwoCovPlda(rng.standard_normal(3), np.zeros((3, 3)), w)
    params = plda.to_dplda(model)
    assert np.abs(params.lam).max() < 1e-12
    assert np.abs(params.gamma).max() < 1e-12
    assert np.abs(params.c).max() < 1e-12
    assert abs(params.k) < 1e-12


def test_to_dplda_after_training_matches_llr_on_held_out_pairs():
    rng = np.random.default_rng(9)
    truth = random_model(rng, dim=4)
    vectors, labels = sample_from_model(rng, truth, 60, 6)
    learned, _ = plda.train_plda(vectors, labels, n_iters=10)
    params = plda.to_dplda(learned)
    held_e, _ = sample_from_model(rng, truth, 40, 1)
    held_t, _ = sample_from_model(rng, truth, 40, 1)
    gap = np.abs(
        dplda.score_pairs(params, held_e, held_t)
        - plda.plda_llr_pairs(learned, held_e, held_t)
    )
    assert gap.max() < 1e-8


def test_to_dplda_matches_llr_on_random_pairs():
    rng = np.random.default_rng(8)
    model = random_model(rng, dim=6)
    params = plda.to_dplda(model)
    assert np.abs(params.lam - params.lam.T).max() < 1e-12
    assert np.abs(params.gamma - params.gamma.T).max() < 1e-12
    e = model.mu + rng.standard_normal((500, 6))
    t = model.mu + rng.standard_normal((500, 6))
    gap = np.abs(dplda.score_pairs(params, e, t) - plda.plda_llr_pairs(model, e, t))
    assert gap.max() < 1e-8
