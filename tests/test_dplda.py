import numpy as np
import pytest

from conftest import max_rel_err
from svpipe import dplda, metrics, recipe
from svpipe.errors import InputError, ObjectiveError


def random_params(rng, dim):
    return dplda.DpldaParams(
        rng.standard_normal((dim, dim)),
        rng.standard_normal((dim, dim)),
        rng.standard_normal(dim),
        float(rng.standard_normal()),
    )


def test_score_constant_when_parameters_zero():
    params = dplda.DpldaParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), -1.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert dplda.dplda_score(params, rng.standard_normal(3), rng.standard_normal(3)) == -1.5


def test_score_symmetry_exact():
    rng = np.random.default_rng(1)
    params = random_params(rng, 4)
    for _ in range(20):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert dplda.dplda_score(params, a, b) == dplda.dplda_score(params, b, a)


def test_score_hand_expansion_example():
    # lam=I, gamma=0, c=(1,0), k=-1, phi_i=(1,0), phi_j=(0,1):
    # cross terms are 0, gamma terms 0, linear (1,1).(1,0)=1, plus k=-1 -> 0
    params = dplda.DpldaParams(np.eye(2), np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0)
    assert dplda.dplda_score(params, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_score_pairs_matches_single():
    rng = np.random.default_rng(2)
    params = random_params(rng, 3)
    e = rng.standard_normal((10, 3))
    t = rng.standard_normal((10, 3))
    batch = dplda.score_pairs(params, e, t)
    for i in range(10):
        assert abs(batch[i] - dplda.dplda_score(params, e[i], t[i])) < 1e-12


def test_bxe_zero_params_equal_prior_is_log2():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((8, 3))
    speakers = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    params = dplda.DpldaParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), 0.0)
    loss, _, _ = dplda.bxe_objective(params, batch, dplda.ObjectiveConfig(p_target=0.5))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_bxe_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    dim = 3
    params = random_params(rng, dim)
    vectors = rng.standard_normal((8, dim))
    speakers = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    cfg = dplda.ObjectiveConfig(p_target=0.2, l2_weight=0.01)
    loss, grads, d_vectors = dplda.bxe_objective(params, batch, cfg)
    flat = dplda.pack_params(params)
    grad_flat = dplda.pack_params(grads)
    eps = 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (
            dplda.bxe_objective(dplda.unpack_params(up, dim), batch, cfg)[0]
            - dplda.bxe_objective(dplda.unpack_params(dn, dim), batch, cfg)[0]
        ) / (2 * eps)
    assert max_rel_err(grad_flat, fd, floor=1e-8) < 1e-4
    # k gradient meets the tighter stated tolerance
    assert max_rel_err(grad_flat[-1], fd[-1], floor=1e-8) < 1e-6
    # embedding gradients
    fd_vec = np.zeros_like(vectors)
    for u in range(vectors.shape[0]):
        for j in range(dim):
            up, dn = vectors.copy(), vectors.copy()
            up[u, j] += eps
            dn[u, j] -= eps
            batch_u = dplda.TrialBatch.all_trials(up, speakers)
            batch_d = dplda.TrialBatch.all_trials(dn, speakers)
            fd_vec[u, j] = (
                dplda.bxe_objective(params, batch_u, cfg)[0]
                - dplda.bxe_objective(params, batch_d, cfg)[0]
            ) / (2 * eps)
    assert max_rel_err(d_vectors, fd_vec, floor=1e-8) < 1e-4


def test_target_prior_defaults():
    assert dplda.DEFAULT_TARGET_PRIOR == 0.0075
    assert dplda.ObjectiveConfig().p_target == 0.0075
    assert recipe.Config(recipe.PAPER).get("dplda.p_target") == 0.0075


def test_bxe_single_class_batch_rejected():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((3, 2))
    batch = dplda.TrialBatch.all_trials(vectors, np.array([0, 0, 0]))
    params = random_params(rng, 2)
    with pytest.raises(ObjectiveError):
        dplda.bxe_objective(params, batch, dplda.ObjectiveConfig())


def test_fullbatch_training_from_stationary_point():
    rng = np.random.default_rng(6)
    centers = rng.standard_normal((4, 3)) * 3
    vectors = np.vstack([centers[i // 4] + 0.1 * rng.standard_normal(3) for i in range(16)])
    speakers = np.repeat(np.arange(4), 4)
    cfg = dplda.ObjectiveConfig(p_target=0.2)
    init = dplda.DpldaParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), 0.0)
    trained, history = dplda.train_dplda_fullbatch(init, vectors, speakers, cfg)
    assert history[-1] <= history[0]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    # re-running from the optimum barely moves
    again, history2 = dplda.train_dplda_fullbatch(trained, vectors, speakers, cfg)
    assert history2[0] - history2[-1] < 1e-10


def test_fullbatch_training_separates_toy_problem():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((5, 2)) * 4
    vectors = np.vstack([centers[i // 4] + 0.05 * rng.standard_normal(2) for i in range(20)])
    speakers = np.repeat(np.arange(5), 4)
    init = dplda.DpldaParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
    trained, _ = dplda.train_dplda_fullbatch(
        init, vectors, speakers, dplda.ObjectiveConfig(p_target=0.1)
    )
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    trials = metrics.ScoredTrials(batch.scores(trained), batch.is_target)
    assert metrics.eer(trials) == 0.0


def test_pair_pool_group_sizes():
    rng = np.random.default_rng(8)
    pool = dplda.make_pair_pool({"a": [0], "b": [1, 2, 3, 4, 5], "c": [6, 7, 8, 9]}, rng)
    by_speaker = {}
    for group in pool.groups:
        key = "a" if group[0] == 0 else ("b" if group[0] <= 5 else "c")
        by_speaker.setdefault(key, []).append(len(group))
    assert sorted(by_speaker["a"]) == [1]
    assert sorted(by_speaker["b"]) == [2, 3]
    assert sorted(by_speaker["c"]) == [2, 2]
    all_utts = np.concatenate(pool.groups)
    assert sorted(all_utts.tolist()) == list(range(10))


def test_pool_pass_covers_each_utterance_once():
    rng = np.random.default_rng(9)
    utts = {s: list(range(6 * s, 6 * s + 6)) for s in range(5)}
    pool = dplda.make_pair_pool(utts, rng)
    n_groups = pool.n_remaining
    drawn = []
    while pool.n_remaining:
        drawn.extend(dplda.draw_groups(pool, 1, rng).tolist())
    assert sorted(drawn) == list(range(30))
    assert n_groups == 15


def test_pool_without_replacement_and_refresh_order():
    rng = np.random.default_rng(10)
    pool = dplda.make_pair_pool({"a": [0, 1], "b": [2, 3], "c": [4, 5]}, rng)
    first = dplda.draw_groups(pool, 2, rng)
    assert pool.n_remaining == 1
    leftover = set(pool.groups[0].tolist())
    second = dplda.draw_groups(pool, 2, rng)
    # the remaining group of the old pass comes first, then one regenerated group
    assert set(second[:2].tolist()) == leftover
    assert set(first.tolist()) | leftover == {0, 1, 2, 3, 4, 5}


def test_minibatch_trial_count_and_defaults():
    paper = recipe.Config(recipe.PAPER)
    assert paper.get("joint.pairs") == 5000
    assert paper.get("e2e.pairs") == 75
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((12, 3))
    speakers = np.repeat(np.arange(3), 4)
    pool = dplda.make_pair_pool(
        {s: np.flatnonzero(speakers == s) for s in range(3)}, rng
    )
    idx = dplda.draw_groups(pool, 3, rng)
    batch = dplda.TrialBatch.all_trials(vectors[idx], speakers[idx])
    u = batch.vectors.shape[0]
    assert u == 6
    assert batch.n_trials == u * (u - 1) // 2
    with pytest.raises(InputError):
        dplda.make_pair_pool({}, rng)
    with pytest.raises(InputError):
        dplda.draw_groups(pool, 0, rng)
