import numpy as np
import pytest

from conftest import dplda_score, finite_difference, max_rel_err
from svpipe import dplda, metrics, netcore, recipe
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
        assert dplda_score(params, rng.standard_normal(3), rng.standard_normal(3)) == -1.5


def test_score_symmetry_exact():
    rng = np.random.default_rng(1)
    params = random_params(rng, 4)
    for _ in range(20):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        assert dplda_score(params, a, b) == dplda_score(params, b, a)


def test_score_hand_expansion_example():
    # lam=I, gamma=0, c=(1,0), k=-1, phi_i=(1,0), phi_j=(0,1):
    # cross terms are 0, gamma terms 0, linear (1,1).(1,0)=1, plus k=-1 -> 0
    params = dplda.DpldaParams(np.eye(2), np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0)
    assert dplda_score(params, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_score_pairs_matches_single():
    rng = np.random.default_rng(2)
    params = random_params(rng, 3)
    e = rng.standard_normal((10, 3))
    t = rng.standard_normal((10, 3))
    batch = dplda.score_pairs(params, e, t)
    for i in range(10):
        assert abs(batch[i] - dplda_score(params, e[i], t[i])) < 1e-12


@pytest.mark.parametrize("n_utts, dim", [(2, 3), (3, 1), (7, 20), (40, 3), (120, 20)])
def test_all_trials_match_the_pair_form(n_utts, dim):
    rng = np.random.default_rng(n_utts * dim)
    params = random_params(rng, dim)
    vectors = rng.standard_normal((n_utts, dim))
    speakers = rng.integers(0, max(2, n_utts // 3), n_utts)
    # a pair_batches batch can hold one utterance twice when a pass runs out mid-batch
    vectors[-1], speakers[-1] = vectors[0], speakers[0]
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    i, j = np.triu_indices(n_utts, 1)
    assert batch.n_trials == n_utts * (n_utts - 1) // 2
    assert np.array_equal(batch.is_target, speakers[i] == speakers[j])
    pair_scores = dplda.score_pairs(params, vectors[i], vectors[j])
    assert max_rel_err(batch.scores(params), pair_scores, floor=1e-8) < 1e-10


def test_bxe_zero_params_equal_prior_is_log2():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((8, 3))
    speakers = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    params = dplda.DpldaParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), 0.0)
    loss, _, _ = dplda.bxe_objective(params, batch, 0.5)
    assert abs(loss - np.log(2.0)) < 1e-12


def test_bxe_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    dim = 3
    params = random_params(rng, dim)
    vectors = rng.standard_normal((8, dim))
    speakers = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    loss, grads, d_vectors = dplda.bxe_objective(params, batch, 0.2)
    flat = dplda.pack_params(params)
    grad_flat = dplda.pack_params(grads)
    eps = 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (
            dplda.bxe_objective(dplda.unpack_params(up, dim), batch, 0.2)[0]
            - dplda.bxe_objective(dplda.unpack_params(dn, dim), batch, 0.2)[0]
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
                dplda.bxe_objective(params, batch_u, 0.2)[0]
                - dplda.bxe_objective(params, batch_d, 0.2)[0]
            ) / (2 * eps)
    assert max_rel_err(d_vectors, fd_vec, floor=1e-8) < 1e-4
    # full-batch training's pull of (lam, gamma, c) toward zero
    pulled = [p.copy() for p in params.parameters()[:3]]
    zeros = [np.zeros_like(p) for p in pulled]

    def pull_loss():
        return netcore.penalty_to_snapshot(pulled, zeros, 0.01)[0]

    _, pull_grads = netcore.penalty_to_snapshot(pulled, zeros, 0.01)
    for p, g in zip(pulled, pull_grads):
        assert max_rel_err(g, finite_difference(pull_loss, p, eps), floor=1e-8) < 1e-4


def test_target_prior_defaults():
    assert recipe.Config().get("dplda.p_target") == 0.0075
    assert recipe.Config(recipe.PAPER).get("dplda.p_target") == 0.0075


def test_bxe_single_class_batch_rejected():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((3, 2))
    batch = dplda.TrialBatch.all_trials(vectors, np.array([0, 0, 0]))
    params = random_params(rng, 2)
    with pytest.raises(ObjectiveError):
        dplda.bxe_objective(params, batch, 0.0075)


@pytest.mark.parametrize("p_target", [0.0, 1.0, float("nan")])
def test_bxe_rejects_a_prior_outside_the_open_unit_interval(p_target):
    rng = np.random.default_rng(10)
    batch = dplda.TrialBatch.all_trials(rng.standard_normal((4, 2)), np.array([0, 0, 1, 1]))
    with pytest.raises(InputError, match="target prior"):
        dplda.bxe_objective(random_params(rng, 2), batch, p_target)


def test_fullbatch_training_from_stationary_point():
    rng = np.random.default_rng(6)
    centers = rng.standard_normal((4, 3)) * 3
    vectors = np.vstack([centers[i // 4] + 0.1 * rng.standard_normal(3) for i in range(16)])
    speakers = np.repeat(np.arange(4), 4)
    init = dplda.DpldaParams(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), 0.0)
    trained, history = dplda.train_dplda_fullbatch(init, vectors, speakers, 0.2, 0.0, 200)
    assert history[-1] <= history[0]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    # re-running from the optimum barely moves
    again, history2 = dplda.train_dplda_fullbatch(trained, vectors, speakers, 0.2, 0.0, 200)
    assert history2[0] - history2[-1] < 1e-10


def test_fullbatch_training_separates_toy_problem():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((5, 2)) * 4
    vectors = np.vstack([centers[i // 4] + 0.05 * rng.standard_normal(2) for i in range(20)])
    speakers = np.repeat(np.arange(5), 4)
    init = dplda.DpldaParams(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
    trained, _ = dplda.train_dplda_fullbatch(init, vectors, speakers, 0.1, 0.0, 200)
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    trials = metrics.ScoredTrials(batch.scores(trained), batch.is_target)
    assert metrics.eer(trials) == 0.0


def test_fullbatch_contract_on_a_convex_problem():
    # with the pull the objective is strictly convex in (lam, gamma, c, k)
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((12, 3))
    speakers = np.repeat(np.arange(4), 3)
    p_target, l2 = 0.3, 1e-2
    init = random_params(rng, 3)
    init.k = 2.0  # a pull on k would add l2 * k^2 = 0.04 to the loss
    batch = dplda.TrialBatch.all_trials(vectors, speakers)
    zeros = [np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3)]

    def objective(params):
        """The bare cross-entropy plus the pull, and its packed gradient."""
        loss, grads, _ = dplda.bxe_objective(params, batch, p_target)
        penalty, pulls = netcore.penalty_to_snapshot(params.parameters()[:3], zeros, l2)
        total = [g + q for g, q in zip(grads.parameters(), pulls)]
        return loss + penalty, dplda.pack_params(dplda.DpldaParams(*total, grads.k))

    same, history = dplda.train_dplda_fullbatch(init, vectors, speakers, p_target, l2, 0)
    assert np.array_equal(dplda.pack_params(same), dplda.pack_params(init))
    bare = dplda.bxe_objective(init, batch, p_target)[0]
    squares = (init.lam**2).sum() + (init.gamma**2).sum() + (init.c**2).sum()
    assert history == [pytest.approx(bare + l2 * squares, rel=1e-12, abs=0.0)]

    for max_iters in (1, 3, 500):
        trained, history = dplda.train_dplda_fullbatch(
            init, vectors, speakers, p_target, l2, max_iters
        )
        assert len(history) <= max_iters + 1
        assert all(b <= a for a, b in zip(history, history[1:]))
        loss, grad = objective(trained)
        assert history[-1] == loss
    # the 500-iteration run ended on the gradient rule, not on max_iters
    assert np.linalg.norm(grad) <= dplda._GRAD_TOL


def test_pair_pool_group_sizes():
    rng = np.random.default_rng(8)
    groups = dplda.make_pair_pool({"a": [0], "b": [1, 2, 3, 4, 5], "c": [6, 7, 8, 9]}, rng)
    by_speaker = {}
    for group in groups:
        key = "a" if group[0] == 0 else ("b" if group[0] <= 5 else "c")
        by_speaker.setdefault(key, []).append(len(group))
    assert sorted(by_speaker["a"]) == [1]
    assert sorted(by_speaker["b"]) == [2, 3]
    assert sorted(by_speaker["c"]) == [2, 2]
    all_utts = np.concatenate(groups)
    assert sorted(all_utts.tolist()) == list(range(10))


def test_pool_pass_covers_each_utterance_once():
    rng = np.random.default_rng(9)
    utts = {s: list(range(6 * s, 6 * s + 6)) for s in range(5)}
    groups = dplda.make_pair_pool(utts, rng)
    assert sorted(np.concatenate(groups).tolist()) == list(range(30))
    assert len(groups) == 15
    # the batch stream's first pass is such a pass, one group per batch
    batches = dplda.pair_batches(np.repeat(np.arange(5), 6), 1, rng)
    drawn = np.concatenate([next(batches) for _ in range(15)])
    assert sorted(drawn.tolist()) == list(range(30))


def test_pool_without_replacement_and_refresh_order():
    rng = np.random.default_rng(10)
    batches = dplda.pair_batches(["a", "a", "b", "b", "c", "c"], 2, rng)
    first = next(batches)
    assert len(set(first.tolist())) == 4
    leftover = {0, 1, 2, 3, 4, 5} - set(first.tolist())
    second = next(batches)
    # the remaining group of the old pass comes first, then one group of a fresh pass
    assert set(second[:2].tolist()) == leftover
    assert second.shape == (4,)
    fresh = second[2:].tolist()
    assert fresh in ([0, 1], [1, 0], [2, 3], [3, 2], [4, 5], [5, 4])


def test_minibatch_trial_count_and_defaults():
    paper = recipe.Config(recipe.PAPER)
    assert paper.get("joint.pairs") == 5000
    assert paper.get("e2e.pairs") == 75
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((12, 3))
    speakers = np.repeat(np.arange(3), 4)
    idx = next(dplda.pair_batches(speakers, 3, rng))
    batch = dplda.TrialBatch.all_trials(vectors[idx], speakers[idx])
    u = batch.vectors.shape[0]
    assert u == 6
    assert batch.n_trials == u * (u - 1) // 2
    with pytest.raises(InputError):
        dplda.make_pair_pool({}, rng)
    # pair_batches checks its arguments when it is called, before any batch is drawn
    with pytest.raises(InputError, match="at least one group"):
        dplda.pair_batches(speakers, 0, rng)
    with pytest.raises(InputError, match="empty speaker map"):
        dplda.pair_batches([], 3, rng)
