import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_close_to_max
from svpipe import gmm, recipe
from svpipe.errors import InputError, ShapeError


def test_single_component_recovers_global_moments():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((400, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
    model, _ = gmm.train_ubm(frames, 1, n_iters=3, floor_frac=1e-3, seed=0)
    assert np.allclose(model.weights, [1.0])
    assert np.allclose(model.means[0], frames.mean(axis=0), atol=1e-10)
    floor = 1e-3 * frames.var(axis=0)
    assert np.allclose(model.vars[0], np.maximum(frames.var(axis=0), floor), atol=1e-10)


def test_full_scale_component_default():
    assert recipe.Config(recipe.PAPER).get("ubm.components") == 2048


def test_two_cluster_recovery():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((500, 2)) * 0.3 + np.array([4.0, 0.0])
    b = rng.standard_normal((500, 2)) * 0.3 + np.array([-4.0, 0.0])
    model, _ = gmm.train_ubm(np.vstack([a, b]), 2, n_iters=10, floor_frac=1e-3, seed=3)
    truth = np.stack([a.mean(axis=0), b.mean(axis=0)])
    # match components to clusters by first coordinate
    order = np.argsort(model.means[:, 0])[::-1]
    assert np.abs(model.means[order] - truth).max() < 0.1


def test_em_loglik_monotone():
    rng = np.random.default_rng(2)
    frames = np.vstack(
        [rng.standard_normal((300, 3)) + c for c in ([0, 0, 0], [3, -1, 2], [-2, 2, 0])]
    )
    _, history = gmm.train_ubm(frames, 4, n_iters=8, floor_frac=1e-3, seed=1)
    assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))


def test_responsibilities_single_component_and_dominance():
    model = gmm.DiagGmm(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    resp = gmm.responsibilities(model, np.random.default_rng(3).standard_normal((5, 2)))
    assert np.array_equal(resp, np.ones((5, 1)))

    far = gmm.DiagGmm(
        np.array([0.5, 0.5]),
        np.array([[0.0, 0.0], [50.0, 50.0]]),
        np.ones((2, 2)),
    )
    resp = gmm.responsibilities(far, np.zeros((1, 2)))
    assert resp[0, 0] > 0.99


def test_responsibilities_match_density_ratio_oracle():
    rng = np.random.default_rng(4)
    model = gmm.DiagGmm(
        np.array([0.2, 0.5, 0.3]),
        rng.standard_normal((3, 2)),
        np.abs(rng.standard_normal((3, 2))) + 0.5,
    )
    frames = rng.standard_normal((5, 2))
    resp = gmm.responsibilities(model, frames)
    # oracle: unnormalized densities computed directly
    for t in range(5):
        dens = np.zeros(3)
        for c in range(3):
            diff = frames[t] - model.means[c]
            quad = (diff**2 / model.vars[c]).sum()
            norm = np.prod(2 * np.pi * model.vars[c]) ** -0.5
            dens[c] = model.weights[c] * norm * np.exp(-0.5 * quad)
        assert np.allclose(resp[t], dens / dens.sum(), rtol=1e-10)


def test_responsibility_rows_are_distributions():
    rng = np.random.default_rng(5)
    model, _ = gmm.train_ubm(
        rng.standard_normal((200, 3)), 4, n_iters=2, floor_frac=1e-3, seed=0
    )
    resp = gmm.responsibilities(model, rng.standard_normal((50, 3)))
    assert resp.min() >= 0.0
    assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-12


def test_sufficient_stats_one_hot_and_conservation():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((6, 2))
    resp = np.zeros((6, 3))
    assign = [0, 1, 2, 0, 1, 0]
    for t, c in enumerate(assign):
        resp[t, c] = 1.0
    n, f = gmm.sufficient_stats(resp, frames)
    assert np.array_equal(n, np.array([3.0, 2.0, 1.0]))
    for c in range(3):
        rows = [t for t, a in enumerate(assign) if a == c]
        assert np.allclose(f[c], frames[rows].sum(axis=0), atol=1e-15)
    # sum_c f_c = sum_t x_t for any distribution rows
    soft = rng.random((6, 3))
    soft /= soft.sum(axis=1, keepdims=True)
    _, f = gmm.sufficient_stats(soft, frames)
    assert np.allclose(f.sum(axis=0), frames.sum(axis=0), atol=1e-12)


def test_sufficient_stats_matches_loop_oracle():
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((20, 4))
    resp = rng.random((20, 5))
    stats_n, stats_f = gmm.sufficient_stats(resp, frames)
    n = np.zeros(5)
    f = np.zeros((5, 4))
    for t in range(20):
        for c in range(5):
            n[c] += resp[t, c]
            f[c] += resp[t, c] * frames[t]
    assert np.allclose(stats_n, n, atol=1e-12)
    assert np.allclose(stats_f, f, atol=1e-12)


def test_errors():
    with pytest.raises(InputError):
        gmm.train_ubm(np.zeros((3, 2)), 5, n_iters=1, floor_frac=1e-3, seed=0)
    with pytest.raises(InputError):
        gmm.sufficient_stats(np.array([[-0.1, 1.1]]), np.zeros((1, 2)))
    with pytest.raises(InputError):
        gmm.sufficient_stats(np.ones((3, 2)), np.zeros((2, 2)))
    model = gmm.DiagGmm(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(ShapeError):
        gmm.responsibilities(model, np.zeros((2, 2)))


@pytest.mark.parametrize("field", ["weights", "means", "vars"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_are_rejected(field, bad):
    # NaN passes both the simplex test and the vars <= 0 test
    params = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 3)), "vars": np.ones((2, 3))}
    params[field][-1] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        gmm.DiagGmm(**params)


def _reference_log_densities(g, frames):
    """The out-of-place expression log_densities is bit-identical to."""
    inv_var = 1.0 / g.vars
    const = (
        np.log(g.weights)
        - 0.5 * (g.dim * np.log(2.0 * np.pi) + np.log(g.vars).sum(axis=1))
        - 0.5 * (g.means**2 * inv_var).sum(axis=1)
    )
    return const + frames @ (g.means * inv_var).T - 0.5 * (frames**2) @ inv_var.T


def _reference_logsumexp_rows(x):
    m = x.max(axis=1)
    return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


@pytest.mark.parametrize("n_frames, dim, n_components", [(1, 1, 1), (37, 3, 5), (400, 20, 32)])
def test_in_place_e_step_is_bit_identical(n_frames, dim, n_components):
    rng = np.random.default_rng(n_frames + dim + n_components)
    weights = rng.random(n_components) + 0.05
    model = gmm.DiagGmm(
        weights / weights.sum(),
        2.0 * rng.standard_normal((n_components, dim)),
        rng.random((n_components, dim)) + 0.1,
    )
    frames = 3.0 * rng.standard_normal((2 * n_frames, dim))[::2]  # a strided view too
    log_dens = _reference_log_densities(model, frames)
    log_norm = _reference_logsumexp_rows(log_dens)
    resp = np.exp(log_dens - log_norm[:, None])
    resp = resp / resp.sum(axis=1, keepdims=True)
    assert np.array_equal(gmm.log_densities(model, frames), log_dens)
    assert np.array_equal(gmm.responsibilities(model, frames), resp)


def test_em_over_many_blocks_matches_one_block(monkeypatch):
    rng = np.random.default_rng(8)
    frames = np.vstack(
        [rng.standard_normal((1000, 3)) + c for c in ([0, 0, 0], [3, -1, 2], [-2, 2, 0])]
    )
    runs = []
    # 64-row blocks (47 of them, the last one short), then the whole matrix as one block
    for entries in (64 * 4, frames.shape[0] * 4):
        monkeypatch.setattr(gmm, "_E_STEP_ENTRIES", entries)
        runs.append(gmm.train_ubm(frames, 4, n_iters=6, floor_frac=1e-3, seed=1))
    (blocked, blocked_ll), (whole, whole_ll) = runs
    assert_close_to_max(blocked.weights, whole.weights)
    assert_close_to_max(blocked.means, whole.means)
    assert_close_to_max(blocked.vars, whole.vars)
    assert_close_to_max(blocked_ll, whole_ll)


def test_e_step_holds_one_block_of_posteriors():
    frames = np.random.default_rng(9).standard_normal((200_000, 20))
    tracemalloc.start()
    try:
        gmm.train_ubm(frames, 64, n_iters=1, floor_frac=1e-3, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # past its input, train_ubm holds one 512 x 64 block of posteriors
    # (256 KB) and a few temporaries of that size, the initial variance
    # included (measured: 0.89 MB; 32.07 MB when frames.var made an
    # input-sized temporary)
    assert peak < 8 * 8 * gmm._E_STEP_ENTRIES


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_blocked_variance_is_numpys_bit_for_bit(data):
    rows = data.draw(st.integers(1, 70), label="rows")
    # one frame, fewer than one block, and one past a whole number of blocks
    past_blocks = rows * data.draw(st.integers(1, 4)) + 1
    n_frames = data.draw(st.sampled_from([1, max(1, rows - 1), past_blocks]), label="n_frames")
    dim = data.draw(st.integers(1, 5), label="dim")
    frames = data.draw(
        arrays(np.float64, (n_frames, dim), elements=st.floats(-1e6, 1e6)), label="frames"
    )
    assert gmm._column_var(frames, rows).tobytes() == frames.var(axis=0).tobytes()


def test_initial_variances_are_numpys_bit_for_bit():
    # desk-sized frames, one past 96 blocks of 1,024 rows (C = 32)
    frames = 3.0 * np.random.default_rng(10).standard_normal((96 * 1024 + 1, 20)) + 1.5
    floor = np.maximum(1e-3 * frames.var(axis=0), 1e-12)
    model, _ = gmm.train_ubm(frames, 32, n_iters=0, floor_frac=1e-3, seed=0)
    want = np.tile(np.maximum(frames.var(axis=0), floor), (32, 1))
    assert model.vars.tobytes() == want.tobytes()
