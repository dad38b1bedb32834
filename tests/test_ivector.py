import numpy as np
import pytest
from scipy.linalg import subspace_angles

from svpipe import gmm, ivector, recipe
from svpipe.errors import InputError

RNG = np.random.default_rng(0)


def random_ubm(rng, n_components=3, dim=2):
    return gmm.DiagGmm(
        np.full(n_components, 1.0 / n_components),
        rng.standard_normal((n_components, dim)),
        np.abs(rng.standard_normal((n_components, dim))) + 0.5,
    )


def test_full_scale_dimension_defaults():
    paper = recipe.Config(recipe.PAPER)
    assert paper.get("tv.dim") == 600
    assert paper.get("prep.dim") == 250


def test_zero_stats_give_prior_mean():
    rng = np.random.default_rng(1)
    ubm = random_ubm(rng)
    tv = ivector.TvModel(rng.standard_normal((6, 2)), 3, 2)
    stats = gmm.SuffStats(np.zeros(3), np.zeros((3, 2)), 0)
    assert np.array_equal(ivector.extract_ivector(tv, ubm, stats), np.zeros(2))


def test_scalar_case_closed_form():
    rng = np.random.default_rng(2)
    ubm = random_ubm(rng, n_components=2, dim=1)
    t = rng.standard_normal((2, 1))
    tv = ivector.TvModel(t, 2, 1)
    stats = gmm.SuffStats(np.array([3.0, 1.5]), rng.standard_normal((2, 1)), 5)
    f_cent = stats.f - stats.n[:, None] * ubm.means
    numer = float((t[:, 0] / ubm.vars[:, 0] * f_cent[:, 0]).sum())
    denom = 1.0 + float((stats.n * t[:, 0] ** 2 / ubm.vars[:, 0]).sum())
    assert np.allclose(ivector.extract_ivector(tv, ubm, stats), [numer / denom], atol=1e-12)


def test_extraction_matches_explicit_solve_oracle():
    rng = np.random.default_rng(3)
    ubm = random_ubm(rng, n_components=3, dim=2)
    tv = ivector.TvModel(rng.standard_normal((6, 2)), 3, 2)
    stats = gmm.SuffStats(np.abs(rng.standard_normal(3)) * 4, rng.standard_normal((3, 2)), 12)
    # oracle: build the precision with loops and invert with a different routine
    t_bycomp = tv.t.reshape(3, 2, 2)
    precision = np.eye(2)
    proj = np.zeros(2)
    for c in range(3):
        sigma_inv = np.diag(1.0 / ubm.vars[c])
        precision = precision + stats.n[c] * t_bycomp[c].T @ sigma_inv @ t_bycomp[c]
        f_cent = stats.f[c] - stats.n[c] * ubm.means[c]
        proj = proj + t_bycomp[c].T @ sigma_inv @ f_cent
    expect = np.linalg.inv(precision) @ proj
    assert np.allclose(ivector.extract_ivector(tv, ubm, stats), expect, rtol=1e-10)


def test_extraction_linear_in_centered_stats():
    rng = np.random.default_rng(4)
    ubm = random_ubm(rng, n_components=4, dim=3)
    tv = ivector.TvModel(rng.standard_normal((12, 3)), 4, 3)
    n = np.abs(rng.standard_normal(4)) * 3
    f_a = rng.standard_normal((4, 3)) + n[:, None] * ubm.means
    f_b = rng.standard_normal((4, 3)) + n[:, None] * ubm.means
    base = n[:, None] * ubm.means
    w_a = ivector.extract_ivector(tv, ubm, gmm.SuffStats(n, f_a, 9))
    w_b = ivector.extract_ivector(tv, ubm, gmm.SuffStats(n, f_b, 9))
    combo = gmm.SuffStats(n, base + 0.3 * (f_a - base) + 0.7 * (f_b - base), 9)
    w_c = ivector.extract_ivector(tv, ubm, combo)
    assert np.abs(w_c - (0.3 * w_a + 0.7 * w_b)).max() < 1e-10


def synth_stats_from_model(rng, t_true, ubm, n_utts, frames_per_utt=200):
    c, d = ubm.n_components, ubm.dim
    r = t_true.shape[1]
    stats = []
    for _ in range(n_utts):
        w = rng.standard_normal(r)
        shifted_means = ubm.means + (t_true @ w).reshape(c, d)
        n = np.full(c, frames_per_utt / c)
        noise = rng.standard_normal((c, d)) * np.sqrt(ubm.vars * n[:, None])
        f = n[:, None] * shifted_means + noise
        stats.append(gmm.SuffStats(n, f, frames_per_utt))
    return stats


def test_tv_em_monotone_and_subspace_recovery():
    rng = np.random.default_rng(5)
    ubm = gmm.DiagGmm(
        np.full(4, 0.25), rng.standard_normal((4, 2)), np.full((4, 2), 0.3)
    )
    t_true = rng.standard_normal((8, 2))
    stats = synth_stats_from_model(rng, t_true, ubm, n_utts=150)
    model, history = ivector.train_tv(stats, ubm, 2, n_iters=10, seed=0)
    assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))
    angles = subspace_angles(model.t, t_true)
    assert np.degrees(angles).max() < 10.0


def test_zero_count_stats_do_not_move_the_model():
    rng = np.random.default_rng(6)
    ubm = random_ubm(rng, n_components=3, dim=2)
    t_true = rng.standard_normal((6, 2))
    stats = synth_stats_from_model(rng, t_true, ubm, n_utts=40)
    with_zero = stats + [gmm.SuffStats(np.zeros(3), np.zeros((3, 2)), 0)]
    a, _ = ivector.train_tv(stats, ubm, 2, n_iters=3, seed=1)
    b, _ = ivector.train_tv(with_zero, ubm, 2, n_iters=3, seed=1)
    assert np.allclose(a.t, b.t, atol=1e-10)


def test_fit_prep_two_class_direction():
    rng = np.random.default_rng(7)
    mean_gap = np.array([2.0, 0.5, -1.0, 0.0])
    x = np.vstack([
        rng.standard_normal((40, 4)) * 0.3 + mean_gap,
        rng.standard_normal((40, 4)) * 0.3 - mean_gap,
    ])
    labels = np.array([0] * 40 + [1] * 40)
    prep = ivector.fit_prep(x, labels, 1)
    # oracle: whitened class-mean difference on the normalized vectors
    xn = ivector.lengthnorm(x - x.mean(axis=0))
    m0, m1 = xn[:40].mean(axis=0), xn[40:].mean(axis=0)
    s_w = np.zeros((4, 4))
    for group, m in ((xn[:40], m0), (xn[40:], m1)):
        diff = group - m
        s_w += diff.T @ diff
    s_w /= 80
    s_w += 1e-6 * np.trace(s_w) / 4 * np.eye(4)
    direction = np.linalg.solve(s_w, m0 - m1)
    cos = abs(prep.lda[:, 0] @ direction) / (
        np.linalg.norm(prep.lda[:, 0]) * np.linalg.norm(direction)
    )
    assert cos > 0.999


def test_fit_prep_beats_random_projections():
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((8, 6)) * 3.0
    x = np.vstack([rng.standard_normal((20, 6)) * 0.4 + c for c in centers])
    labels = np.repeat(np.arange(8), 20)
    prep = ivector.fit_prep(x, labels, 3)
    xn = ivector.lengthnorm(x - x.mean(axis=0))

    def scatter_ratio(proj):
        y = xn @ proj
        overall = y.mean(axis=0)
        s_w = 0.0
        s_b = 0.0
        for c in range(8):
            group = y[labels == c]
            m = group.mean(axis=0)
            s_w += ((group - m) ** 2).sum()
            s_b += group.shape[0] * ((m - overall) ** 2).sum()
        return s_w / s_b

    lda_ratio = scatter_ratio(prep.lda)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        assert lda_ratio < scatter_ratio(q)


def test_fit_prep_needs_enough_speakers():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 5))
    labels = np.repeat(np.arange(3), 10)
    with pytest.raises(InputError):
        ivector.fit_prep(x, labels, 3)


def test_prep_apply_degenerate_norm_and_oracle():
    rng = np.random.default_rng(10)
    prep = ivector.IvecPrep(rng.standard_normal(5), rng.standard_normal((5, 3)))
    assert np.array_equal(ivector.prep_apply(prep, prep.mean.copy()), np.zeros(3))
    w = rng.standard_normal(5)
    out = ivector.prep_apply(prep, w)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # step-by-step scalar recomputation
    centered = w - prep.mean
    centered = centered / np.linalg.norm(centered)
    projected = prep.lda.T @ centered
    expect = projected / np.linalg.norm(projected)
    assert np.allclose(out, expect, atol=1e-12)
    # matrix input
    batch = rng.standard_normal((4, 5))
    outs = ivector.prep_apply(prep, batch)
    assert outs.shape == (4, 3)
    assert np.allclose(outs[0], ivector.prep_apply(prep, batch[0]), atol=1e-15)


def test_train_tv_rejects_empty():
    rng = np.random.default_rng(11)
    ubm = random_ubm(rng)
    with pytest.raises(InputError):
        ivector.train_tv([], ubm, 2)
