import numpy as np
import pytest
from scipy.linalg import subspace_angles

from conftest import assert_close_to_max
from svpipe import gmm, ivector, recipe
from svpipe.errors import InputError, ShapeError
from svpipe.fileio import from_tensors, read_container, to_tensors, write_container

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
    n, f = np.zeros((1, 3)), np.zeros((1, 3, 2))
    assert np.array_equal(ivector.extract_ivectors(tv, ubm, n, f), np.zeros((1, 2)))


def test_scalar_case_closed_form():
    rng = np.random.default_rng(2)
    ubm = random_ubm(rng, n_components=2, dim=1)
    t = rng.standard_normal((2, 1))
    tv = ivector.TvModel(t, 2, 1)
    n, f = np.array([3.0, 1.5]), rng.standard_normal((2, 1))
    f_cent = f - n[:, None] * ubm.means
    numer = float((t[:, 0] / ubm.vars[:, 0] * f_cent[:, 0]).sum())
    denom = 1.0 + float((n * t[:, 0] ** 2 / ubm.vars[:, 0]).sum())
    w = ivector.extract_ivectors(tv, ubm, n[None], f[None])
    assert np.allclose(w, [[numer / denom]], atol=1e-12)


def explicit_solve(tv, ubm, n, f):
    """Oracle: the precision built with loops and inverted with a different routine."""
    c, d, r = tv.n_components, tv.dim, tv.ivec_dim
    t_bycomp = tv.t.reshape(c, d, r)
    precision = np.eye(r)
    proj = np.zeros(r)
    for k in range(c):
        sigma_inv = np.diag(1.0 / ubm.vars[k])
        precision = precision + n[k] * t_bycomp[k].T @ sigma_inv @ t_bycomp[k]
        f_cent = f[k] - n[k] * ubm.means[k]
        proj = proj + t_bycomp[k].T @ sigma_inv @ f_cent
    return np.linalg.inv(precision) @ proj


def random_stats(rng, n_utts, n_components, dim):
    """Stacked statistics whose rows have different counts, zero counts included."""
    pairs = []
    for i in range(n_utts):
        n = np.abs(rng.standard_normal(n_components)) * 4 * (i + 1)
        n[i % n_components] = 0.0
        pairs.append((n, rng.standard_normal((n_components, dim)) * (i + 1)))
    return tuple(map(np.stack, zip(*pairs)))


def test_extraction_matches_explicit_solve_oracle():
    rng = np.random.default_rng(3)
    ubm = random_ubm(rng, n_components=3, dim=2)
    tv = ivector.TvModel(rng.standard_normal((6, 2)), 3, 2)
    n, f = np.abs(rng.standard_normal(3)) * 4, rng.standard_normal((3, 2))
    expect = explicit_solve(tv, ubm, n, f)
    assert np.allclose(ivector.extract_ivectors(tv, ubm, n[None], f[None])[0], expect, rtol=1e-10)


def test_batch_extraction_matches_explicit_solve_oracle():
    rng = np.random.default_rng(12)
    ubm = random_ubm(rng, n_components=4, dim=3)
    tv = ivector.TvModel(rng.standard_normal((12, 5)), 4, 3)
    n, f = random_stats(rng, 7, 4, 3)
    w = ivector.extract_ivectors(tv, ubm, n, f)
    assert w.shape == (7, 5)
    for row, n_u, f_u in zip(w, n, f):
        assert np.allclose(row, explicit_solve(tv, ubm, n_u, f_u), rtol=1e-10)


def test_batch_rows_match_single_utterance_extraction():
    rng = np.random.default_rng(13)
    ubm = random_ubm(rng, n_components=4, dim=3)
    tv = ivector.TvModel(rng.standard_normal((12, 5)), 4, 3)
    n, f = random_stats(rng, 6, 4, 3)
    w = ivector.extract_ivectors(tv, ubm, n, f)
    for i, row in enumerate(w):
        single = ivector.extract_ivectors(tv, ubm, n[i : i + 1], f[i : i + 1])
        assert np.abs(row - single[0]).max() < 1e-12


def test_extraction_linear_in_centered_stats():
    rng = np.random.default_rng(4)
    ubm = random_ubm(rng, n_components=4, dim=3)
    tv = ivector.TvModel(rng.standard_normal((12, 3)), 4, 3)
    n = np.abs(rng.standard_normal(4)) * 3
    f_a = rng.standard_normal((4, 3)) + n[:, None] * ubm.means
    f_b = rng.standard_normal((4, 3)) + n[:, None] * ubm.means
    base = n[:, None] * ubm.means
    combo = base + 0.3 * (f_a - base) + 0.7 * (f_b - base)
    w_a, w_b, w_c = ivector.extract_ivectors(
        tv, ubm, np.stack([n] * 3), np.stack([f_a, f_b, combo])
    )
    assert np.abs(w_c - (0.3 * w_a + 0.7 * w_b)).max() < 1e-10


_NAN_COUNT = np.ones((4, 3))
_NAN_COUNT[2, 1] = np.nan
_INF_SUM = np.zeros((4, 3, 2))
_INF_SUM[3, 1, 0] = np.inf


@pytest.mark.parametrize(
    "bad, error",
    [
        ((np.ones((4, 2)), np.zeros((4, 2, 2))), ShapeError),  # 2 components, UBM has 3
        ((np.ones((4, 3)), np.zeros((4, 3, 3))), ShapeError),  # dimension 3, UBM has 2
        ((_NAN_COUNT, np.zeros((4, 3, 2))), InputError),
        ((np.ones((4, 3)), _INF_SUM), InputError),
        ((np.ones((3, 3)), np.zeros((4, 3, 2))), ShapeError),  # counts and sums disagree on rows
        ((np.ones(3), np.zeros((3, 2))), ShapeError),  # one utterance, not stacked
    ],
)
def test_bad_stats_raise_from_training_and_extraction(bad, error):
    rng = np.random.default_rng(14)
    ubm = random_ubm(rng)
    tv = ivector.TvModel(rng.standard_normal((6, 2)), 3, 2)
    with pytest.raises(error):
        ivector.train_tv(*bad, ubm, 2, n_iters=2, seed=0)
    with pytest.raises(error):
        ivector.extract_ivectors(tv, ubm, *bad)


def synth_stats_from_model(rng, t_true, ubm, n_utts, frames_per_utt=200):
    c, d = ubm.n_components, ubm.dim
    r = t_true.shape[1]
    pairs = []
    for _ in range(n_utts):
        w = rng.standard_normal(r)
        shifted_means = ubm.means + (t_true @ w).reshape(c, d)
        n = np.full(c, frames_per_utt / c)
        noise = rng.standard_normal((c, d)) * np.sqrt(ubm.vars * n[:, None])
        f = n[:, None] * shifted_means + noise
        pairs.append((n, f))
    return tuple(map(np.stack, zip(*pairs)))


def test_tv_em_monotone_and_subspace_recovery():
    rng = np.random.default_rng(5)
    ubm = gmm.DiagGmm(
        np.full(4, 0.25), rng.standard_normal((4, 2)), np.full((4, 2), 0.3)
    )
    t_true = rng.standard_normal((8, 2))
    n, f = synth_stats_from_model(rng, t_true, ubm, n_utts=150)
    model, history = ivector.train_tv(n, f, ubm, 2, n_iters=10, seed=0)
    assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))
    angles = subspace_angles(model.t, t_true)
    assert np.degrees(angles).max() < 10.0


def test_zero_count_stats_do_not_move_the_model():
    rng = np.random.default_rng(6)
    ubm = random_ubm(rng, n_components=3, dim=2)
    t_true = rng.standard_normal((6, 2))
    n, f = synth_stats_from_model(rng, t_true, ubm, n_utts=40)
    n_zero = np.concatenate([n, np.zeros((1, 3))])
    f_zero = np.concatenate([f, np.zeros((1, 3, 2))])
    a, _ = ivector.train_tv(n, f, ubm, 2, n_iters=3, seed=1)
    b, _ = ivector.train_tv(n_zero, f_zero, ubm, 2, n_iters=3, seed=1)
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


def test_fit_prep_out_dim_above_the_vector_dimension():
    # enough speakers, but LDA cannot produce more directions than the vectors have
    rng = np.random.default_rng(9)
    x = rng.standard_normal((200, 5))
    labels = np.repeat(np.arange(20), 10)
    with pytest.raises(InputError, match="LDA to 6 dims exceeds the i-vector dimension 5"):
        ivector.fit_prep(x, labels, 6)
    assert ivector.fit_prep(x, labels, 5).lda.shape == (5, 5)


def test_prep_apply_degenerate_norm_and_oracle():
    rng = np.random.default_rng(10)
    prep = ivector.IvecPrep(rng.standard_normal(5), rng.standard_normal((5, 3)))
    assert np.array_equal(ivector.prep_apply(prep, prep.mean[None]), np.zeros((1, 3)))
    w = rng.standard_normal(5)
    out = ivector.prep_apply(prep, w[None])[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # step-by-step scalar recomputation
    centered = w - prep.mean
    centered = centered / np.linalg.norm(centered)
    projected = prep.lda.T @ centered
    expect = projected / np.linalg.norm(projected)
    assert np.allclose(out, expect, atol=1e-12)
    # matrix input
    outs = ivector.prep_apply(prep, rng.standard_normal((4, 5)))
    assert outs.shape == (4, 3)
    assert np.allclose(np.linalg.norm(outs, axis=1), 1.0, atol=1e-12)


def test_reloaded_prep_applies_bit_identically(tmp_path):
    # the desk-default shapes: 40-dim i-vectors of 25 speakers, LDA to 20
    rng = np.random.default_rng(15)
    centers = rng.standard_normal((25, 40)) * 3.0
    x = np.vstack([rng.standard_normal((20, 40)) * 0.4 + c for c in centers])
    prep = ivector.fit_prep(x, np.repeat(np.arange(25), 20), 20)
    write_container(tmp_path / "prep.svm", to_tensors(prep))
    reloaded = from_tensors(ivector.IvecPrep, read_container(tmp_path / "prep.svm"))
    batch = rng.standard_normal((100, 40))
    assert np.array_equal(ivector.prep_apply(reloaded, batch), ivector.prep_apply(prep, batch))


def test_train_tv_rejects_empty():
    rng = np.random.default_rng(11)
    ubm = random_ubm(rng)
    with pytest.raises(InputError):
        ivector.train_tv(np.zeros((0, 3)), np.zeros((0, 3, 2)), ubm, 2, n_iters=5, seed=0)


def einsum_posterior(model, ubm, n, f_cent):
    """Oracle for ivector._posterior: its contractions as einsums over named indices."""
    tc = model.per_component()
    ts = tc * (1.0 / ubm.vars)[:, :, None]
    gram = np.einsum("cdr,cds->crs", tc, ts)
    precision = np.eye(model.ivec_dim)[None] + np.einsum("mc,crs->mrs", n, gram)
    proj = np.einsum("cdr,mcd->mr", ts, f_cent)
    w = np.linalg.solve(precision, proj[..., None])[..., 0]
    return precision, proj, w


def test_posterior_matches_einsum_oracle():
    rng = np.random.default_rng(14)
    ubm = random_ubm(rng, n_components=5, dim=3)
    tv = ivector.TvModel(rng.standard_normal((15, 4)), 5, 3)
    n, f_cent = ivector._centered_stats(ubm, *random_stats(rng, 9, 5, 3))
    for got, want in zip(
        ivector._posterior(tv, ubm, n, f_cent), einsum_posterior(tv, ubm, n, f_cent)
    ):
        assert_close_to_max(got, want)


def test_one_tv_iteration_matches_einsum_oracle():
    rng = np.random.default_rng(15)
    ubm = random_ubm(rng, n_components=5, dim=3)
    n, f = random_stats(rng, 9, 5, 3)
    model, history = ivector.train_tv(n, f, ubm, 4, n_iters=1, seed=3)
    # the starting T that train_tv draws from its seed
    t0 = np.random.default_rng(3).standard_normal((15, 4)) * 0.1 * np.sqrt(ubm.vars.mean())
    n, f_cent = ivector._centered_stats(ubm, n, f)
    precision, proj, w = einsum_posterior(ivector.TvModel(t0, 5, 3), ubm, n, f_cent)
    eww = np.linalg.inv(precision) + np.einsum("mr,ms->mrs", w, w)
    a = np.einsum("mc,mrs->crs", n, eww)
    a += ivector._TV_RIDGE * np.trace(a, axis1=1, axis2=2)[:, None, None] / 4 * np.eye(4)
    c_acc = np.einsum("mcd,mr->crd", f_cent, w)
    t1 = np.linalg.solve(a, c_acc).transpose(0, 2, 1).reshape(15, 4)
    evidence = 0.5 * ((proj * w).sum() - np.linalg.slogdet(precision)[1].sum())
    assert_close_to_max(model.t, t1)
    assert_close_to_max([history[0]], [evidence])
