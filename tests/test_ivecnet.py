import numpy as np
import pytest

from svpipe import gmm, ivecnet, ivector, netcore, recipe
from svpipe.errors import InputError, ShapeError


def random_ubm(rng, n_components=3, dim=2):
    return gmm.DiagGmm(
        np.full(n_components, 1.0 / n_components),
        rng.standard_normal((n_components, dim)),
        np.abs(rng.standard_normal((n_components, dim))) + 0.5,
    )


def test_map_zero_counts_give_background_means():
    rng = np.random.default_rng(0)
    ubm = random_ubm(rng)
    sv = ivecnet.map_supervectors(ubm, np.zeros((2, 3)), np.zeros((2, 3, 2)), 16.0)
    assert np.array_equal(sv, np.tile(ubm.means.ravel(), (2, 1)))


def test_map_defaults_and_limit():
    assert recipe.Config().get("ivecnet.relevance") == 16.0
    rng = np.random.default_rng(1)
    ubm = random_ubm(rng)
    xbar = rng.standard_normal((3, 2))
    n = np.full(3, 1e6)
    sv = ivecnet.map_supervectors(ubm, n[None], (n[:, None] * xbar)[None], 16.0).reshape(3, 2)
    assert np.abs(sv - xbar).max() < 1e-4


def test_map_is_convex_combination_per_component():
    rng = np.random.default_rng(2)
    ubm = random_ubm(rng)
    n = np.abs(rng.standard_normal(3)) * 10 + 0.1
    xbar = rng.standard_normal((3, 2))
    f = n[:, None] * xbar
    sv = ivecnet.map_supervectors(ubm, n[None], f[None], relevance=16.0).reshape(3, 2)
    alpha = (n / (n + 16.0))[:, None]
    assert np.allclose(sv, alpha * xbar + (1 - alpha) * ubm.means, atol=1e-12)
    # coordinate-wise betweenness
    lo = np.minimum(xbar, ubm.means)
    hi = np.maximum(xbar, ubm.means)
    assert ((sv >= lo - 1e-12) & (sv <= hi + 1e-12)).all()


def test_map_rejects_statistics_that_do_not_match_the_ubm():
    ubm = random_ubm(np.random.default_rng(8))
    for n, f in [
        (np.ones((2, 2)), np.zeros((2, 2, 2))),  # 2 components, UBM has 3
        (np.ones((2, 3)), np.zeros((2, 3, 3))),  # dimension 3, UBM has 2
        (np.ones((1, 3)), np.zeros((2, 3, 2))),  # counts and sums disagree on rows
        (np.ones(3), np.zeros((3, 2))),  # one utterance, not stacked
    ]:
        with pytest.raises(ShapeError):
            ivecnet.map_supervectors(ubm, n, f, 16.0)


def test_pca_exact_subspace_reconstructs():
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    coords = rng.standard_normal((30, 3))
    data = coords @ basis.T + rng.standard_normal(10)
    pca = ivecnet.fit_pca(data, 3)
    projected = ivecnet.pca_project(pca, data)
    recon = pca.mean + projected @ pca.basis.T
    assert np.abs(recon - data).max() < 1e-8


def test_pca_default_dim_and_orthonormality():
    assert recipe.Config(recipe.PAPER).get("pca.dim") == 4000
    rng = np.random.default_rng(4)
    data = rng.standard_normal((20, 50))  # fewer rows than dims: Gram route
    pca = ivecnet.fit_pca(data, 8)
    gram = pca.basis.T @ pca.basis
    assert np.abs(gram - np.eye(8)).max() < 1e-8


def test_pca_captured_variance_matches_full_eigendecomposition():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((40, 12)) * np.linspace(3.0, 0.2, 12)
    pca = ivecnet.fit_pca(data, 5)
    centered = data - data.mean(axis=0)
    captured = np.trace(pca.basis.T @ (centered.T @ centered) @ pca.basis)
    eigvals = np.linalg.eigvalsh(centered.T @ centered)
    expect = eigvals[::-1][:5].sum()
    assert abs(captured - expect) / expect < 1e-6


def test_pca_projection_is_contraction():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((25, 8))
    pca = ivecnet.fit_pca(data, 4)
    projected = ivecnet.pca_project(pca, data)
    recon = pca.mean + projected @ pca.basis.T
    orig_dist = np.linalg.norm(data - pca.mean, axis=1)
    recon_dist = np.linalg.norm(recon - pca.mean, axis=1)
    assert (recon_dist <= orig_dist + 1e-8).all()


def test_pca_dimension_bounds():
    rng = np.random.default_rng(7)
    with pytest.raises(InputError):
        ivecnet.fit_pca(rng.standard_normal((5, 8)), 6)


def test_default_net_architecture():
    paper = recipe.Config(recipe.PAPER)
    net = ivecnet.make_ivec_net(
        paper.get("pca.dim"), paper.get("prep.dim"), paper.get("ivecnet.hidden")
    )
    widths = [(l.n_in, l.n_out) for l in net.layers]
    assert widths == [(4000, 600), (600, 600), (600, 250)]
    assert [l.activation for l in net.layers] == ["tanh", "tanh", "lengthnorm"]


def test_cosine_loss_perfect_and_random_baseline():
    rng = np.random.default_rng(8)
    refs = ivector.lengthnorm(rng.standard_normal((20, 50)))
    loss, grad = ivecnet.cosine_loss(refs, refs)
    assert abs(loss) < 1e-12
    assert grad.shape == refs.shape
    # random unit vectors in 50+ dims are nearly orthogonal
    sims = []
    for seed in range(20):
        net = ivecnet.make_ivec_net(10, 50, hidden=(12,), seed=seed)
        inputs = rng.standard_normal((20, 10))
        out = netcore.forward(net, inputs)[-1]
        sims.extend(np.abs((out * refs).sum(axis=1)).tolist())
    assert np.mean(sims) < 0.2


def test_training_halves_the_loss():
    rng = np.random.default_rng(9)
    inputs = rng.standard_normal((60, 12))
    hidden = np.tanh(inputs @ rng.standard_normal((12, 6)))
    refs = ivector.lengthnorm(hidden @ rng.standard_normal((6, 8)))
    net = ivecnet.make_ivec_net(12, 8, hidden=(16,), seed=0)
    cfg = netcore.SgdSchedule(lr=0.1, n_epochs=150, batch_size=16, seed=0, l1_weight=1e-6)
    trained, history = ivecnet.train_ivec_net(net, inputs, refs, cfg)
    assert type(trained) is ivecnet.IvecNet  # train_sgd trains a copy of the same class
    assert history[-1] < 0.5 * history[0]


def test_zero_norm_reference_rejected():
    rng = np.random.default_rng(11)
    net = ivecnet.make_ivec_net(4, 3, hidden=(5,), seed=2)
    refs = ivector.lengthnorm(rng.standard_normal((5, 3)))
    refs[2] = 0.0
    with pytest.raises(InputError):
        ivecnet.train_ivec_net(
            net,
            rng.standard_normal((5, 4)),
            refs,
            netcore.SgdSchedule(lr=0.05, n_epochs=1, batch_size=64, seed=0, l1_weight=1e-5),
        )


def test_empty_training_set_rejected():
    net = ivecnet.make_ivec_net(4, 3, hidden=(5,), seed=2)
    with pytest.raises(InputError):
        ivecnet.train_ivec_net(
            net,
            np.zeros((0, 4)),
            np.zeros((0, 3)),
            netcore.SgdSchedule(lr=0.05, n_epochs=1, batch_size=64, seed=0, l1_weight=1e-5),
        )
