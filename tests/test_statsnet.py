import numpy as np
import pytest

from conftest import finite_difference, max_rel_err
from svpipe import frontend, gmm, netcore, recipe, statsnet
from svpipe.corpus import Utterance
from svpipe.errors import InputError


def test_full_scale_architecture_defaults():
    paper = recipe.Config(recipe.PAPER)
    assert paper.get("statsnet.hidden") == (1500, 1500, 1500, 1500)
    assert paper.get("ubm.components") == 2048
    net = statsnet.make_stats_net(
        360, paper.get("ubm.components"), paper.get("statsnet.hidden")
    )
    widths = [(l.n_in, l.n_out) for l in net.layers]
    assert widths == [(360, 1500), (1500, 1500), (1500, 1500), (1500, 1500), (1500, 2048)]
    assert [l.activation for l in net.layers] == ["sigmoid"] * 4 + ["softmax"]


def test_training_toward_constant_target():
    rng = np.random.default_rng(0)
    q = np.array([0.6, 0.3, 0.1])
    frames = [rng.standard_normal((120, 4)) for _ in range(3)]
    targets = [np.tile(q, (120, 1)) for _ in range(3)]
    net = statsnet.make_stats_net(4, 3, hidden=(8,), seed=1)
    cfg = netcore.SgdSchedule(lr=0.5, n_epochs=60, batch_size=64, seed=0, l1_weight=0.0)
    net, history = statsnet.train_stats_net(net, np.vstack(frames), np.vstack(targets), cfg)
    assert type(net) is statsnet.StatsNet  # train_sgd trains a copy of the same class
    avg = np.vstack(
        [netcore.forward(net, f)[-1] for f in frames]
    ).mean(axis=0)
    assert 0.5 * np.abs(avg - q).sum() < 0.05  # total variation
    assert history[-1] <= history[0]


def test_training_beats_constant_predictor():
    rng = np.random.default_rng(1)
    ubm = gmm.DiagGmm(
        np.full(4, 0.25), 2.0 * rng.standard_normal((4, 3)), np.ones((4, 3))
    )
    frames = [rng.standard_normal((150, 3)) + 1.0 for _ in range(4)]
    targets = [gmm.responsibilities(ubm, f) for f in frames]
    net = statsnet.make_stats_net(3, 4, hidden=(16, 16), seed=2)
    cfg = netcore.SgdSchedule(lr=0.5, n_epochs=40, batch_size=64, seed=0, l1_weight=0.0)
    net, history = statsnet.train_stats_net(net, np.vstack(frames), np.vstack(targets), cfg)
    stacked = np.vstack(targets)
    constant_ce = float(-(stacked * np.log(stacked.mean(axis=0))).sum(axis=1).mean())
    assert history[-1] <= constant_ce


def test_pooled_stats_equals_classic_accumulation():
    rng = np.random.default_rng(2)
    net = statsnet.make_stats_net(6, 5, hidden=(7,), seed=3)
    expanded = rng.standard_normal((40, 6))
    raw = rng.standard_normal((40, 3))
    resp = netcore.forward(net, expanded)[-1]
    direct = gmm.sufficient_stats(resp, raw)
    pooled = statsnet.pooled_stats(net, expanded, raw)
    assert np.array_equal(pooled[0], direct[0])
    assert np.array_equal(pooled[1], direct[1])


def test_conservation_for_arbitrary_nets():
    rng = np.random.default_rng(3)
    for seed in range(3):
        net = statsnet.make_stats_net(5, 4, hidden=(6, 6), seed=seed)
        expanded = rng.standard_normal((25, 5))
        raw = rng.standard_normal((25, 2))
        n, f = statsnet.pooled_stats(net, expanded, raw)
        assert abs(n.sum() - 25.0) < 1e-10
        assert np.abs(f.sum(axis=0) - raw.sum(axis=0)).max() < 1e-10
        assert np.isfinite(f).all()


def test_stats_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = statsnet.make_stats_net(4, 3, hidden=(5,), seed=5)
    expanded = rng.standard_normal((12, 4))
    raw = rng.standard_normal((12, 2))
    d_n = rng.standard_normal(3)
    d_f = rng.standard_normal((3, 2))

    def objective():
        n, f = statsnet.pooled_stats(net, expanded, raw)
        return float((n * d_n).sum() + (f * d_f).sum())

    acts = netcore.forward(net, expanded)
    grads = statsnet.pooled_stats_backward(net, acts, raw, d_n, d_f)
    for p, g in zip(net.parameters(), grads):
        fd = finite_difference(objective, p)
        assert max_rel_err(g, fd, floor=1e-6) < 1e-4


def test_network_stats_feed_classic_extraction(small_corpus):
    # swapping predicted responsibilities into the classic chain keeps every
    # downstream stage finite and well-formed
    from svpipe import frontend, ivector

    train = small_corpus.split("train")[:12]
    norm = [frontend.stmvn(u.features, 0.5, 100.0) for u in train]
    ubm, _ = gmm.train_ubm(np.vstack(norm), 4, n_iters=3, floor_frac=1e-3, seed=0)
    expanded = [frontend.context_expand(x, 4, 3) for x in norm]
    targets = [gmm.responsibilities(ubm, x) for x in norm]
    net = statsnet.make_stats_net(expanded[0].shape[1], 4, hidden=(10,), seed=1)
    net, _ = statsnet.train_stats_net(
        net, np.vstack(expanded), np.vstack(targets),
        netcore.SgdSchedule(lr=0.3, n_epochs=2, batch_size=128, seed=0, l1_weight=0.0),
    )
    stats = [statsnet.pooled_stats(net, e, x) for e, x in zip(expanded, norm)]
    n, f = map(np.stack, zip(*stats))
    assert np.isfinite(n).all() and np.isfinite(f).all()
    tv, _ = ivector.train_tv(n, f, ubm, 3, n_iters=2, seed=0)
    vectors = ivector.extract_ivectors(tv, ubm, n, f)
    assert np.isfinite(vectors).all()
    assert vectors.shape == (12, 3)


def test_training_from_context_windows_equals_training_on_stacked_rows():
    # the store expands each minibatch's rows; the net matches the one trained
    # on np.vstack of every utterance's context_expand bit for bit
    rng = np.random.default_rng(6)
    utts = [
        Utterance(f"u{i}", "s", "train", rng.standard_normal((t, 4)))
        for i, t in enumerate([1, 5, 40, 90, 12])
    ]
    ubm = gmm.DiagGmm(np.full(3, 1.0 / 3), rng.standard_normal((3, 4)), np.ones((3, 4)))
    cfg = recipe.Config({
        "frontend.context": "4", "frontend.n_dct": "3", "frontend.window_s": "0.3",
        "statsnet.hidden": "8", "statsnet.epochs": "4", "statsnet.batch": "16", "seed": "2",
    })
    windows, targets = recipe.f2s_matrices(cfg, ubm, utts, 100.0)
    net, history = recipe.train_stats_net(cfg, windows, targets)
    stacked = np.vstack([
        frontend.context_expand(frontend.stmvn(u.features, 0.3, 100.0), 4, 3) for u in utts
    ])
    ref, ref_history = recipe.train_stats_net(cfg, stacked, targets)
    assert history == ref_history
    for a, b in zip(net.parameters(), ref.parameters(), strict=True):
        assert np.array_equal(a, b)


def test_frame_mismatch_errors():
    rng = np.random.default_rng(5)
    net = statsnet.make_stats_net(4, 3, hidden=(5,), seed=6)
    with pytest.raises(InputError):
        statsnet.pooled_stats(net, rng.standard_normal((8, 4)), rng.standard_normal((7, 2)))
    with pytest.raises(InputError):
        statsnet.train_stats_net(
            net,
            rng.standard_normal((8, 4)),
            np.full((7, 3), 1.0 / 3),
            netcore.SgdSchedule(lr=0.1, n_epochs=1, batch_size=512, seed=0, l1_weight=0.0),
        )
