import functools
import logging

import numpy as np
import pytest

from conftest import dplda_score, full_graph_grads, live_activation_caches
from svpipe import dplda, e2e, fileio, frontend, gmm, ivecnet, netcore, recipe, statsnet
from svpipe.errors import InputError, ShapeError


@pytest.fixture(scope="module")
def tiny_system(small_corpus):
    """Small assembled system; stages initialized but barely trained."""
    rng = np.random.default_rng(0)
    fc = e2e.FrontendConfig(window_s=0.5, frame_rate_hz=100.0, context=4, n_dct=3)
    train = small_corpus.split("train")
    norm = [frontend.stmvn(u.features, fc.window_s, fc.frame_rate_hz) for u in train]
    ubm, _ = gmm.train_ubm(np.vstack(norm), 4, n_iters=3, floor_frac=1e-3, seed=0)
    width = small_corpus.utterances[0].features.shape[1] * fc.n_dct
    snet = statsnet.make_stats_net(width, 4, hidden=(6,), seed=1)
    stats = [gmm.sufficient_stats(gmm.responsibilities(ubm, x), x) for x in norm]
    n, f = map(np.stack, zip(*stats))
    pca = ivecnet.fit_pca(ivecnet.map_supervectors(ubm, n, f, 16.0), 10)
    ivnet = ivecnet.make_ivec_net(10, 5, hidden=(8,), seed=2)
    params = dplda.DpldaParams(
        0.2 * rng.standard_normal((5, 5)),
        0.2 * rng.standard_normal((5, 5)),
        0.2 * rng.standard_normal(5),
        0.1,
    )
    return e2e.assemble_system(fc, snet, ubm, pca, ivnet, params, relevance=16.0)


@pytest.fixture(scope="module")
def train_coords(tiny_system, small_corpus):
    """PCA coordinates of the train split under tiny_system, as train-joint passes them."""
    return e2e.pca_coords(tiny_system, [u.features for u in small_corpus.split("train")])


def _score(system, features_a, features_b):
    return dplda_score(
        system.dplda,
        e2e.embed_utterance(system, features_a),
        e2e.embed_utterance(system, features_b),
    )


def test_score_symmetry(tiny_system, small_corpus):
    a = small_corpus.utterances[0].features
    b = small_corpus.utterances[1].features
    assert _score(tiny_system, a, b) == _score(tiny_system, b, a)
    # identical utterances embed identically
    emb_a = e2e.embed_utterance(tiny_system, a)
    emb_b = e2e.embed_utterance(tiny_system, a.copy())
    assert np.array_equal(emb_a, emb_b)
    assert _score(tiny_system, a, a) == dplda_score(
        tiny_system.dplda, emb_a, emb_a
    )


def test_score_matches_stage_by_stage_composition(tiny_system, small_corpus):
    fc = tiny_system.frontend
    a = small_corpus.utterances[2].features
    b = small_corpus.utterances[3].features
    embeddings = []
    for feats in (a, b):
        norm = frontend.stmvn(feats, fc.window_s, fc.frame_rate_hz)
        expanded = frontend.context_expand(norm, fc.context, fc.n_dct)
        n, f = statsnet.pooled_stats(tiny_system.stats_net, expanded, norm)
        sv = ivecnet.map_supervectors(tiny_system.ubm, n[None], f[None], tiny_system.relevance)
        coords = ivecnet.pca_project(tiny_system.pca, sv)
        embeddings.append(netcore.forward(tiny_system.ivec_net, coords)[-1][0])
    composed = dplda_score(tiny_system.dplda, embeddings[0], embeddings[1])
    assert abs(_score(tiny_system, a, b) - composed) < 1e-12


def test_embed_utterance_unit_norm_and_determinism(tiny_system, small_corpus):
    feats = small_corpus.utterances[4].features
    out = e2e.embed_utterance(tiny_system, feats)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert np.array_equal(out, e2e.embed_utterance(tiny_system, feats.copy()))


def test_embedding_nothing_is_an_input_error(tiny_system):
    with pytest.raises(InputError):
        e2e.pca_coords(tiny_system, [])
    with pytest.raises(InputError):
        e2e.embed_coords(tiny_system, np.zeros((0, tiny_system.pca.basis.shape[1])))
    with pytest.raises(InputError):
        e2e.checkpointed_grads(tiny_system, [], lambda emb: (0.0, emb))


def _bxe_loss_fn(system, speakers, p_target):
    def loss_fn(embeddings):
        batch = dplda.TrialBatch.all_trials(embeddings, speakers)
        loss, _, d_emb = dplda.bxe_objective(system.dplda, batch, p_target)
        return loss, d_emb

    return loss_fn


def test_checkpointed_equals_full_graph(tiny_system, small_corpus):
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 18)]  # span several speakers
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    loss_fn = _bxe_loss_fn(tiny_system, speakers, 0.1)
    with live_activation_caches(tiny_system.stats_net) as live_a:
        loss_a, grads_a = e2e.checkpointed_grads(tiny_system, feats, loss_fn)
    with live_activation_caches(tiny_system.stats_net) as live_b:
        loss_b, grads_b = full_graph_grads(tiny_system, feats, loss_fn)
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        denom = np.maximum(np.abs(gb), 1e-300)
        assert (np.abs(ga - gb) / denom).max() < 1e-12
    # measured memory: one utterance's activations live at a time vs all of them
    assert live_a.max_live == 1
    assert live_a.live == 0
    assert live_b.max_live == len(feats)


def test_zero_loss_gives_zero_grads(tiny_system, small_corpus):
    feats = [u.features for u in small_corpus.split("train")[:3]]

    def loss_fn(embeddings):
        return 0.0, np.zeros_like(embeddings)

    loss, grads = e2e.checkpointed_grads(tiny_system, feats, loss_fn)
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def test_zero_weight_snapshot_penalty_is_exactly_zero(tiny_system):
    params = tiny_system.parameters()
    perturbed = [p + 1.0 for p in params]
    penalty, grads = netcore.penalty_to_snapshot(perturbed, tiny_system.anchor.parameters(), 0.0)
    assert penalty == 0.0
    for p, g in zip(perturbed, grads):
        assert np.array_equal(g, np.zeros_like(g))
        assert np.array_equal(p + g, p)  # adding the penalty grad is a no-op


TRAINERS = ["train_joint_s2i_dplda", "train_e2e_full"]


def _trainer(name, train_coords):
    """The trainer called name, taking (system, corpus, schedule, rng)."""
    if name == "train_joint_s2i_dplda":
        return functools.partial(e2e.train_joint_s2i_dplda, train_coords=train_coords)
    return getattr(e2e, name)


@pytest.mark.parametrize("trainer", TRAINERS)
def test_adam_lr_zero_leaves_system_unchanged(tiny_system, small_corpus, train_coords, trainer):
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    before = [p.copy() for p in system.parameters()]
    schedule = e2e.TrainSchedule(
        n_pairs=2, lr=0.0, epoch_batches=2, max_epochs=1,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    train = _trainer(trainer, train_coords)
    system, _ = train(system, small_corpus, schedule, np.random.default_rng(0))
    after = system.parameters()
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


@pytest.mark.parametrize("trainer", TRAINERS)
def test_training_that_keeps_its_initialization_says_so(
    tiny_system, small_corpus, train_coords, trainer, caplog
):
    # with lr 0 no epoch can beat the initialization on dev
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    schedule = e2e.TrainSchedule(
        n_pairs=2, lr=0.0, epoch_batches=1, max_epochs=2,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    train = _trainer(trainer, train_coords)
    with caplog.at_level(logging.INFO, logger="svpipe.e2e"):
        _, history = train(system, small_corpus, schedule, np.random.default_rng(0))
    init_c = history[0].dev_c_primary
    assert [r.dev_c_primary for r in history] == [init_c] * 3
    kept = [m for m in caplog.messages if m.startswith("kept ")]
    assert kept == [f"kept the initialization (epoch 0): dev C_primary {init_c:.6f}"]


def test_training_names_the_epoch_it_keeps(
    tiny_system, small_corpus, train_coords, caplog, monkeypatch
):
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    schedule = e2e.TrainSchedule(
        n_pairs=2, lr=1e-3, epoch_batches=1, max_epochs=3,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    dev_costs = iter([0.5, 0.6, 0.25, 0.3])
    monkeypatch.setattr(e2e, "_dev_metrics", lambda *args: (0.1, next(dev_costs)))
    with caplog.at_level(logging.INFO, logger="svpipe.e2e"):
        e2e.train_joint_s2i_dplda(
            system, small_corpus, schedule, np.random.default_rng(0), train_coords=train_coords
        )
    kept = [m for m in caplog.messages if m.startswith("kept ")]
    assert kept == ["kept epoch 2: dev C_primary 0.250000"]


def _step_schedule(lr, anchor_weight):
    """A schedule for direct train_step calls, which read its target prior and anchor weight."""
    return e2e.TrainSchedule(
        n_pairs=1, lr=lr, epoch_batches=1, max_epochs=1,
        p_target=0.1,
        anchor_weight=anchor_weight,
    )


def test_e2e_loss_decreases_over_fixed_batch(tiny_system, small_corpus):
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 13, 18, 19)]
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    schedule = _step_schedule(lr=1e-3, anchor_weight=0.0)
    adam = netcore.AdamState.create(system.parameters(), lr=schedule.lr)
    losses = [
        e2e.train_step(system, adam, schedule, feats, speakers, e2e.GROUPS) for _ in range(50)
    ]
    assert losses[-1] < losses[0]


def test_snapshot_penalty_pins_live_parameters(tiny_system, small_corpus):
    # a huge anchor weight keeps every live parameter glued to the anchor
    # while Adam steps on the trial objective keep firing
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 18)]
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    schedule = _step_schedule(lr=1e-4, anchor_weight=1e6)
    adam = netcore.AdamState.create(system.parameters(), lr=schedule.lr)
    for _ in range(15):
        e2e.train_step(system, adam, schedule, feats, speakers, e2e.GROUPS)
        drift = max(
            float(np.abs(p - p0).max())
            for p, p0 in zip(system.parameters(), system.anchor.parameters(), strict=True)
        )
        assert drift < 1e-3


def test_frozen_train_step_moves_the_embedding_net_and_backend_only(tiny_system, small_corpus):
    # with the statistics network frozen the step reads PCA coordinates,
    # leaves that network's arrays as they were, and returns the batch loss
    # plus the pull of the trained groups, both before the step
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    groups = ("ivec_net", "dplda")
    pulled = [p + 0.01 for p in system.anchor.parameters()]  # a pull that is not zero
    system.anchor.set_parameters(e2e.GROUPS, pulled)
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 18)]
    coords = e2e.pca_coords(system, [u.features for u in utts])
    speakers = np.array([u.speaker for u in utts])
    schedule = _step_schedule(lr=1e-3, anchor_weight=0.5)
    before = {g: [p.copy() for p in system.parameters((g,))] for g in e2e.GROUPS}
    batch = dplda.TrialBatch.all_trials(netcore.forward(system.ivec_net, coords)[-1], speakers)
    loss, _, _ = dplda.bxe_objective(system.dplda, batch, schedule.p_target)
    trained = before["ivec_net"] + before["dplda"]
    penalty, _ = netcore.penalty_to_snapshot(trained, system.anchor.parameters(groups), 0.5)
    adam = netcore.AdamState.create(trained, lr=schedule.lr)
    assert e2e.train_step(system, adam, schedule, coords, speakers, groups) == loss + penalty
    after = {g: system.parameters((g,)) for g in e2e.GROUPS}
    for b, a in zip(before["stats_net"], after["stats_net"], strict=True):
        assert np.array_equal(b, a)
    for group in groups:
        assert not all(np.array_equal(b, a) for b, a in zip(before[group], after[group]))


@pytest.mark.parametrize("trainer", TRAINERS)
def test_joint_training_best_on_dev_never_worse(tiny_system, small_corpus, train_coords, trainer):
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    schedule = e2e.TrainSchedule(
        n_pairs=3, lr=1e-3, epoch_batches=5, max_epochs=2,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    train = _trainer(trainer, train_coords)
    system, history = train(system, small_corpus, schedule, np.random.default_rng(2))
    final_records = [r.dev_c_primary for r in history]
    # returned system reproduces the best recorded dev cost
    dev = small_corpus.split("dev")
    emb = np.stack([e2e.embed_utterance(system, u.features) for u in dev])
    batch = dplda.TrialBatch.all_trials(emb, np.array([u.speaker for u in dev]))
    from svpipe.metrics import ScoredTrials, c_primary

    value = c_primary(ScoredTrials(batch.scores(system.dplda), batch.is_target))
    assert value <= min(final_records) + 1e-12


@pytest.mark.parametrize("trainer", TRAINERS)
def test_dev_pass_embeds_what_scoring_embeds(
    tiny_system, small_corpus, train_coords, trainer, monkeypatch
):
    # best-on-dev selection and LR halving must see, bit for bit, the
    # embeddings that scoring writes; the first dev pass is the initialization
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    dev = [u.features for u in small_corpus.split("dev")]
    expected = np.stack([e2e.embed_utterance(system, f) for f in dev])
    seen = []
    dev_metrics = e2e._dev_metrics

    def spying_dev_metrics(embeddings, speakers, params):
        seen.append(embeddings.copy())
        return dev_metrics(embeddings, speakers, params)

    monkeypatch.setattr(e2e, "_dev_metrics", spying_dev_metrics)
    schedule = e2e.TrainSchedule(
        n_pairs=3, lr=1e-3, epoch_batches=2, max_epochs=1,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    _trainer(trainer, train_coords)(system, small_corpus, schedule, np.random.default_rng(2))
    assert len(seen) == schedule.max_epochs + 1
    assert np.array_equal(seen[0], expected)


def test_epoch_log_format():
    rec = e2e.EpochRecord(3, 0.125, 0.2, 0.5, 1e-3)
    line = e2e.format_epoch_log(rec)
    fields = line.split("\t")
    assert fields[0] == "3"
    assert len(fields) == 5


def test_schedule_full_scale_defaults():
    paper = recipe.Config(recipe.PAPER)
    joint = recipe.train_schedule(paper, "joint")
    assert joint.n_pairs == 5000
    assert joint.epoch_batches == 250
    full = recipe.train_schedule(paper, "e2e")
    assert full.n_pairs == 75
    assert full.epoch_batches == 250


def test_assemble_system_copies_the_networks(tiny_system):
    snet = tiny_system.stats_net.copy()
    ivnet = tiny_system.ivec_net.copy()
    assert type(snet) is statsnet.StatsNet and type(ivnet) is ivecnet.IvecNet
    before = [p.copy() for p in snet.parameters() + ivnet.parameters()]
    system = e2e.assemble_system(
        tiny_system.frontend, snet, tiny_system.ubm, tiny_system.pca, ivnet,
        tiny_system.dplda, tiny_system.relevance,
    )
    system.set_parameters(e2e.GROUPS, [p + 1.0 for p in system.parameters()])
    after = snet.parameters() + ivnet.parameters()
    for b, a in zip(before, after, strict=True):
        assert np.array_equal(b, a)


def test_set_parameters_rejects_a_list_that_does_not_fit_the_groups(tiny_system):
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    groups = ("ivec_net", "dplda")
    params = [p.copy() for p in system.parameters(groups)]
    narrow = [params[0][:, 1:], *params[1:]]  # the first embedding-net weight
    wrong = [
        params[:-1], params + params[-1:], narrow, system.parameters(), system.parameters(groups[:1])
    ]
    for bad in wrong:
        with pytest.raises(ShapeError):
            system.set_parameters(groups, bad)
    for before, after in zip(params, system.parameters(groups), strict=True):
        assert np.array_equal(before, after)


def test_system_roundtrip_bit_exact(tiny_system, small_corpus, tmp_path):
    path = tmp_path / "system.svm"
    fileio.write_container(path, fileio.to_tensors(tiny_system))
    back = fileio.from_tensors(e2e.E2eSystem, fileio.read_container(path))
    a = small_corpus.utterances[0].features
    b = small_corpus.utterances[5].features
    assert _score(tiny_system, a, b) == _score(back, a, b)
    for pa, pb in zip(tiny_system.parameters(), back.parameters(), strict=True):
        assert np.array_equal(pa, pb)
    for pa, pb in zip(tiny_system.anchor.parameters(), back.anchor.parameters(), strict=True):
        assert np.array_equal(pa, pb)


def test_e2e_training_preprocesses_batch_utterances_once(
    tiny_system, small_corpus, monkeypatch
):
    # the checkpoint recompute reuses the batch's frontend output, so each
    # batch utterance is preprocessed once and each dev utterance once per
    # dev pass (initialization plus one per epoch)
    calls = []
    preprocess = e2e.preprocess
    checkpointed = e2e.checkpointed_grads

    def counting_preprocess(system, features):
        calls.append(id(features))
        return preprocess(system, features)

    batch_calls = 0

    def checking_grads(system, features_list, loss_fn):
        nonlocal batch_calls
        before = len(calls)
        out = checkpointed(system, features_list, loss_fn)
        assert sorted(calls[before:]) == sorted(id(f) for f in features_list)
        batch_calls += len(calls) - before
        return out

    monkeypatch.setattr(e2e, "preprocess", counting_preprocess)
    monkeypatch.setattr(e2e, "checkpointed_grads", checking_grads)
    system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(tiny_system))
    schedule = e2e.TrainSchedule(
        n_pairs=3, lr=1e-3, epoch_batches=5, max_epochs=2,
        p_target=0.1,
        anchor_weight=1e-2,
    )
    e2e.train_e2e_full(system, small_corpus, schedule, np.random.default_rng(2))
    n_dev = len(small_corpus.split("dev"))
    assert batch_calls > 0
    assert len(calls) - batch_calls == (schedule.max_epochs + 1) * n_dev
