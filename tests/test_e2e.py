import numpy as np
import pytest

from svpipe import dplda, e2e, fileio, frontend, gmm, ivecnet, netcore, recipe, statsnet


@pytest.fixture(scope="module")
def tiny_system(small_corpus):
    """Small assembled system; stages initialized but barely trained."""
    rng = np.random.default_rng(0)
    fc = e2e.FrontendConfig(window_s=0.5, frame_rate_hz=100.0, context=4, n_dct=3)
    train = small_corpus.split("train")
    norm = [frontend.stmvn(u.features, fc.window_s, fc.frame_rate_hz) for u in train]
    ubm, _ = gmm.train_ubm(np.vstack(norm), 4, n_iters=3, seed=0)
    width = small_corpus.utterances[0].features.shape[1] * fc.n_dct
    snet = statsnet.make_stats_net(width, 4, hidden=(6,), seed=1)
    stats = [gmm.sufficient_stats(gmm.responsibilities(ubm, x), x) for x in norm]
    pca = ivecnet.fit_pca(ivecnet.map_supervectors(ubm, stats), 10)
    ivnet = ivecnet.make_ivec_net(10, 5, hidden=(8,), seed=2)
    params = dplda.DpldaParams(
        0.2 * rng.standard_normal((5, 5)),
        0.2 * rng.standard_normal((5, 5)),
        0.2 * rng.standard_normal(5),
        0.1,
    )
    return e2e.assemble_system(fc, snet, ubm, pca, ivnet, params, snapshot_weight=1e-2)


def _score(system, features_a, features_b):
    return dplda.dplda_score(
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
    assert _score(tiny_system, a, a) == dplda.dplda_score(
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
        stats = statsnet.pooled_stats(tiny_system.stats_net, expanded, norm)
        sv = ivecnet.map_supervector(tiny_system.ubm, stats, tiny_system.relevance)
        embeddings.append(ivecnet.extract_embedding(tiny_system.pca, tiny_system.ivec_net, sv))
    composed = dplda.dplda_score(tiny_system.dplda, embeddings[0], embeddings[1])
    assert abs(_score(tiny_system, a, b) - composed) < 1e-12


def _bxe_loss_fn(system, speakers, cfg):
    def loss_fn(embeddings):
        batch = dplda.TrialBatch.all_trials(embeddings, speakers)
        loss, _, d_emb = dplda.bxe_objective(system.dplda, batch, cfg)
        return loss, d_emb

    return loss_fn


def test_checkpointed_equals_full_graph(tiny_system, small_corpus):
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 18)]  # span several speakers
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    loss_fn = _bxe_loss_fn(tiny_system, speakers, dplda.ObjectiveConfig(p_target=0.1))
    led_a, led_b = e2e.ActivationLedger(), e2e.ActivationLedger()
    loss_a, grads_a = e2e.checkpointed_grads(tiny_system, feats, loss_fn, ledger=led_a)
    loss_b, grads_b = e2e.full_graph_grads(tiny_system, feats, loss_fn, ledger=led_b)
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        denom = np.maximum(np.abs(gb), 1e-300)
        assert (np.abs(ga - gb) / denom).max() < 1e-12
    # memory accounting: one utterance live at a time vs all of them
    assert led_a.max_live == 1
    assert led_a.live == 0
    assert led_b.max_live == len(feats)


def test_zero_loss_gives_zero_grads(tiny_system, small_corpus):
    feats = [u.features for u in small_corpus.split("train")[:3]]

    def loss_fn(embeddings):
        return 0.0, np.zeros_like(embeddings)

    loss, grads = e2e.checkpointed_grads(tiny_system, feats, loss_fn)
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def test_zero_snapshot_weight_penalty_is_exactly_zero(tiny_system):
    params = tiny_system.trainable_parameters()
    snapshot = netcore.make_snapshot(params, 0.0)
    perturbed = [p + 1.0 for p in params]
    penalty, grads = netcore.penalty_to_snapshot(perturbed, snapshot)
    assert penalty == 0.0
    for p, g in zip(perturbed, grads):
        assert np.array_equal(g, np.zeros_like(g))
        assert np.array_equal(p + g, p)  # adding the penalty grad is a no-op


TRAINERS = ["train_joint_s2i_dplda", "train_e2e_full"]


@pytest.mark.parametrize("trainer", TRAINERS)
def test_adam_lr_zero_leaves_system_unchanged(tiny_system, small_corpus, trainer):
    system = e2e.E2eSystem.from_tensors(tiny_system.to_tensors())
    before = [p.copy() for p in system.trainable_parameters()]
    schedule = e2e.TrainSchedule(
        n_pairs=2, lr=0.0, epoch_batches=2, max_epochs=1,
        objective=dplda.ObjectiveConfig(p_target=0.1),
    )
    train = getattr(e2e, trainer)
    system, _ = train(system, small_corpus, schedule, np.random.default_rng(0))
    after = system.trainable_parameters()
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_e2e_loss_decreases_over_fixed_batch(tiny_system, small_corpus):
    system = e2e.E2eSystem.from_tensors(tiny_system.to_tensors())
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 13, 18, 19)]
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    cfg = dplda.ObjectiveConfig(p_target=0.1)
    params = system.trainable_parameters()
    adam = netcore.AdamState.create(params, lr=1e-3)
    losses = []
    for _ in range(50):
        holder = {}

        def loss_fn(embeddings):
            batch = dplda.TrialBatch.all_trials(embeddings, speakers)
            loss, d_params, d_emb = dplda.bxe_objective(system.dplda, batch, cfg)
            holder["d"] = d_params
            return loss, d_emb

        loss, net_grads = e2e.checkpointed_grads(system, feats, loss_fn)
        losses.append(loss)
        d = holder["d"]
        grads = net_grads + [d.lam, d.gamma, d.c, np.asarray(d.k, dtype=np.float64)]
        params = netcore.adam_step(adam, system.trainable_parameters(), grads)
        system.set_trainable_parameters(params)
    assert losses[-1] < losses[0]


def test_snapshot_penalty_pins_live_parameters(tiny_system, small_corpus):
    # a huge snapshot weight keeps every live parameter glued to the snapshot
    # while Adam steps on the trial objective keep firing
    system = e2e.E2eSystem.from_tensors(tiny_system.to_tensors())
    train = small_corpus.split("train")
    utts = [train[i] for i in (0, 1, 6, 7, 12, 18)]
    feats = [u.features for u in utts]
    speakers = np.array([u.speaker for u in utts])
    cfg = dplda.ObjectiveConfig(p_target=0.1)
    params = system.trainable_parameters()
    snapshot = netcore.make_snapshot(params, 1e6)
    adam = netcore.AdamState.create(params, lr=1e-4)
    for _ in range(15):
        holder = {}

        def loss_fn(embeddings):
            batch = dplda.TrialBatch.all_trials(embeddings, speakers)
            loss, d_params, d_emb = dplda.bxe_objective(system.dplda, batch, cfg)
            holder["d"] = d_params
            return loss, d_emb

        _, net_grads = e2e.checkpointed_grads(system, feats, loss_fn)
        d = holder["d"]
        grads = net_grads + [d.lam, d.gamma, d.c, np.asarray(d.k, dtype=np.float64)]
        _, pen_grads = netcore.penalty_to_snapshot(params, snapshot)
        grads = [g + pg for g, pg in zip(grads, pen_grads)]
        params = netcore.adam_step(adam, params, grads)
        system.set_trainable_parameters(params)
        drift = max(
            float(np.abs(p - p0).max()) for p, p0 in zip(params, snapshot.values)
        )
        assert drift < 1e-3


@pytest.mark.parametrize("trainer", TRAINERS)
def test_joint_training_best_on_dev_never_worse(tiny_system, small_corpus, trainer):
    system = e2e.E2eSystem.from_tensors(tiny_system.to_tensors())
    schedule = e2e.TrainSchedule(
        n_pairs=3, lr=1e-3, epoch_batches=5, max_epochs=2,
        objective=dplda.ObjectiveConfig(p_target=0.1),
    )
    train = getattr(e2e, trainer)
    system, history = train(system, small_corpus, schedule, np.random.default_rng(2))
    final_records = [r.dev_c_primary for r in history]
    # returned system reproduces the best recorded dev cost
    dev = small_corpus.split("dev")
    emb = e2e.embed_utterances(system, [u.features for u in dev])
    batch = dplda.TrialBatch.all_trials(emb, np.array([u.speaker for u in dev]))
    from svpipe.metrics import ScoredTrials, c_primary

    value = c_primary(ScoredTrials(batch.scores(system.dplda), batch.is_target))
    assert value <= min(final_records) + 1e-12


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
    snet = statsnet.StatsNet(tiny_system.stats_net.net.copy())
    ivnet = ivecnet.IvecNet(tiny_system.ivec_net.net.copy())
    before = [p.copy() for p in snet.net.parameters() + ivnet.net.parameters()]
    system = e2e.assemble_system(
        tiny_system.frontend, snet, tiny_system.ubm, tiny_system.pca, ivnet,
        tiny_system.dplda,
    )
    system.set_trainable_parameters([p + 1.0 for p in system.trainable_parameters()])
    after = snet.net.parameters() + ivnet.net.parameters()
    for b, a in zip(before, after, strict=True):
        assert np.array_equal(b, a)


def test_system_roundtrip_bit_exact(tiny_system, small_corpus, tmp_path):
    path = tmp_path / "system.svm"
    fileio.write_container(path, tiny_system.to_tensors())
    back = e2e.E2eSystem.from_tensors(fileio.read_container(path))
    a = small_corpus.utterances[0].features
    b = small_corpus.utterances[5].features
    assert _score(tiny_system, a, b) == _score(back, a, b)
    for pa, pb in zip(tiny_system.trainable_parameters(), back.trainable_parameters()):
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

    def checking_grads(system, features_list, loss_fn, ledger=None):
        nonlocal batch_calls
        before = len(calls)
        out = checkpointed(system, features_list, loss_fn, ledger)
        assert sorted(calls[before:]) == sorted(id(f) for f in features_list)
        batch_calls += len(calls) - before
        return out

    monkeypatch.setattr(e2e, "preprocess", counting_preprocess)
    monkeypatch.setattr(e2e, "checkpointed_grads", checking_grads)
    system = e2e.E2eSystem.from_tensors(tiny_system.to_tensors())
    schedule = e2e.TrainSchedule(
        n_pairs=3, lr=1e-3, epoch_batches=5, max_epochs=2,
        objective=dplda.ObjectiveConfig(p_target=0.1),
    )
    e2e.train_e2e_full(system, small_corpus, schedule, np.random.default_rng(2))
    n_dev = len(small_corpus.split("dev"))
    assert batch_calls > 0
    assert len(calls) - batch_calls == (schedule.max_epochs + 1) * n_dev
