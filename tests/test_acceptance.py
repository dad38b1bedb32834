"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 7 runs the full desk-scale chain (50 speakers, 3 seeds), which
criteria 8 and 9 reuse; those three are marked slow and everything else is
property-level and fast. Run with -s to see the report lines.
"""

import time

import numpy as np
import pytest

from conftest import finite_difference, full_graph_grads, live_activation_caches, max_rel_err
from conftest import recipe_chain
from svpipe import (
    corpus as corpus_mod,
    dplda,
    e2e,
    fileio,
    frontend,
    gmm,
    ivecnet,
    ivector,
    metrics,
    netcore,
    plda,
    recipe,
    statsnet,
)

DESK_SEEDS = (0, 1, 2)
DPLDA_L2_GRID = (1e-6, 1e-5, 1e-4)


def _report(num, name, passed):
    print(f"\nacceptance {num} [{name}]: {'PASS' if passed else 'FAIL'}")


class _Criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.num, self.name, exc_type is None)
        return False


# ---------------------------------------------------------------------------
# desk-scale chain shared by criteria 7, 8 and 9

def _dev_metrics(scores, is_target):
    trials = metrics.ScoredTrials(scores, is_target)
    return metrics.eer(trials), metrics.c_primary(trials)


def _dev_picked_dplda(seed, init, c_init, train_vecs, train_spk, dev_batch):
    """The DPLDA init or its full-batch refinement with the L2 constant best on dev.

    c_init is the init's dev C_primary; the init is kept when no L2 value
    improves on it. Returns (params, dev C_primary, the picked L2 or "init").
    """
    best = (init, c_init, "init")
    for l2 in DPLDA_L2_GRID:
        cfg = recipe.Config({"dplda.l2": repr(l2)}, seed=seed)
        cand, _ = recipe.train_dplda(cfg, init, train_vecs, train_spk)
        _, c_cand = _dev_metrics(dev_batch.scores(cand), dev_batch.is_target)
        if c_cand < best[1]:
            best = (cand, c_cand, l2)
    return best


def _run_desk_chain(seed):
    cfg = recipe.Config(seed=seed)
    chain = recipe_chain(cfg)
    dev = chain.corpus.split("dev")
    dev_spk = np.array([u.speaker for u in dev])
    dev_vecs = np.stack([chain.vectors[u.uid] for u in dev])

    dev_batch = dplda.TrialBatch.all_trials(dev_vecs, dev_spk)
    dev_i, dev_j = np.nonzero(dev_batch.trials)
    plda_scores = plda.plda_llr_pairs(chain.plda, dev_vecs[dev_i], dev_vecs[dev_j])
    eer_plda, c_plda = _dev_metrics(plda_scores, dev_batch.is_target)
    dplda_params, c_dplda, picked_l2 = _dev_picked_dplda(
        seed, plda.to_dplda(chain.plda), c_plda, chain.train_vecs, chain.speakers, dev_batch
    )

    # neural cascade (statistics net on background-model posteriors, PCA of
    # background-model supervectors, embedding net mimicking the i-vectors);
    # its backend is the PLDA conversion or a full-batch refinement of it,
    # whichever is first best on dev
    emb_batch = dplda.TrialBatch.all_trials(
        np.stack([e2e.embed_utterance(chain.system, u.features) for u in dev]), dev_spk
    )
    overrides = [{"joint.init_fullbatch": "false"}]
    overrides += [{"dplda.l2": repr(l2)} for l2 in DPLDA_L2_GRID]
    backends = [
        recipe.cascade_backend(recipe.Config(o, seed=seed), chain.embeddings, chain.speakers)
        for o in overrides
    ]
    costs = [_dev_metrics(emb_batch.scores(b), emb_batch.is_target)[1] for b in backends]
    picked = int(np.argmin(costs))

    # joint training of the embedding network and the scoring backend
    system, history = recipe.train_joint(
        cfg, chain.system, chain.corpus, chain.coords, backends[picked]
    )
    return dict(
        vars(chain),  # the corpus and the training histories among them
        eer_plda=eer_plda, c_plda=c_plda, c_dplda=c_dplda, picked_l2=picked_l2,
        c_cascade=costs[picked],
        c_joint_init=history[0].dev_c_primary,
        c_joint=min(rec.dev_c_primary for rec in history),
        models=dict(
            ubm=chain.ubm, tv=chain.tv, prep=chain.prep, plda=chain.plda, dplda=dplda_params,
            snet=chain.snet, pca=chain.pca, ivnet=chain.ivnet, system=system,
        ),
        dev_vecs=dev_vecs, dev_batch=dev_batch,
    )


@pytest.fixture(scope="session")
def desk_chains():
    start = time.perf_counter()
    results = {seed: _run_desk_chain(seed) for seed in DESK_SEEDS}
    results["elapsed"] = time.perf_counter() - start
    return results


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_dplda_equals_plda():
    with _Criterion(1, "DPLDA == PLDA conversion oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(3, 9))
            a = rng.standard_normal((dim, dim))
            b = a @ a.T / dim + 0.05 * np.eye(dim)
            cmat = rng.standard_normal((dim, dim))
            w = cmat @ cmat.T / dim + 0.1 * np.eye(dim)
            model = plda.TwoCovPlda(rng.standard_normal(dim), b, w)
            params = plda.to_dplda(model)
            e = model.mu + rng.standard_normal((500, dim))
            t = model.mu + rng.standard_normal((500, dim))
            gap = np.abs(
                dplda.score_pairs(params, e, t) - plda.plda_llr_pairs(model, e, t)
            ).max()
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        print(f"\n  max |quadratic - generative| = {worst:.3e} over 20x500 pairs "
              f"({elapsed:.1f}s)")
        assert worst < 1e-8
        assert elapsed < 10.0


def _make_ckpt_system(seed):
    rng = np.random.default_rng(seed)
    cfg = corpus_mod.SynthConfig(
        n_speakers=8, utts_per_speaker=4, min_frames=50, max_frames=90,
        dim=6, speaker_dim=4, channel_dim=2, noise_scale=1.5, nonlinearity=1.0,
        seed=seed, frame_rate_hz=100.0,
    )
    corp = corpus_mod.synth_corpus(cfg)
    feats = [u.features for u in corp.utterances]
    speakers = np.array([u.speaker for u in corp.utterances])
    norm = [frontend.stmvn(f, 0.5, 100.0) for f in feats[:10]]
    ubm, _ = gmm.train_ubm(np.vstack(norm), 4, n_iters=3, floor_frac=1e-3, seed=seed)
    fc = e2e.FrontendConfig(window_s=0.5, frame_rate_hz=100.0, context=4, n_dct=3)
    snet = statsnet.make_stats_net(6 * 3, 4, hidden=(10,), seed=seed)
    stats = [gmm.sufficient_stats(gmm.responsibilities(ubm, x), x) for x in norm]
    n, f = map(np.stack, zip(*stats))
    pca = ivecnet.fit_pca(ivecnet.map_supervectors(ubm, n, f, 16.0), 8)
    ivnet = ivecnet.make_ivec_net(8, 5, hidden=(7,), seed=seed + 1)
    params = dplda.DpldaParams(
        0.3 * rng.standard_normal((5, 5)),
        0.3 * rng.standard_normal((5, 5)),
        0.3 * rng.standard_normal(5),
        0.05,
    )
    system = e2e.assemble_system(fc, snet, ubm, pca, ivnet, params, relevance=16.0)
    return system, feats, speakers


def test_criterion_2_checkpointing_equivalence():
    with _Criterion(2, "checkpointed backprop == full graph"):
        start = time.perf_counter()
        worst = 0.0
        for batch_size in (4, 9, 16):
            system, feats, speakers = _make_ckpt_system(batch_size)
            idx = np.arange(batch_size) * 2 % len(feats)
            batch_feats = [feats[i] for i in idx]
            batch_spk = speakers[idx]

            def loss_fn(embeddings):
                batch = dplda.TrialBatch.all_trials(embeddings, batch_spk)
                loss, _, d_emb = dplda.bxe_objective(system.dplda, batch, 0.1)
                return loss, d_emb

            with live_activation_caches(system.stats_net) as live:
                loss_a, grads_a = e2e.checkpointed_grads(system, batch_feats, loss_fn)
            loss_b, grads_b = full_graph_grads(system, batch_feats, loss_fn)
            assert live.max_live == 1
            assert loss_a == loss_b
            for ga, gb in zip(grads_a, grads_b):
                rel = np.abs(ga - gb) / np.maximum(np.abs(gb), 1e-300)
                worst = max(worst, float(rel.max()))
        elapsed = time.perf_counter() - start
        print(f"\n  max relative gradient difference = {worst:.3e} ({elapsed:.1f}s)")
        assert worst < 1e-12
        assert elapsed < 60.0


def test_criterion_3_gradient_suite():
    with _Criterion(3, "finite-difference gradient suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0

        # every activation type inside small random nets, up to 4 layers
        layouts = [
            ([5, 4, 3], ["sigmoid", "softmax"]),
            ([4, 5, 4, 2], ["tanh", "sigmoid", "lengthnorm"]),
            ([3, 4, 4, 3, 2], ["linear", "tanh", "sigmoid", "linear"]),
        ]
        for i, (widths, kinds) in enumerate(layouts):
            net = netcore.init_mlp(widths, kinds, seed=i)
            x = rng.standard_normal((4, widths[0]))
            direction = rng.standard_normal((4, widths[-1]))
            acts = netcore.forward(net, x)
            grads, _ = netcore.backward(net, acts, direction)

            def loss():
                return float((netcore.forward(net, x)[-1] * direction).sum())

            for p, g in zip(net.parameters(), grads):
                worst = max(worst, max_rel_err(g, finite_difference(loss, p), floor=1e-6))

        # trial cross-entropy gradients
        params = dplda.DpldaParams(
            rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
            rng.standard_normal(3), 0.2,
        )
        vectors = rng.standard_normal((8, 3))
        speakers = np.repeat(np.arange(4), 2)
        batch = dplda.TrialBatch.all_trials(vectors, speakers)
        _, grads, _ = dplda.bxe_objective(params, batch, 0.1)
        flat = dplda.pack_params(params)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd[i] = (
                dplda.bxe_objective(dplda.unpack_params(up, 3), batch, 0.1)[0]
                - dplda.bxe_objective(dplda.unpack_params(dn, 3), batch, 0.1)[0]
            ) / 2e-6
        worst = max(worst, max_rel_err(dplda.pack_params(grads), fd, floor=1e-8))

        # the parameter pull of joint training and full-batch DPLDA
        pulled = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
        anchor = [rng.standard_normal((3, 3)), rng.standard_normal(3)]

        def pull_loss():
            return netcore.penalty_to_snapshot(pulled, anchor, 0.01)[0]

        _, grads = netcore.penalty_to_snapshot(pulled, anchor, 0.01)
        for p, g in zip(pulled, grads):
            worst = max(worst, max_rel_err(g, finite_difference(pull_loss, p), floor=1e-6))

        # statistics pooling path
        snet = statsnet.make_stats_net(4, 3, hidden=(5,), seed=1)
        expanded = rng.standard_normal((10, 4))
        raw = rng.standard_normal((10, 2))
        d_n = rng.standard_normal(3)
        d_f = rng.standard_normal((3, 2))

        def stats_loss():
            n, f = statsnet.pooled_stats(snet, expanded, raw)
            return float((n * d_n).sum() + (f * d_f).sum())

        acts = netcore.forward(snet, expanded)
        grads = statsnet.pooled_stats_backward(snet, acts, raw, d_n, d_f)
        for p, g in zip(snet.parameters(), grads):
            worst = max(worst, max_rel_err(g, finite_difference(stats_loss, p), floor=1e-6))

        # cosine objective through the embedding net
        ivnet = ivecnet.make_ivec_net(6, 4, hidden=(5,), seed=2)
        inputs = rng.standard_normal((8, 6))
        refs = ivector.lengthnorm(rng.standard_normal((8, 4)))

        def cos_loss():
            out = netcore.forward(ivnet, inputs)[-1]
            return ivecnet.cosine_loss(out, refs)[0]

        acts = netcore.forward(ivnet, inputs)
        _, grad_out = ivecnet.cosine_loss(acts[-1], refs)
        grads, _ = netcore.backward(ivnet, acts, grad_out)
        for p, g in zip(ivnet.parameters(), grads):
            worst = max(worst, max_rel_err(g, finite_difference(cos_loss, p), floor=1e-6))

        elapsed = time.perf_counter() - start
        print(f"\n  max relative FD error = {worst:.3e} ({elapsed:.1f}s)")
        assert worst < 1e-4
        assert elapsed < 120.0


def test_criterion_4_stats_layer_exactness():
    with _Criterion(4, "statistics layer exactness + conservation"):
        rng = np.random.default_rng(3)
        ubm = gmm.DiagGmm(
            np.full(5, 0.2), rng.standard_normal((5, 3)),
            np.abs(rng.standard_normal((5, 3))) + 0.5,
        )
        raw = rng.standard_normal((60, 3))
        resp = gmm.responsibilities(ubm, raw)
        # pooling with the background-model responsibilities substituted in
        pooled_n, pooled_f = gmm.sufficient_stats(resp, raw)
        # independent accumulation loop
        n = np.zeros(5)
        f = np.zeros((5, 3))
        for t in range(60):
            for c in range(5):
                n[c] += resp[t, c]
                f[c] += resp[t, c] * raw[t]
        assert max_rel_err(pooled_n, n) < 1e-12
        assert max_rel_err(pooled_f, f) < 1e-12
        # conservation for arbitrary untrained networks
        for seed in range(4):
            net = statsnet.make_stats_net(6, 5, hidden=(7, 7), seed=seed)
            expanded = rng.standard_normal((40, 6))
            n, f = statsnet.pooled_stats(net, expanded, raw[:40])
            assert abs(n.sum() - 40.0) < 1e-10
            assert np.abs(f.sum(axis=0) - raw[:40].sum(axis=0)).max() < 1e-10


def test_criterion_5_sampler_laws():
    with _Criterion(5, "minibatch sampler laws"):
        rng = np.random.default_rng(4)
        # full pass covers every utterance exactly once
        utts = {f"s{i}": list(range(10 * i, 10 * i + 10)) for i in range(6)}
        drawn = np.concatenate(dplda.make_pair_pool(utts, rng))
        assert sorted(drawn.tolist()) == list(range(60))
        # group-size semantics for 1- and 5-utterance speakers
        sizes = {}
        for group in dplda.make_pair_pool({"one": [0], "five": [1, 2, 3, 4, 5]}, rng):
            key = "one" if 0 in group.tolist() else "five"
            sizes.setdefault(key, []).append(len(group))
        assert sorted(sizes["one"]) == [1]
        assert sorted(sizes["five"]) == [2, 3]
        # a batch of n_pairs groups scores all U(U-1)/2 trials
        vectors = rng.standard_normal((60, 4))
        speakers = np.repeat(np.arange(6), 10)
        for n_pairs in (2, 5):
            idx = next(dplda.pair_batches(speakers, n_pairs, rng))
            batch = dplda.TrialBatch.all_trials(vectors[idx], speakers[idx])
            u = batch.vectors.shape[0]
            assert batch.n_trials == u * (u - 1) // 2


def test_criterion_6_metric_oracles():
    with _Criterion(6, "metric oracles and invariances"):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(1000)
        labels = rng.random(1000) < 0.3
        trials = metrics.ScoredTrials(scores, labels)

        # exhaustive sweep oracle over all n+1 thresholds
        uniq = np.unique(scores)
        thresholds = np.concatenate([[uniq[0] - 1], 0.5 * (uniq[:-1] + uniq[1:]), [uniq[-1] + 1]])
        n_tar = labels.sum()
        n_non = (~labels).sum()
        p_miss = np.array([((scores < th) & labels).sum() / n_tar for th in thresholds])
        p_fa = np.array([((scores >= th) & ~labels).sum() / n_non for th in thresholds])
        for p in (0.01, 0.005):
            oracle = (p * p_miss + (1 - p) * p_fa).min() / min(p, 1 - p)
            assert abs(metrics.min_dcf(trials, p) - oracle) < 1e-12
        diff = p_miss - p_fa
        k = int(np.argmax(diff >= 0))
        if diff[k] == 0:
            eer_oracle = p_miss[k]
        else:
            t = (p_fa[k - 1] - p_miss[k - 1]) / ((p_miss[k] - p_miss[k - 1]) - (p_fa[k] - p_fa[k - 1]))
            eer_oracle = p_miss[k - 1] + t * (p_miss[k] - p_miss[k - 1])
        assert abs(metrics.eer(trials) - eer_oracle) < 1e-12

        for transform in (np.exp, lambda s: 2.5 * s + 11.0):
            mapped = metrics.ScoredTrials(transform(scores), labels)
            assert abs(metrics.eer(trials) - metrics.eer(mapped)) < 1e-12
            assert abs(metrics.min_dcf(trials, 0.01) - metrics.min_dcf(mapped, 0.01)) < 1e-12
        assert metrics.min_dcf(trials, 0.01) <= 1.0
        assert metrics.min_dcf(trials, 0.005) <= 1.0


@pytest.mark.slow
def test_criterion_7_directional_reproduction(desk_chains):
    with _Criterion(7, "desk-scale directional reproduction"):
        for seed in DESK_SEEDS:
            r = desk_chains[seed]
            print(
                f"\n  seed {seed}: baseline dev EER={r['eer_plda']:.4f} "
                f"C_primary PLDA={r['c_plda']:.4f} DPLDA={r['c_dplda']:.4f} "
                f"(l2={r['picked_l2']}) cascade={r['c_cascade']:.4f} "
                f"joint={r['c_joint']:.4f}"
            )
            # sanity floor on the synthetic corpus
            assert r["eer_plda"] < 0.20
            # (a) rows 1 -> 2 direction
            assert r["c_dplda"] <= r["c_plda"] + 1e-12
            # (b) rows 6 -> 7 direction
            assert r["c_joint"] <= r["c_joint_init"] + 1e-12
            # the joint init's dev pass embeds through the same path as the
            # cascade's dev scoring, so the two costs agree exactly
            assert abs(r["c_joint_init"] - r["c_cascade"]) < 5e-3
            assert r["c_joint_init"] == r["c_cascade"]
        # (c) a huge anchor weight pins the live parameters during training;
        # measured on the raw optimization steps so best-on-dev checkpointing
        # cannot mask drift
        r = desk_chains[DESK_SEEDS[0]]
        system = fileio.from_tensors(e2e.E2eSystem, fileio.to_tensors(r["models"]["system"]))
        system.freeze_anchor()
        schedule = recipe.train_schedule(recipe.Config({"joint.lambda_init": "1e6"}, seed=0), "joint")
        train = r["corpus"].split("train")
        speakers = np.array([u.speaker for u in train])
        coords = e2e.pca_coords(system, [u.features for u in train])
        n_stats = system.n_stats_params
        adam = netcore.AdamState.create(system.trainable_parameters()[n_stats:], lr=schedule.lr)
        batches = dplda.pair_batches(speakers, schedule.n_pairs, np.random.default_rng(0))
        drift = 0.0
        for _ in range(20):
            idx = next(batches)
            e2e.train_step(system, adam, schedule, coords[idx], speakers[idx], False)
            live = zip(system.trainable_parameters(), system.anchor)
            drift = max(drift, *(float(np.abs(p - p0).max()) for p, p0 in live))
        print(f"  snapshot pull: max live parameter drift over 20 steps = {drift:.2e}")
        assert drift < 1e-3
        elapsed = desk_chains["elapsed"]
        print(f"  total chain runtime for 3 seeds: {elapsed:.0f}s")
        assert elapsed < 900.0


@pytest.mark.slow
def test_criterion_8_em_monotonicity(desk_chains):
    with _Criterion(8, "EM/ELBO monotonicity"):
        for seed in DESK_SEEDS:
            r = desk_chains[seed]
            for name in ("ubm_ll", "tv_elbo", "plda_ll"):
                history = r[name]
                assert all(
                    b >= a - 1e-6 for a, b in zip(history, history[1:])
                ), f"{name} not monotone for seed {seed}"


@pytest.mark.slow
def test_criterion_9_persistence(desk_chains, tmp_path):
    with _Criterion(9, "bit-exact persistence across the chain"):
        r = desk_chains[DESK_SEEDS[0]]
        corp = r["corpus"]
        # feature files round-trip bit-exactly
        for utt in corp.utterances[:5]:
            path = tmp_path / f"{utt.uid}.svf"
            fileio.write_features(path, utt.features)
            assert np.array_equal(fileio.read_features(path), utt.features)

        models = r["models"]
        reloaded = {}
        for name, model in models.items():
            tensors = fileio.to_tensors(model)
            path = tmp_path / f"{name}.svm"
            fileio.write_container(path, tensors)
            back = fileio.read_container(path)
            for key in tensors:
                assert np.array_equal(np.asarray(back[key]), np.asarray(tensors[key]))
            reloaded[name] = back

        # the scored dev trial list is bit-identical after reloading every
        # model in the scoring chain
        dev_batch = r["dev_batch"]
        before = dev_batch.scores(models["dplda"])
        dplda_back = fileio.from_tensors(dplda.DpldaParams, reloaded["dplda"])
        after = dev_batch.scores(dplda_back)
        assert np.array_equal(before, after)
        system_back = fileio.from_tensors(e2e.E2eSystem, reloaded["system"])
        dev = corp.split("dev")[:6]
        emb_before = np.stack([e2e.embed_utterance(models["system"], u.features) for u in dev])
        emb_after = np.stack([e2e.embed_utterance(system_back, u.features) for u in dev])
        assert np.array_equal(emb_before, emb_after)

        dev_i, dev_j = np.nonzero(dev_batch.trials)
        trials = corpus_mod.TrialList(
            [corp.split("dev")[i].uid for i in dev_i[:50]],
            [corp.split("dev")[j].uid for j in dev_j[:50]],
        )
        path_a = tmp_path / "scores_before.txt"
        path_b = tmp_path / "scores_after.txt"
        corpus_mod.write_scores(path_a, trials, before[:50])
        corpus_mod.write_scores(path_b, trials, after[:50])
        assert path_a.read_bytes() == path_b.read_bytes()
