import contextlib
import types
import weakref

import numpy as np
import pytest

from svpipe import frontend, gmm, ivecnet, netcore, recipe
from svpipe.corpus import SynthConfig, synth_corpus


def finite_difference(fn, array, eps=1e-5):
    """Central finite differences of a scalar fn() w.r.t. an array it reads.

    Mutates entries in place and restores them; fn takes no arguments.
    """
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        up = fn()
        array[idx] = orig - eps
        down = fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def max_rel_err(approx, exact, floor=1e-8):
    return float(
        (np.abs(np.asarray(approx) - np.asarray(exact))
         / np.maximum(floor, np.abs(exact))).max()
    )


def assert_close_to_max(got, want, tol=1e-12):
    """|got - want| within tol times the largest |want|, over the whole array."""
    want = np.asarray(want)
    assert np.abs(np.asarray(got) - want).max() <= tol * np.abs(want).max()


def dplda_score(params, phi_i, phi_j):
    """Oracle for dplda.score_pairs: one trial's quadratic form, term by term."""
    return float(
        phi_i @ params.lam @ phi_j
        + phi_j @ params.lam @ phi_i
        + phi_i @ params.gamma @ phi_i
        + phi_j @ params.gamma @ phi_j
        + (phi_i + phi_j) @ params.c
        + params.k
    )


def full_graph_grads(system, features_list, loss_fn):
    """Oracle for e2e.checkpointed_grads: one backward pass over the whole graph.

    Keeps every utterance's statistics-network activations from the forward
    pass and backpropagates through them, with the pooling and MAP adjoints
    written out here. Returns (loss, grads) aligned to the statistics-net
    plus embedding-net parameters.
    """
    fc = system.frontend
    norms, caches = [], []
    for features in features_list:
        norm = frontend.stmvn(features, fc.window_s, fc.frame_rate_hz)
        caches.append(
            netcore.forward(system.stats_net, frontend.context_expand(norm, fc.context, fc.n_dct))
        )
        norms.append(norm)
    n, f = map(np.stack, zip(*[gmm.sufficient_stats(a[-1], x) for a, x in zip(caches, norms)]))
    supervectors = ivecnet.map_supervectors(system.ubm, n, f, system.relevance)
    ivec_acts = netcore.forward(system.ivec_net, ivecnet.pca_project(system.pca, supervectors))
    loss, d_emb = loss_fn(ivec_acts[-1])
    ivec_grads, d_coords = netcore.backward(system.ivec_net, ivec_acts, d_emb)
    # supervector = (f + r m) / (n + r), per utterance and component
    d_sv = (d_coords @ system.pca.basis.T).reshape(f.shape)
    denom = n + system.relevance
    d_f = d_sv / denom[:, :, None]
    d_n = -(d_sv * supervectors.reshape(f.shape)).sum(axis=2) / denom
    stats_grads = [np.zeros_like(p) for p in system.stats_net.parameters()]
    for acts, norm, dn, df in zip(caches, norms, d_n, d_f):
        # pooling n = sum_t resp_t, f = sum_t resp_t x_t^T, spread back over frames
        d_resp = dn[None, :] + norm @ df.T
        grads_u, _ = netcore.backward(system.stats_net, acts, d_resp, input_grad=False)
        for g, gu in zip(stats_grads, grads_u):
            g += gu
    return loss, stats_grads + ivec_grads


def recipe_chain(cfg):
    """Every recipe stage from synth_corpus through assemble_cascade, in memory.

    Each stage gets the inputs its CLI stage reads, so each model equals the
    file that stage writes. Returns the models, histories and arrays by name;
    row i of n, f and vectors belongs to corpus.utterances[i].
    """
    corpus = recipe.synth_corpus(cfg)
    rate = corpus.frame_rate_hz
    train = corpus.split("train")
    speakers = np.array([u.speaker for u in train])
    ubm, ubm_ll = recipe.train_ubm(cfg, recipe.ubm_frames(cfg, train, rate))
    n, f = recipe.utterance_stats(cfg, ubm, corpus.utterances, rate)
    rows = [i for i, u in enumerate(corpus.utterances) if u.split == "train"]
    tv, tv_elbo = recipe.train_tv(cfg, ubm, n[rows], f[rows])
    prep, vectors = recipe.extract_ivectors(cfg, tv, ubm, corpus.utterances, n, f)
    train_vecs = vectors[rows]
    plda_model, plda_ll = recipe.train_plda(cfg, train_vecs, speakers)
    snet, _ = recipe.train_stats_net(cfg, *recipe.f2s_matrices(cfg, ubm, train, rate))
    pca = recipe.fit_pca(cfg, ubm, n[rows], f[rows])
    ivnet, _ = recipe.train_ivec_net(
        cfg, ubm, pca, *recipe.net_stats(cfg, snet, train, rate), train_vecs
    )
    system, coords, embeddings = recipe.assemble_cascade(cfg, snet, ubm, pca, ivnet, train, rate)
    return types.SimpleNamespace(
        corpus=corpus, speakers=speakers, n=n, f=f, vectors=vectors, train_vecs=train_vecs,
        ubm=ubm, ubm_ll=ubm_ll, tv=tv, tv_elbo=tv_elbo, prep=prep, plda=plda_model,
        plda_ll=plda_ll, snet=snet, pca=pca, ivnet=ivnet, system=system, coords=coords,
        embeddings=embeddings,
    )


@contextlib.contextmanager
def live_activation_caches(net):
    """Count the forward caches of net that are alive, by weak reference.

    Wraps netcore.forward. Each call on net opens one cache, which stays
    alive until the last array the call created has been freed, wherever
    the caller kept it. Yields the counts: live now and max_live so far.
    """
    caches = types.SimpleNamespace(live=0, max_live=0)
    forward = netcore.forward

    def counting_forward(called_net, x):
        acts = forward(called_net, x)
        if called_net is net:
            caches.live += 1
            caches.max_live = max(caches.max_live, caches.live)
            remaining = [len(acts) - 1]

            def freed():
                remaining[0] -= 1
                if remaining[0] == 0:
                    caches.live -= 1

            for array in acts[1:]:
                weakref.finalize(array, freed)
        return acts

    netcore.forward = counting_forward
    try:
        yield caches
    finally:
        netcore.forward = forward


@pytest.fixture(scope="session")
def small_corpus():
    """Fast corpus for module-level tests (not the acceptance desk config)."""
    cfg = SynthConfig(
        n_speakers=12,
        utts_per_speaker=6,
        min_frames=60,
        max_frames=140,
        dim=8,
        speaker_dim=5,
        channel_dim=2,
        noise_scale=1.5,
        nonlinearity=1.0,
        seed=7,
        frame_rate_hz=100.0,
    )
    return synth_corpus(cfg)
