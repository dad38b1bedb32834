"""Command-line driver for every pipeline stage.

One subcommand per stage; a flat key=value config file (keys carry section
prefixes, e.g. "ubm.components=64") supplies parameters and all stages share
one working directory, so the classic cascade

    synth-data train-ubm extract-stats train-tv extract-ivec train-plda
    score eval

runs end to end from a single config. Exit codes: 0 ok, 2 usage/config
error, 3 data or format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import e2e as e2e_mod
from . import frontend, gmm, ivecnet, ivector, metrics, netcore, plda, statsnet
from . import dplda as dplda_mod
from .corpus import (
    Corpus,
    SynthConfig,
    load_corpus,
    make_trials,
    parse_trial_list,
    read_scores,
    save_corpus,
    synth_corpus,
    write_scores,
    write_trial_list,
)
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    MetricError,
    ModelError,
    ObjectiveError,
    OptimizerError,
    PipelineError,
    ShapeError,
    StateError,
)
from .fileio import read_container, read_text, write_container, write_text

logger = logging.getLogger("svpipe")


def _parse_bool(value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _parse_ints(value):
    return tuple(int(v) for v in value.split(",") if v.strip())


# key -> (default value, parser); every value is parsed when a Config is built
DEFAULTS = {
    "seed": ("0", int),
    "paths.workdir": ("work", str),
    # synthetic corpus (desk scale)
    "corpus.speakers": ("50", int),
    "corpus.utts": ("8", int),
    "corpus.dim": ("20", int),
    "corpus.min_frames": ("200", int),
    "corpus.max_frames": ("800", int),
    "corpus.speaker_dim": ("8", int),
    "corpus.channel_dim": ("4", int),
    "corpus.noise": ("0.3", float),
    "corpus.nonlinearity": ("0.5", float),
    "corpus.frame_rate": ("100", float),
    # frontend
    "frontend.window_s": ("3.0", float),
    "frontend.context": ("15", int),
    "frontend.n_dct": ("6", int),
    # background model / i-vectors / preprocessing
    "ubm.components": ("32", int),
    "ubm.iters": ("8", int),
    "ubm.floor": ("1e-3", float),
    "tv.dim": ("40", int),
    "tv.iters": ("5", int),
    "prep.dim": ("20", int),
    "plda.iters": ("10", int),
    # discriminative backend
    "dplda.l2": ("1e-3", float),
    "dplda.p_target": ("0.0075", float),
    "dplda.max_iters": ("200", int),
    # neural modules
    "statsnet.hidden": ("128,128", _parse_ints),
    "statsnet.lr": ("0.5", float),
    "statsnet.epochs": ("24", int),
    "statsnet.batch": ("512", int),
    "pca.dim": ("100", int),
    "ivecnet.hidden": ("64,64", _parse_ints),
    "ivecnet.lr": ("0.1", float),
    "ivecnet.l1": ("1e-5", float),
    "ivecnet.epochs": ("120", int),
    "ivecnet.batch": ("32", int),
    "ivecnet.stats_source": ("statsnet", str),
    "ivecnet.relevance": ("16", float),
    # joint and end-to-end training
    "joint.pairs": ("50", int),
    "joint.epoch_batches": ("20", int),
    "joint.epochs": ("8", int),
    "joint.lr": ("1e-4", float),
    "joint.lambda_init": ("1e-2", float),
    "joint.init_fullbatch": ("true", _parse_bool),
    "e2e.pairs": ("8", int),
    "e2e.epoch_batches": ("10", int),
    "e2e.epochs": ("2", int),
    "e2e.lr": ("1e-4", float),
    "e2e.lambda_init": ("1e-2", float),
    # scoring / evaluation
    "score.backend": ("plda", str),
    "score.trials": ("", str),
    "eval.scores": ("", str),
    "eval.trials": ("", str),
}


def load_config(path):
    """Parse a flat key=value config file; '#' starts a comment line."""
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except FormatError as exc:
        raise ConfigError(str(exc)) from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


class Config:
    """Resolved config; every value is parsed by its DEFAULTS parser on construction."""

    def __init__(self, overrides=None, seed=None, workdir=None):
        raw = {key: default for key, (default, _) in DEFAULTS.items()}
        raw.update(overrides or {})
        if seed is not None:
            raw["seed"] = str(seed)
        if workdir is not None:
            raw["paths.workdir"] = str(workdir)
        self.values = {}
        for key, value in raw.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                self.values[key] = DEFAULTS[key][1](value)
            except ValueError:
                raise ConfigError(f"{key}: cannot parse {value!r}") from None

    def get(self, key):
        """The parsed value of key."""
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    @property
    def seed(self):
        return self.get("seed")

    @property
    def workdir(self):
        return Path(self.get("paths.workdir"))

    def path(self, name):
        return self.workdir / name


def _load_corpus(cfg) -> Corpus:
    return load_corpus(cfg.path("corpus"))


def _stacked_rows(utts, blocks_of):
    """Stack per-utterance row blocks into preallocated matrices.

    blocks_of(utt) returns that utterance's matrices, one per output, each
    with one row per frame. They are copied into their row slice as each
    utterance is processed, so the stacked matrices are the only full-size
    copies: no per-utterance list is kept and nothing is stacked twice.
    """
    if not utts:
        raise InputError("no training utterances")
    n_rows = sum(u.features.shape[0] for u in utts)
    out = None
    lo = 0
    for utt in utts:
        blocks = blocks_of(utt)
        if out is None:
            out = [np.empty((n_rows, block.shape[1])) for block in blocks]
        hi = lo + utt.features.shape[0]
        for dest, block in zip(out, blocks):
            if block.shape != (hi - lo, dest.shape[1]):
                raise ShapeError(
                    f"utterance {utt.uid}: block of shape {block.shape}, "
                    f"expected {(hi - lo, dest.shape[1])}"
                )
            dest[lo:hi] = block
        lo = hi
    return out


def _ubm_training_frames(cfg):
    """Normalized train frames, stacked; the corpus is released on return."""
    corpus = _load_corpus(cfg)
    window = cfg.get("frontend.window_s")
    (frames,) = _stacked_rows(
        corpus.split("train"),
        lambda u: [frontend.stmvn(u.features, window, corpus.frame_rate_hz)],
    )
    return frames


def _f2s_training_matrices(cfg, ubm):
    """Stacked context-expanded train frames and their UBM posterior targets."""
    corpus = _load_corpus(cfg)
    window = cfg.get("frontend.window_s")
    context = cfg.get("frontend.context")
    n_dct = cfg.get("frontend.n_dct")

    def blocks(utt):
        norm = frontend.stmvn(utt.features, window, corpus.frame_rate_hz)
        return [
            frontend.context_expand(norm, context, n_dct),
            gmm.responsibilities(ubm, norm),
        ]

    return _stacked_rows(corpus.split("train"), blocks)


def _log_progress(label, history, digits):
    """Log the first and last value of a training history, if any."""
    if history:
        logger.info("%s: %.*f -> %.*f", label, digits, history[0], digits, history[-1])
    else:
        logger.info("%s: no iterations run", label)


def _write_model(cfg, name, tensors):
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    write_container(cfg.path(name), tensors)
    logger.info("wrote %s", cfg.path(name))


def _map_over(items, fn, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stages

def cmd_synth_data(cfg, args):
    synth = SynthConfig(
        n_speakers=cfg.get("corpus.speakers"),
        utts_per_speaker=cfg.get("corpus.utts"),
        min_frames=cfg.get("corpus.min_frames"),
        max_frames=cfg.get("corpus.max_frames"),
        dim=cfg.get("corpus.dim"),
        speaker_dim=cfg.get("corpus.speaker_dim"),
        channel_dim=cfg.get("corpus.channel_dim"),
        noise_scale=cfg.get("corpus.noise"),
        nonlinearity=cfg.get("corpus.nonlinearity"),
        frame_rate_hz=cfg.get("corpus.frame_rate"),
        seed=cfg.seed,
    )
    corpus = synth_corpus(synth)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, cfg.path("corpus"))
    write_trial_list(cfg.path("trials_dev.txt"), make_trials(corpus, "dev"))
    write_trial_list(cfg.path("trials_eval.txt"), make_trials(corpus, "eval"))
    logger.info(
        "synthesized %d utterances from %d speakers",
        len(corpus.utterances),
        synth.n_speakers,
    )


def cmd_train_ubm(cfg, args):
    frames = _ubm_training_frames(cfg)
    model, history = gmm.train_ubm(
        frames,
        cfg.get("ubm.components"),
        n_iters=cfg.get("ubm.iters"),
        floor_frac=cfg.get("ubm.floor"),
        seed=cfg.seed,
    )
    _log_progress("ubm log-likelihood", history, 2)
    _write_model(cfg, "ubm.svm", model.to_tensors())


def cmd_extract_stats(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    window = cfg.get("frontend.window_s")

    def one(utt):
        norm = frontend.stmvn(utt.features, window, corpus.frame_rate_hz)
        return gmm.sufficient_stats(gmm.responsibilities(ubm, norm), norm)

    stats = _map_over(corpus.utterances, one, args.threads)
    tensors = {}
    for utt, s in zip(corpus.utterances, stats):
        tensors.update(s.to_tensors(f"{utt.uid}."))
    _write_model(cfg, "stats.svm", tensors)


def _load_stats(cfg, corpus):
    tensors = read_container(cfg.path("stats.svm"))
    return {
        u.uid: gmm.SuffStats.from_tensors(tensors, f"{u.uid}.")
        for u in corpus.utterances
    }


def cmd_train_tv(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    stats = _load_stats(cfg, corpus)
    train_stats = [stats[u.uid] for u in corpus.split("train")]
    model, history = ivector.train_tv(
        train_stats,
        ubm,
        cfg.get("tv.dim"),
        n_iters=cfg.get("tv.iters"),
        seed=cfg.seed,
    )
    _log_progress("tv evidence", history, 2)
    _write_model(cfg, "tv.svm", model.to_tensors())


def cmd_extract_ivec(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    tv = ivector.TvModel.from_tensors(read_container(cfg.path("tv.svm")))
    stats = _load_stats(cfg, corpus)

    def one(utt):
        return ivector.extract_ivector(tv, ubm, stats[utt.uid])

    raw = _map_over(corpus.utterances, one, args.threads)
    raw_by_uid = {u.uid: w for u, w in zip(corpus.utterances, raw)}
    train = corpus.split("train")
    prep = ivector.fit_prep(
        np.stack([raw_by_uid[u.uid] for u in train]),
        [u.speaker for u in train],
        cfg.get("prep.dim"),
    )
    _write_model(cfg, "prep.svm", prep.to_tensors())
    tensors = {
        u.uid: ivector.prep_apply(prep, raw_by_uid[u.uid])
        for u in corpus.utterances
    }
    _write_model(cfg, "ivec.svm", tensors)


def _load_vectors(cfg, corpus, name="ivec.svm"):
    tensors = read_container(cfg.path(name))
    return {uid: np.asarray(v) for uid, v in tensors.items()}


def cmd_train_plda(cfg, args):
    corpus = _load_corpus(cfg)
    vectors = _load_vectors(cfg, corpus)
    train = corpus.split("train")
    model, history = plda.train_plda(
        np.stack([vectors[u.uid] for u in train]),
        [u.speaker for u in train],
        n_iters=cfg.get("plda.iters"),
    )
    _log_progress("plda log-likelihood", history, 2)
    _write_model(cfg, "plda.svm", model.to_tensors())


def cmd_train_dplda(cfg, args):
    corpus = _load_corpus(cfg)
    vectors = _load_vectors(cfg, corpus)
    train = corpus.split("train")
    model = plda.TwoCovPlda.from_tensors(read_container(cfg.path("plda.svm")))
    init = plda.to_dplda(model)
    obj = dplda_mod.ObjectiveConfig(
        p_target=cfg.get("dplda.p_target"),
        l2_weight=cfg.get("dplda.l2"),
    )
    params, history = dplda_mod.train_dplda_fullbatch(
        init,
        np.stack([vectors[u.uid] for u in train]),
        np.array([u.speaker for u in train]),
        obj,
        max_iters=cfg.get("dplda.max_iters"),
    )
    _log_progress("dplda loss", history, 6)
    _write_model(cfg, "dplda.svm", params.to_tensors())


def cmd_train_f2s(cfg, args):
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    frames, targets = _f2s_training_matrices(cfg, ubm)
    net = statsnet.make_stats_net(
        frames.shape[1],
        ubm.n_components,
        hidden=cfg.get("statsnet.hidden"),
        seed=cfg.seed,
    )
    schedule = netcore.SgdSchedule(
        lr=cfg.get("statsnet.lr"),
        n_epochs=cfg.get("statsnet.epochs"),
        batch_size=cfg.get("statsnet.batch"),
        seed=cfg.seed,
        l1_weight=0.0,
    )
    net, history = statsnet.train_stats_net(net, frames, targets, schedule)
    _log_progress("statsnet cross-entropy", history, 4)
    _write_model(cfg, "statsnet.svm", net.to_tensors())


def cmd_fit_pca(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    stats = _load_stats(cfg, corpus)
    train = corpus.split("train")
    supervectors = ivecnet.map_supervectors(
        ubm,
        [stats[u.uid] for u in train],
        relevance=cfg.get("ivecnet.relevance"),
    )
    pca = ivecnet.fit_pca(supervectors, cfg.get("pca.dim"))
    _write_model(cfg, "pca.svm", pca.to_tensors())


def _net_stats(cfg, corpus, utts):
    """Statistics from the trained statistics network (normalized features)."""
    net = statsnet.StatsNet.from_tensors(read_container(cfg.path("statsnet.svm")))
    window = cfg.get("frontend.window_s")
    context = cfg.get("frontend.context")
    n_dct = cfg.get("frontend.n_dct")
    out = []
    for utt in utts:
        norm = frontend.stmvn(utt.features, window, corpus.frame_rate_hz)
        expanded = frontend.context_expand(norm, context, n_dct)
        out.append(statsnet.pooled_stats(net, expanded, norm))
    return out


def cmd_train_s2i(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    pca = ivecnet.PcaModel.from_tensors(read_container(cfg.path("pca.svm")))
    vectors = _load_vectors(cfg, corpus)
    train = corpus.split("train")
    source = cfg.get("ivecnet.stats_source")
    if source == "statsnet":
        stats = _net_stats(cfg, corpus, train)
    elif source == "ubm":
        by_uid = _load_stats(cfg, corpus)
        stats = [by_uid[u.uid] for u in train]
    else:
        raise ConfigError(f"ivecnet.stats_source must be statsnet or ubm, not {source!r}")
    supervectors = ivecnet.map_supervectors(
        ubm, stats, relevance=cfg.get("ivecnet.relevance")
    )
    inputs = ivecnet.pca_project(pca, supervectors)
    refs = np.stack([vectors[u.uid] for u in train])
    net = ivecnet.make_ivec_net(
        inputs.shape[1],
        refs.shape[1],
        hidden=cfg.get("ivecnet.hidden"),
        seed=cfg.seed,
    )
    schedule = netcore.SgdSchedule(
        lr=cfg.get("ivecnet.lr"),
        n_epochs=cfg.get("ivecnet.epochs"),
        batch_size=cfg.get("ivecnet.batch"),
        seed=cfg.seed,
        l1_weight=cfg.get("ivecnet.l1"),
    )
    net, history = ivecnet.train_ivec_net(net, inputs, refs, schedule)
    _log_progress("ivecnet cosine loss", history, 4)
    _write_model(cfg, "ivecnet.svm", net.to_tensors())


def cmd_train_joint(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = gmm.DiagGmm.from_tensors(read_container(cfg.path("ubm.svm")))
    net = statsnet.StatsNet.from_tensors(read_container(cfg.path("statsnet.svm")))
    pca = ivecnet.PcaModel.from_tensors(read_container(cfg.path("pca.svm")))
    ivnet = ivecnet.IvecNet.from_tensors(read_container(cfg.path("ivecnet.svm")))
    front = e2e_mod.FrontendConfig(
        window_s=cfg.get("frontend.window_s"),
        frame_rate_hz=corpus.frame_rate_hz,
        context=cfg.get("frontend.context"),
        n_dct=cfg.get("frontend.n_dct"),
    )
    # discriminative backend initialized on the embedding outputs
    system = e2e_mod.E2eSystem(
        frontend=front,
        stats_net=net,
        ubm=ubm,
        pca=pca,
        ivec_net=ivnet,
        dplda=dplda_mod.DpldaParams(
            np.zeros((ivnet.out_dim, ivnet.out_dim)),
            np.zeros((ivnet.out_dim, ivnet.out_dim)),
            np.zeros(ivnet.out_dim),
            0.0,
        ),
        relevance=cfg.get("ivecnet.relevance"),
    )
    train = corpus.split("train")
    train_coords = e2e_mod.pca_coords(system, [u.features for u in train])
    embeddings = e2e_mod.embed_coords(system, train_coords)
    speakers = np.array([u.speaker for u in train])
    plda_model, _ = plda.train_plda(
        embeddings, speakers, n_iters=cfg.get("plda.iters")
    )
    init = plda.to_dplda(plda_model)
    if cfg.get("joint.init_fullbatch"):
        obj = dplda_mod.ObjectiveConfig(
            p_target=cfg.get("dplda.p_target"),
            l2_weight=cfg.get("dplda.l2"),
        )
        init, _ = dplda_mod.train_dplda_fullbatch(
            init, embeddings, speakers, obj, max_iters=cfg.get("dplda.max_iters")
        )
    system.dplda = init
    system.snapshot = netcore.make_snapshot(
        system.trainable_parameters(), cfg.get("joint.lambda_init")
    )
    schedule = e2e_mod.TrainSchedule(
        n_pairs=cfg.get("joint.pairs"),
        lr=cfg.get("joint.lr"),
        epoch_batches=cfg.get("joint.epoch_batches"),
        max_epochs=cfg.get("joint.epochs"),
        objective=dplda_mod.ObjectiveConfig(p_target=cfg.get("dplda.p_target")),
    )
    rng = np.random.default_rng(cfg.seed)
    system, history = e2e_mod.train_joint_s2i_dplda(
        system, corpus, schedule, rng, train_coords=train_coords
    )
    _write_training_log(cfg.path("train_joint.log"), history)
    _write_model(cfg, "system.svm", system.to_tensors())


def cmd_train_e2e(cfg, args):
    corpus = _load_corpus(cfg)
    system = e2e_mod.E2eSystem.from_tensors(read_container(cfg.path("system.svm")))
    # keep the cascade initialization train-joint froze; reweight its pull
    anchor = system.trainable_parameters() if system.snapshot is None else system.snapshot.values
    system.snapshot = netcore.make_snapshot(anchor, cfg.get("e2e.lambda_init"))
    schedule = e2e_mod.TrainSchedule(
        n_pairs=cfg.get("e2e.pairs"),
        lr=cfg.get("e2e.lr"),
        epoch_batches=cfg.get("e2e.epoch_batches"),
        max_epochs=cfg.get("e2e.epochs"),
        objective=dplda_mod.ObjectiveConfig(p_target=cfg.get("dplda.p_target")),
    )
    rng = np.random.default_rng(cfg.seed)
    system, history = e2e_mod.train_e2e_full(system, corpus, schedule, rng)
    _write_training_log(cfg.path("train_e2e.log"), history)
    _write_model(cfg, "system.svm", system.to_tensors())


def _write_training_log(path, history):
    lines = ["epoch\ttrain_loss\tdev_eer\tdev_c_primary\tlr"]
    lines += [e2e_mod.format_epoch_log(rec) for rec in history]
    write_text(path, "\n".join(lines) + "\n")
    logger.info("wrote %s", path)


def _trials_path(cfg, key, default_name):
    configured = cfg.get(key)
    return Path(configured) if configured else cfg.path(default_name)


def cmd_score(cfg, args):
    corpus = _load_corpus(cfg)
    trials = parse_trial_list(_trials_path(cfg, "score.trials", "trials_dev.txt"))
    backend = cfg.get("score.backend")
    if backend in ("plda", "dplda"):
        vectors = _load_vectors(cfg, corpus)
        try:
            enroll = np.stack([vectors[t.enroll] for t in trials.trials])
            test = np.stack([vectors[t.test] for t in trials.trials])
        except KeyError as exc:
            raise InputError(f"trial references unknown utterance {exc}") from None
        if backend == "plda":
            model = plda.TwoCovPlda.from_tensors(read_container(cfg.path("plda.svm")))
            scores = plda.plda_llr_pairs(model, enroll, test)
        else:
            params = dplda_mod.DpldaParams.from_tensors(
                read_container(cfg.path("dplda.svm"))
            )
            scores = dplda_mod.score_pairs(params, enroll, test)
    elif backend == "e2e":
        system = e2e_mod.E2eSystem.from_tensors(read_container(cfg.path("system.svm")))
        by_id = corpus.by_id()
        uids = sorted({t.enroll for t in trials.trials} | {t.test for t in trials.trials})
        try:
            embeddings = {
                uid: e2e_mod.embed_utterance(system, by_id[uid].features)
                for uid in uids
            }
        except KeyError as exc:
            raise InputError(f"trial references unknown utterance {exc}") from None
        enroll = np.stack([embeddings[t.enroll] for t in trials.trials])
        test = np.stack([embeddings[t.test] for t in trials.trials])
        scores = dplda_mod.score_pairs(system.dplda, enroll, test)
    else:
        raise ConfigError(f"score.backend must be plda, dplda or e2e, not {backend!r}")
    write_scores(cfg.path("scores.txt"), trials, scores)
    logger.info("wrote %s (%d trials)", cfg.path("scores.txt"), len(scores))


def cmd_eval(cfg, args):
    scores_path = cfg.get("eval.scores") or cfg.path("scores.txt")
    trials_path = _trials_path(cfg, "eval.trials", "trials_dev.txt")
    score_list, scores = read_scores(scores_path)
    labeled = parse_trial_list(trials_path)
    labels = {(t.enroll, t.test): t.label for t in labeled.trials if t.label}
    is_target = []
    kept = []
    for trial, score in zip(score_list.trials, scores):
        label = labels.get((trial.enroll, trial.test))
        if label is None:
            continue
        kept.append(score)
        is_target.append(label == "target")
    if not kept:
        raise MetricError("no labeled trials matched the score file")
    trials = metrics.ScoredTrials(np.asarray(kept), np.asarray(is_target))
    report = [
        ("eer", metrics.eer(trials)),
        ("min_dcf@0.01", metrics.min_dcf(trials, 0.01)),
        ("min_dcf@0.005", metrics.min_dcf(trials, 0.005)),
        ("c_primary", metrics.c_primary(trials)),
    ]
    lines = [f"{name}\t{value:.6f}" for name, value in report]
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    write_text(cfg.path("metrics.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)


COMMANDS = {
    "synth-data": (cmd_synth_data, "generate the synthetic corpus and trial lists"),
    "train-ubm": (cmd_train_ubm, "train the diagonal GMM background model"),
    "extract-stats": (cmd_extract_stats, "accumulate background-model statistics"),
    "train-tv": (cmd_train_tv, "train the total-variability extractor"),
    "extract-ivec": (cmd_extract_ivec, "extract i-vectors and fit mean/LDA prep"),
    "train-plda": (cmd_train_plda, "train the generative scoring backend"),
    "train-dplda": (cmd_train_dplda, "train the discriminative backend (full batch)"),
    "train-f2s": (cmd_train_f2s, "train the features-to-statistics network"),
    "fit-pca": (cmd_fit_pca, "fit the supervector PCA"),
    "train-s2i": (cmd_train_s2i, "train the statistics-to-embedding network"),
    "train-joint": (cmd_train_joint, "jointly train embedding net + backend"),
    "train-e2e": (cmd_train_e2e, "train every stage jointly, checkpointed"),
    "score": (cmd_score, "score a trial list with the selected backend"),
    "eval": (cmd_eval, "compute EER and detection costs from a score file"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svpipe", description="speaker-verification pipeline stages"
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workdir", type=Path, help="override paths.workdir")
    parser.add_argument("--threads", type=int, default=1, help="per-utterance parallelism")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        overrides = load_config(args.config) if args.config else {}
        cfg = Config(overrides, seed=args.seed, workdir=args.workdir)
        wall, cpu = time.perf_counter(), time.process_time()
        COMMANDS[args.command][0](cfg, args)
        logger.info(
            "stage %s done: %.2f s wall, %.2f s cpu, peak rss %.1f MB",
            args.command,
            time.perf_counter() - wall,
            time.process_time() - cpu,
            # the process peak so far; Linux reports ru_maxrss in KiB
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    except (FormatError, InputError, ShapeError, StateError, MetricError, ObjectiveError) as exc:
        logger.error("%s", exc)
        return 3
    except (OptimizerError, ModelError, np.linalg.LinAlgError, FloatingPointError) as exc:
        logger.error("numerical failure: %s", exc)
        return 4
    except PipelineError as exc:
        logger.error("%s", exc)
        return 3
    except FileNotFoundError as exc:
        logger.error("missing input file %s", exc.filename)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
