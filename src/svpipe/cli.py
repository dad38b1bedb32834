"""Command-line driver for every pipeline stage.

One subcommand per stage; a flat key=value config file (keys carry section
prefixes, e.g. "ubm.components=64") supplies parameters and all stages share
one working directory, so the classic cascade

    synth-data train-ubm extract-stats train-tv extract-ivec train-plda
    score eval

runs end to end from a single config. A training stage reads its inputs,
calls its recipe function and writes its outputs. Exit codes: 0 ok, 2
usage/config error, 3 data or format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import dplda, e2e, gmm, ivecnet, ivector, metrics, plda, recipe, statsnet
from .corpus import (
    load_corpus,
    make_trials,
    parse_trial_list,
    read_scores,
    save_corpus,
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
from .recipe import DEFAULTS, Config

logger = logging.getLogger("svpipe")


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


def _load_corpus(cfg):
    return load_corpus(cfg.path("corpus"))


def _train_split(cfg):
    """The train utterances and the frame rate; the rest of the corpus is released on return."""
    corpus = _load_corpus(cfg)
    return corpus.split("train"), corpus.frame_rate_hz


def _read(cfg, name, model_type):
    return model_type.from_tensors(read_container(cfg.path(name)))


def _load_stats(cfg, utts):
    tensors = read_container(cfg.path("stats.svm"))
    return [gmm.SuffStats.from_tensors(tensors, f"{u.uid}.") for u in utts]


def _load_vectors(cfg):
    return {uid: np.asarray(v) for uid, v in read_container(cfg.path("ivec.svm")).items()}


def _train_vectors(cfg, corpus):
    """The train utterances' prepped i-vectors, stacked, and their speakers."""
    vectors = _load_vectors(cfg)
    train = corpus.split("train")
    return np.stack([vectors[u.uid] for u in train]), [u.speaker for u in train]


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


# ---------------------------------------------------------------------------
# stages: read the inputs, run the recipe stage, write the outputs

def cmd_synth_data(cfg, args):
    corpus = recipe.synth_corpus(cfg)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, cfg.path("corpus"))
    write_trial_list(cfg.path("trials_dev.txt"), make_trials(corpus, "dev"))
    write_trial_list(cfg.path("trials_eval.txt"), make_trials(corpus, "eval"))
    logger.info(
        "synthesized %d utterances from %d speakers",
        len(corpus.utterances),
        cfg.get("corpus.speakers"),
    )


def cmd_train_ubm(cfg, args):
    frames = recipe.ubm_frames(cfg, *_train_split(cfg))
    model, history = recipe.train_ubm(cfg, frames)
    _log_progress("ubm log-likelihood", history, 2)
    _write_model(cfg, "ubm.svm", model.to_tensors())


def cmd_extract_stats(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    stats = recipe.utterance_stats(
        cfg, ubm, corpus.utterances, corpus.frame_rate_hz, args.threads
    )
    tensors = {}
    for uid, s in stats.items():
        tensors.update(s.to_tensors(f"{uid}."))
    _write_model(cfg, "stats.svm", tensors)


def cmd_train_tv(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    model, history = recipe.train_tv(cfg, ubm, _load_stats(cfg, corpus.split("train")))
    _log_progress("tv evidence", history, 2)
    _write_model(cfg, "tv.svm", model.to_tensors())


def cmd_extract_ivec(cfg, args):
    utts = _load_corpus(cfg).utterances
    stats = dict(zip([u.uid for u in utts], _load_stats(cfg, utts)))
    tv = _read(cfg, "tv.svm", ivector.TvModel)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    prep, vectors = recipe.extract_ivectors(cfg, tv, ubm, utts, stats, args.threads)
    _write_model(cfg, "prep.svm", prep.to_tensors())
    _write_model(cfg, "ivec.svm", vectors)


def cmd_train_plda(cfg, args):
    model, history = recipe.train_plda(cfg, *_train_vectors(cfg, _load_corpus(cfg)))
    _log_progress("plda log-likelihood", history, 2)
    _write_model(cfg, "plda.svm", model.to_tensors())


def cmd_train_dplda(cfg, args):
    init = plda.to_dplda(_read(cfg, "plda.svm", plda.TwoCovPlda))
    params, history = recipe.train_dplda(cfg, init, *_train_vectors(cfg, _load_corpus(cfg)))
    _log_progress("dplda loss", history, 6)
    _write_model(cfg, "dplda.svm", params.to_tensors())


def cmd_train_f2s(cfg, args):
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    frames, targets = recipe.f2s_matrices(cfg, ubm, *_train_split(cfg))
    net, history = recipe.train_stats_net(cfg, frames, targets)
    _log_progress("statsnet cross-entropy", history, 4)
    _write_model(cfg, "statsnet.svm", net.to_tensors())


def cmd_fit_pca(cfg, args):
    corpus = _load_corpus(cfg)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = recipe.fit_pca(cfg, ubm, _load_stats(cfg, corpus.split("train")))
    _write_model(cfg, "pca.svm", pca.to_tensors())


def cmd_train_s2i(cfg, args):
    corpus = _load_corpus(cfg)
    train = corpus.split("train")
    source = cfg.get("ivecnet.stats_source")
    if source == "statsnet":
        net = _read(cfg, "statsnet.svm", statsnet.StatsNet)
        stats = recipe.net_stats(cfg, net, train, corpus.frame_rate_hz)
    elif source == "ubm":
        stats = _load_stats(cfg, train)
    else:
        raise ConfigError(f"ivecnet.stats_source must be statsnet or ubm, not {source!r}")
    refs, _ = _train_vectors(cfg, corpus)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = _read(cfg, "pca.svm", ivecnet.PcaModel)
    net, history = recipe.train_ivec_net(cfg, ubm, pca, stats, refs)
    _log_progress("ivecnet cosine loss", history, 4)
    _write_model(cfg, "ivecnet.svm", net.to_tensors())


def cmd_train_joint(cfg, args):
    corpus = _load_corpus(cfg)
    train = corpus.split("train")
    stats_net = _read(cfg, "statsnet.svm", statsnet.StatsNet)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = _read(cfg, "pca.svm", ivecnet.PcaModel)
    ivec_net = _read(cfg, "ivecnet.svm", ivecnet.IvecNet)
    system, coords, embeddings = recipe.assemble_cascade(
        cfg, stats_net, ubm, pca, ivec_net, train, corpus.frame_rate_hz
    )
    backend = recipe.cascade_backend(cfg, embeddings, [u.speaker for u in train])
    recipe.set_backend(cfg, system, backend)
    system, history = recipe.train_joint(cfg, system, corpus, coords)
    _write_training_log(cfg.path("train_joint.log"), history)
    _write_model(cfg, "system.svm", system.to_tensors())


def cmd_train_e2e(cfg, args):
    corpus = _load_corpus(cfg)
    system = _read(cfg, "system.svm", e2e.E2eSystem)
    system, history = recipe.train_e2e(cfg, system, corpus)
    _write_training_log(cfg.path("train_e2e.log"), history)
    _write_model(cfg, "system.svm", system.to_tensors())


def _write_training_log(path, history):
    lines = ["epoch\ttrain_loss\tdev_eer\tdev_c_primary\tlr"]
    lines += [e2e.format_epoch_log(rec) for rec in history]
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
        vectors = _load_vectors(cfg)
        try:
            enroll = np.stack([vectors[t.enroll] for t in trials.trials])
            test = np.stack([vectors[t.test] for t in trials.trials])
        except KeyError as exc:
            raise InputError(f"trial references unknown utterance {exc}") from None
        if backend == "plda":
            model = _read(cfg, "plda.svm", plda.TwoCovPlda)
            scores = plda.plda_llr_pairs(model, enroll, test)
        else:
            params = _read(cfg, "dplda.svm", dplda.DpldaParams)
            scores = dplda.score_pairs(params, enroll, test)
    elif backend == "e2e":
        system = _read(cfg, "system.svm", e2e.E2eSystem)
        by_id = corpus.by_id()
        uids = sorted({t.enroll for t in trials.trials} | {t.test for t in trials.trials})
        try:
            embeddings = {
                uid: e2e.embed_utterance(system, by_id[uid].features)
                for uid in uids
            }
        except KeyError as exc:
            raise InputError(f"trial references unknown utterance {exc}") from None
        enroll = np.stack([embeddings[t.enroll] for t in trials.trials])
        test = np.stack([embeddings[t.test] for t in trials.trials])
        scores = dplda.score_pairs(system.dplda, enroll, test)
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
