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
from collections import namedtuple
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from . import dplda, e2e, gmm, ivecnet, ivector, metrics, plda, recipe, statsnet
from .corpus import (
    load_corpus,
    make_trials,
    parse_trial_list,
    read_scores,
    save_corpus,
    synth_utterances,
    write_scores,
    write_trial_list,
)
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    MetricError,
    ModelError,
    OptimizerError,
    PipelineError,
    ShapeError,
)
from .fileio import (
    from_tensors,
    read_container,
    read_text,
    to_tensors,
    write_container,
    write_text,
)
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
    """The train utterances and the frame rate; no dev or eval feature file is read."""
    corpus = _load_corpus(cfg)
    return corpus.require("train"), corpus.frame_rate_hz


def _read(cfg, name, model_type):
    path = cfg.path(name)
    try:
        return from_tensors(model_type, read_container(path))
    except ShapeError as exc:  # a model of the wrong kind or shape names its file
        raise FormatError(f"{path}: {exc}") from None


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


# The per-utterance tables: a tensor <uid><suffix> of the column's rank per
# utterance and column, utterance by utterance in corpus order.
Table = namedtuple("Table", ["name", "noun", "columns"])
STATS = Table("stats.svm", "statistics", {".n": 1, ".f": 2})  # n (C,), f (C, D)
IVECS = Table("ivec.svm", "i-vectors", {"": 1})


def _write_table(cfg, table, utts, *columns):
    """Write row i of each column array as the tensors of utts[i]."""
    tensors = {u.uid + s: r for u, *rs in zip(utts, *columns) for s, r in zip(table.columns, rs)}
    _write_model(cfg, table.name, tensors)


def _read_table(cfg, table, uids, tensors=None):
    """uids' rows of each column, stacked; tensors is the table's file if already read."""
    tensors = read_container(cfg.path(table.name)) if tensors is None else tensors
    columns = []
    for suffix, rank in table.columns.items():
        rows = [tensors[uid + suffix] for uid in uids]
        if len({np.shape(row) for row in rows}) > 1:
            raise FormatError(f"{tensors.path}: {table.noun} differ in shape between utterances")
        if np.ndim(rows[0]) != rank:
            raise FormatError(f"{tensors.path}: {table.noun} <uid>{suffix} are not of rank {rank}")
        columns.append(np.stack(rows))
        if not np.isfinite(columns[-1]).all():
            raise FormatError(f"{tensors.path}: non-finite {table.noun}")
    return columns


def _train_vectors(cfg, corpus):
    """The train utterances' prepped i-vectors, stacked, and their speakers."""
    train = corpus.require("train")
    return _read_table(cfg, IVECS, [u.uid for u in train])[0], [u.speaker for u in train]


# ---------------------------------------------------------------------------
# stages: read the inputs, run the recipe stage, write the outputs

def cmd_synth_data(cfg):
    # each utterance's file is written as it is generated; the trial lists
    # need only the index
    synth = recipe.synth_config(cfg)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    corpus = save_corpus(synth_utterances(synth), cfg.path("corpus"), synth.frame_rate_hz)
    write_trial_list(cfg.path("trials_dev.txt"), make_trials(corpus, "dev"))
    write_trial_list(cfg.path("trials_eval.txt"), make_trials(corpus, "eval"))
    logger.info(
        "synthesized %d utterances from %d speakers",
        len(corpus.utterances),
        cfg.get("corpus.speakers"),
    )


def cmd_train_ubm(cfg):
    frames = recipe.ubm_frames(cfg, *_train_split(cfg))
    model, history = recipe.train_ubm(cfg, frames)
    _log_progress("ubm log-likelihood", history, 2)
    _write_model(cfg, "ubm.svm", to_tensors(model))


def cmd_extract_stats(cfg):
    corpus = _load_corpus(cfg)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    n, f = recipe.utterance_stats(cfg, ubm, corpus.utterances, corpus.frame_rate_hz)
    _write_table(cfg, STATS, corpus.utterances, n, f)


def cmd_train_tv(cfg):
    train = _load_corpus(cfg).require("train")
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    model, history = recipe.train_tv(cfg, ubm, *_read_table(cfg, STATS, [u.uid for u in train]))
    _log_progress("tv evidence", history, 2)
    _write_model(cfg, "tv.svm", to_tensors(model))


def cmd_extract_ivec(cfg):
    corpus = _load_corpus(cfg)
    corpus.require("train")  # the prep is fitted on the train split
    utts = corpus.utterances
    n, f = _read_table(cfg, STATS, [u.uid for u in utts])
    tv = _read(cfg, "tv.svm", ivector.TvModel)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    prep, vectors = recipe.extract_ivectors(cfg, tv, ubm, utts, n, f)
    _write_model(cfg, "prep.svm", to_tensors(prep))
    _write_table(cfg, IVECS, utts, vectors)


def cmd_train_plda(cfg):
    model, history = recipe.train_plda(cfg, *_train_vectors(cfg, _load_corpus(cfg)))
    _log_progress("plda log-likelihood", history, 2)
    _write_model(cfg, "plda.svm", to_tensors(model))


def cmd_train_dplda(cfg):
    init = plda.to_dplda(_read(cfg, "plda.svm", plda.TwoCovPlda))
    params, history = recipe.train_dplda(cfg, init, *_train_vectors(cfg, _load_corpus(cfg)))
    _log_progress("dplda loss", history, 6)
    _write_model(cfg, "dplda.svm", to_tensors(params))


def cmd_train_f2s(cfg):
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    frames, targets = recipe.f2s_matrices(cfg, ubm, *_train_split(cfg))
    net, history = recipe.train_stats_net(cfg, frames, targets)
    _log_progress("statsnet cross-entropy", history, 4)
    _write_model(cfg, "statsnet.svm", to_tensors(net))


def cmd_fit_pca(cfg):
    train = _load_corpus(cfg).require("train")
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = recipe.fit_pca(cfg, ubm, *_read_table(cfg, STATS, [u.uid for u in train]))
    _write_model(cfg, "pca.svm", to_tensors(pca))


def cmd_train_s2i(cfg):
    corpus = _load_corpus(cfg)
    train = corpus.require("train")
    refs, _ = _train_vectors(cfg, corpus)
    if cfg.get("ivecnet.stats_source") == "statsnet":
        net = _read(cfg, "statsnet.svm", statsnet.StatsNet)
        n, f = recipe.net_stats(cfg, net, train, corpus.frame_rate_hz)
    else:
        n, f = _read_table(cfg, STATS, [u.uid for u in train])
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = _read(cfg, "pca.svm", ivecnet.PcaModel)
    net, history = recipe.train_ivec_net(cfg, ubm, pca, n, f, refs)
    _log_progress("ivecnet cosine loss", history, 4)
    _write_model(cfg, "ivecnet.svm", to_tensors(net))


def cmd_train_joint(cfg):
    corpus = _load_corpus(cfg)
    train = corpus.require("train")
    stats_net = _read(cfg, "statsnet.svm", statsnet.StatsNet)
    ubm = _read(cfg, "ubm.svm", gmm.DiagGmm)
    pca = _read(cfg, "pca.svm", ivecnet.PcaModel)
    ivec_net = _read(cfg, "ivecnet.svm", ivecnet.IvecNet)
    system, coords, embeddings = recipe.assemble_cascade(
        cfg, stats_net, ubm, pca, ivec_net, train, corpus.frame_rate_hz
    )
    backend = recipe.cascade_backend(cfg, embeddings, [u.speaker for u in train])
    system, history = recipe.train_joint(cfg, system, corpus, coords, backend)
    _write_training_log(cfg.path("train_joint.log"), history)
    _write_model(cfg, "system.svm", to_tensors(system))


def cmd_train_e2e(cfg):
    corpus = _load_corpus(cfg)
    system = _read(cfg, "system.svm", e2e.E2eSystem)
    system, history = recipe.train_e2e(cfg, system, corpus)
    _write_training_log(cfg.path("train_e2e.log"), history)
    _write_model(cfg, "system.svm", to_tensors(system))


def _write_training_log(path, history):
    lines = [e2e.EPOCH_LOG_HEADER, *map(e2e.format_epoch_log, history)]
    write_text(path, "\n".join(lines) + "\n")
    logger.info("wrote %s", path)


def _configured_path(cfg, key, default_name):
    configured = cfg.get(key)
    return Path(configured) if configured else cfg.path(default_name)


def _trial_pairs(trials, uids, vectors):
    """The enroll and test rows of every trial; row i of vectors belongs to uids[i]."""
    row = dict(zip(uids, range(len(uids))))
    enroll, test = [
        np.fromiter(map(row.__getitem__, column), dtype=np.intp, count=len(trials))
        for column in (trials.enroll, trials.test)
    ]
    return vectors[enroll], vectors[test]


def cmd_score(cfg):
    backend = cfg.get("score.backend")
    corpus = _load_corpus(cfg)
    trials_path = _configured_path(cfg, "score.trials", "trials_dev.txt")
    trials = parse_trial_list(trials_path)
    if not trials.enroll:
        raise InputError(f"{trials_path}: no trials to score")
    uids = sorted(set(trials.enroll).union(trials.test))
    # e2e embeds the utterances' features, plda and dplda score their i-vectors
    known = corpus.by_id() if backend == "e2e" else read_container(cfg.path(IVECS.name))
    unknown = next((uid for uid in uids if uid not in known), None)
    if unknown is not None:
        raise InputError(f"trial references unknown utterance {unknown!r}")
    if backend == "e2e":
        system = _read(cfg, "system.svm", e2e.E2eSystem)
        model = system.dplda
        vectors = np.stack([e2e.embed_utterance(system, known[uid].features) for uid in uids])
    else:
        (vectors,) = _read_table(cfg, IVECS, uids, known)
        kind = plda.TwoCovPlda if backend == "plda" else dplda.DpldaParams
        model = _read(cfg, f"{backend}.svm", kind)
    score_pairs = plda.plda_llr_pairs if backend == "plda" else dplda.score_pairs
    scores = score_pairs(model, *_trial_pairs(trials, uids, vectors))
    write_scores(cfg.path("scores.txt"), trials, scores)
    logger.info("wrote %s (%d trials)", cfg.path("scores.txt"), len(scores))


def cmd_eval(cfg):
    scores_path = _configured_path(cfg, "eval.scores", "scores.txt")
    trials_path = _configured_path(cfg, "eval.trials", "trials_dev.txt")
    score_list, scores = read_scores(scores_path)
    labeled = parse_trial_list(trials_path)
    # a repeated pair takes its last label; an unlabeled line never matches
    codes = map({"target": 1, "nontarget": 0}.get, labeled.labels)
    labels = dict(compress(zip(zip(labeled.enroll, labeled.test), codes), labeled.labels))
    found = np.fromiter(
        map(labels.get, zip(score_list.enroll, score_list.test), repeat(-1)),
        dtype=np.int8,
        count=len(scores),
    )
    kept = found >= 0
    if not kept.any():
        raise MetricError("no labeled trials matched the score file")
    trials = metrics.ScoredTrials(scores[kept], found[kept] == 1)
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


# Every stage in chain order: its function, its help text, the work-directory
# files it may read under any configuration (the corpus directory counts as
# corpus/corpus.tsv) and writes. A file's producer is the first that writes it.
Stage = namedtuple("Stage", ["run", "help", "reads", "writes"])
CORPUS = "corpus/corpus.tsv"
STAGES = {
    "synth-data": Stage(cmd_synth_data, "generate the synthetic corpus and trial lists",
                        (), (CORPUS, "trials_dev.txt", "trials_eval.txt")),
    "train-ubm": Stage(cmd_train_ubm, "train the diagonal GMM background model",
                       (CORPUS,), ("ubm.svm",)),
    "extract-stats": Stage(cmd_extract_stats, "accumulate background-model statistics",
                           (CORPUS, "ubm.svm"), ("stats.svm",)),
    "train-tv": Stage(cmd_train_tv, "train the total-variability extractor",
                      (CORPUS, "ubm.svm", "stats.svm"), ("tv.svm",)),
    "extract-ivec": Stage(cmd_extract_ivec, "extract i-vectors and fit mean/LDA prep",
                          (CORPUS, "stats.svm", "tv.svm", "ubm.svm"), ("prep.svm", "ivec.svm")),
    "train-plda": Stage(cmd_train_plda, "train the generative scoring backend",
                        (CORPUS, "ivec.svm"), ("plda.svm",)),
    "train-dplda": Stage(cmd_train_dplda, "train the discriminative backend (full batch)",
                         (CORPUS, "ivec.svm", "plda.svm"), ("dplda.svm",)),
    "train-f2s": Stage(cmd_train_f2s, "train the features-to-statistics network",
                       (CORPUS, "ubm.svm"), ("statsnet.svm",)),
    "fit-pca": Stage(cmd_fit_pca, "fit the supervector PCA",
                     (CORPUS, "ubm.svm", "stats.svm"), ("pca.svm",)),
    "train-s2i": Stage(cmd_train_s2i, "train the statistics-to-embedding network",
                       (CORPUS, "statsnet.svm", "stats.svm", "ivec.svm", "ubm.svm", "pca.svm"),
                       ("ivecnet.svm",)),
    "train-joint": Stage(cmd_train_joint, "jointly train embedding net + backend",
                         (CORPUS, "statsnet.svm", "ubm.svm", "pca.svm", "ivecnet.svm"),
                         ("train_joint.log", "system.svm")),
    "train-e2e": Stage(cmd_train_e2e, "train every stage jointly, checkpointed",
                       (CORPUS, "system.svm"), ("train_e2e.log", "system.svm")),
    "score": Stage(cmd_score, "score a trial list with the selected backend",
                   (CORPUS, "trials_dev.txt", "ivec.svm", "plda.svm", "dplda.svm", "system.svm"),
                   ("scores.txt",)),
    "eval": Stage(cmd_eval, "compute EER and detection costs from a score file",
                  ("scores.txt", "trials_dev.txt"), ("metrics.txt",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svpipe", description="speaker-verification pipeline stages"
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workdir", type=Path, help="override paths.workdir")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        sub.add_parser(name, help=stage.help)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    cfg = None
    try:
        overrides = load_config(args.config) if args.config else {}
        cfg = Config(overrides, seed=args.seed, workdir=args.workdir)
        wall, cpu = time.perf_counter(), time.process_time()
        STAGES[args.command].run(cfg)
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
    except (OptimizerError, ModelError, np.linalg.LinAlgError, FloatingPointError) as exc:
        logger.error("numerical failure: %s", exc)
        return 4
    except PipelineError as exc:
        logger.error("%s", exc)
        return 3
    except FileNotFoundError as exc:
        path = Path(str(exc.filename))
        producers = [n for n, s in STAGES.items() if cfg and path in map(cfg.path, s.writes)]
        written_by = f" (written by {producers[0]})" if producers else ""
        logger.error("missing input file %s%s", exc.filename, written_by)
        return 3
    except OSError as exc:  # e.g. a workdir that is a file, a model path that is a directory
        where = f"{exc.filename}: " if exc.filename else ""
        logger.error("%s%s", where, exc.strerror or exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
