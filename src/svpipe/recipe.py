"""The training recipe: one table of defaults and one function per stage.

Each stage function takes a Config plus arrays and models and returns models
and histories; none reads or writes a file. Library functions are called
through their modules (gmm.train_ubm, never a from-import), so code that
rebinds a module attribute, such as a tracer, sees every call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import dplda, e2e, frontend, gmm, ivecnet, ivector, netcore, plda, statsnet
from .errors import ConfigError, InputError, ShapeError


def _parse_bool(value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _parse_ints(value):
    return tuple(int(v) for v in value.split(",") if v.strip())


def _int_at_least(low):
    def parse(value):
        n = int(value)
        if n < low:
            raise ValueError(f"must be >= {low}")
        return n

    return parse


_count = _int_at_least(0)  # iterations or epochs; zero trains nothing
_size = _int_at_least(1)  # dimensions, components, batch sizes, batch counts


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
    "corpus.noise": ("1.5", float),
    "corpus.nonlinearity": ("1.0", float),
    "corpus.frame_rate": ("100", float),
    # frontend
    "frontend.window_s": ("3.0", float),
    "frontend.context": ("15", int),
    "frontend.n_dct": ("6", int),
    # background model / i-vectors / preprocessing
    "ubm.components": ("32", _size),
    "ubm.iters": ("8", _count),
    "ubm.floor": ("1e-3", float),
    "tv.dim": ("40", _size),
    "tv.iters": ("5", _count),
    "prep.dim": ("20", _size),
    "plda.iters": ("10", _count),
    # discriminative backend
    "dplda.l2": ("1e-3", float),
    "dplda.p_target": ("0.0075", float),
    "dplda.max_iters": ("200", _count),
    # neural modules
    "statsnet.hidden": ("128,128", _parse_ints),
    "statsnet.lr": ("0.5", float),
    "statsnet.epochs": ("24", _count),
    "statsnet.batch": ("512", _size),
    "pca.dim": ("100", _size),
    "ivecnet.hidden": ("64,64", _parse_ints),
    "ivecnet.lr": ("0.1", float),
    "ivecnet.l1": ("1e-5", float),
    "ivecnet.epochs": ("120", _count),
    "ivecnet.batch": ("32", _size),
    "ivecnet.stats_source": ("statsnet", str),
    "ivecnet.relevance": ("16", float),
    # joint and end-to-end training
    "joint.pairs": ("50", _size),
    "joint.epoch_batches": ("20", _size),
    "joint.epochs": ("8", _count),
    "joint.lr": ("1e-4", float),
    "joint.lambda_init": ("1e-2", float),
    "joint.init_fullbatch": ("true", _parse_bool),
    "e2e.pairs": ("8", _size),
    "e2e.epoch_batches": ("10", _size),
    "e2e.epochs": ("2", _count),
    "e2e.lr": ("1e-4", float),
    "e2e.lambda_init": ("1e-2", float),
    # scoring / evaluation
    "score.backend": ("plda", str),
    "score.trials": ("", str),
    "eval.scores": ("", str),
    "eval.trials": ("", str),
}

# the paper-scale value of every key whose desk-scale default differs
PAPER = {
    "ubm.components": "2048",
    "tv.dim": "600",
    "prep.dim": "250",
    "statsnet.hidden": "1500,1500,1500,1500",
    "pca.dim": "4000",
    "ivecnet.hidden": "600,600",
    "joint.pairs": "5000",
    "joint.epoch_batches": "250",
    "e2e.pairs": "75",
    "e2e.epoch_batches": "250",
}


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
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {value!r} ({exc})") from None

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


def _map_over(items, fn, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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


def _normalized(cfg, features, frame_rate):
    return frontend.stmvn(features, cfg.get("frontend.window_s"), frame_rate)


def _expanded(cfg, norm):
    return frontend.context_expand(norm, cfg.get("frontend.context"), cfg.get("frontend.n_dct"))


# ---------------------------------------------------------------------------
# stages

def synth_corpus(cfg):
    return corpus_mod.synth_corpus(
        corpus_mod.SynthConfig(
            n_speakers=cfg.get("corpus.speakers"),
            utts_per_speaker=cfg.get("corpus.utts"),
            min_frames=cfg.get("corpus.min_frames"),
            max_frames=cfg.get("corpus.max_frames"),
            dim=cfg.get("corpus.dim"),
            speaker_dim=cfg.get("corpus.speaker_dim"),
            channel_dim=cfg.get("corpus.channel_dim"),
            noise_scale=cfg.get("corpus.noise"),
            nonlinearity=cfg.get("corpus.nonlinearity"),
            seed=cfg.seed,
            frame_rate_hz=cfg.get("corpus.frame_rate"),
        )
    )


def ubm_frames(cfg, utts, frame_rate):
    """The normalized frames of utts, stacked into one matrix."""
    (frames,) = _stacked_rows(utts, lambda u: [_normalized(cfg, u.features, frame_rate)])
    return frames


def train_ubm(cfg, frames):
    return gmm.train_ubm(
        frames,
        cfg.get("ubm.components"),
        n_iters=cfg.get("ubm.iters"),
        floor_frac=cfg.get("ubm.floor"),
        seed=cfg.seed,
    )


def utterance_stats(cfg, ubm, utts, frame_rate, threads=1):
    """Background-model statistics of every utterance, by uid, in utts order."""

    def one(utt):
        norm = _normalized(cfg, utt.features, frame_rate)
        return gmm.sufficient_stats(gmm.responsibilities(ubm, norm), norm)

    return dict(zip([u.uid for u in utts], _map_over(utts, one, threads)))


def train_tv(cfg, ubm, stats_list):
    return ivector.train_tv(
        stats_list, ubm, cfg.get("tv.dim"), n_iters=cfg.get("tv.iters"), seed=cfg.seed
    )


def extract_ivectors(cfg, tv, ubm, utts, stats, threads=1):
    """The prep fitted on the train utterances and every prepped i-vector, by uid."""
    raw = _map_over(utts, lambda u: ivector.extract_ivector(tv, ubm, stats[u.uid]), threads)
    train = [(w, u.speaker) for u, w in zip(utts, raw) if u.split == "train"]
    prep = ivector.fit_prep(
        np.stack([w for w, _ in train]), [s for _, s in train], cfg.get("prep.dim")
    )
    return prep, {u.uid: ivector.prep_apply(prep, w) for u, w in zip(utts, raw)}


def train_plda(cfg, vectors, speakers):
    return plda.train_plda(vectors, speakers, n_iters=cfg.get("plda.iters"))


def train_dplda(cfg, init, vectors, speakers):
    """Full-batch DPLDA from init on all trials among the vectors."""
    objective = dplda.ObjectiveConfig(
        p_target=cfg.get("dplda.p_target"), l2_weight=cfg.get("dplda.l2")
    )
    return dplda.train_dplda_fullbatch(
        init, vectors, np.asarray(speakers), objective, max_iters=cfg.get("dplda.max_iters")
    )


def f2s_matrices(cfg, ubm, utts, frame_rate):
    """The stacked context-expanded frames of utts and their UBM posterior targets."""

    def blocks(utt):
        norm = _normalized(cfg, utt.features, frame_rate)
        return [_expanded(cfg, norm), gmm.responsibilities(ubm, norm)]

    return _stacked_rows(utts, blocks)


def _sgd_schedule(cfg, section, l1_weight):
    return netcore.SgdSchedule(
        lr=cfg.get(f"{section}.lr"),
        n_epochs=cfg.get(f"{section}.epochs"),
        batch_size=cfg.get(f"{section}.batch"),
        seed=cfg.seed,
        l1_weight=l1_weight,
    )


def train_stats_net(cfg, frames, targets):
    net = statsnet.make_stats_net(
        frames.shape[1], targets.shape[1], cfg.get("statsnet.hidden"), seed=cfg.seed
    )
    return statsnet.train_stats_net(net, frames, targets, _sgd_schedule(cfg, "statsnet", 0.0))


def fit_pca(cfg, ubm, stats_list):
    supervectors = ivecnet.map_supervectors(ubm, stats_list, cfg.get("ivecnet.relevance"))
    return ivecnet.fit_pca(supervectors, cfg.get("pca.dim"))


def net_stats(cfg, stats_net, utts, frame_rate):
    """Statistics of utts pooled from the statistics network's posteriors."""
    out = []
    for utt in utts:
        norm = _normalized(cfg, utt.features, frame_rate)
        out.append(statsnet.pooled_stats(stats_net, _expanded(cfg, norm), norm))
    return out


def train_ivec_net(cfg, ubm, pca, stats_list, refs):
    """The embedding net trained to map stats_list to the reference vectors refs."""
    supervectors = ivecnet.map_supervectors(ubm, stats_list, cfg.get("ivecnet.relevance"))
    inputs = ivecnet.pca_project(pca, supervectors)
    net = ivecnet.make_ivec_net(
        inputs.shape[1], refs.shape[1], cfg.get("ivecnet.hidden"), seed=cfg.seed
    )
    schedule = _sgd_schedule(cfg, "ivecnet", cfg.get("ivecnet.l1"))
    return ivecnet.train_ivec_net(net, inputs, refs, schedule)


def assemble_cascade(cfg, stats_net, ubm, pca, ivec_net, utts, frame_rate):
    """The mimic-trained stages as one system, and utts' PCA coordinates and embeddings.

    The system's backend stays all zeros until set_backend installs one.
    """
    dim = ivec_net.out_dim
    zeros = dplda.DpldaParams(np.zeros((dim, dim)), np.zeros((dim, dim)), np.zeros(dim), 0.0)
    front = e2e.FrontendConfig(
        window_s=cfg.get("frontend.window_s"),
        frame_rate_hz=frame_rate,
        context=cfg.get("frontend.context"),
        n_dct=cfg.get("frontend.n_dct"),
    )
    system = e2e.assemble_system(
        front, stats_net, ubm, pca, ivec_net, zeros, relevance=cfg.get("ivecnet.relevance")
    )
    coords = e2e.pca_coords(system, [u.features for u in utts])
    return system, coords, e2e.embed_coords(system, coords)


def cascade_backend(cfg, embeddings, speakers):
    """PLDA on the embeddings as a quadratic backend, refined full-batch if configured."""
    model, _ = train_plda(cfg, embeddings, speakers)
    init = plda.to_dplda(model)
    if cfg.get("joint.init_fullbatch"):
        init, _ = train_dplda(cfg, init, embeddings, speakers)
    return init


def set_backend(cfg, system, params):
    """Install the backend and freeze the snapshot joint training pulls toward."""
    system.dplda = params.copy()
    system.snapshot = netcore.make_snapshot(
        system.trainable_parameters(), cfg.get("joint.lambda_init")
    )


def train_schedule(cfg, section):
    """The Adam schedule of the joint or e2e section."""
    return e2e.TrainSchedule(
        n_pairs=cfg.get(f"{section}.pairs"),
        lr=cfg.get(f"{section}.lr"),
        epoch_batches=cfg.get(f"{section}.epoch_batches"),
        max_epochs=cfg.get(f"{section}.epochs"),
        objective=dplda.ObjectiveConfig(p_target=cfg.get("dplda.p_target")),
    )


def train_joint(cfg, system, corpus, train_coords):
    """Joint training of the embedding net and backend; train_coords from assemble_cascade."""
    rng = np.random.default_rng(cfg.seed)
    schedule = train_schedule(cfg, "joint")
    return e2e.train_joint_s2i_dplda(system, corpus, schedule, rng, train_coords=train_coords)


def train_e2e(cfg, system, corpus):
    # keep the cascade initialization train-joint froze; reweight its pull
    anchor = system.trainable_parameters() if system.snapshot is None else system.snapshot.values
    system.snapshot = netcore.make_snapshot(anchor, cfg.get("e2e.lambda_init"))
    rng = np.random.default_rng(cfg.seed)
    return e2e.train_e2e_full(system, corpus, train_schedule(cfg, "e2e"), rng)
