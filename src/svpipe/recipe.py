"""The training recipe: one table of defaults and one function per stage.

Each stage function takes a Config plus arrays and models and returns models
and histories; none reads or writes a file. Library functions are called
through their modules (gmm.train_ubm, never a from-import), so code that
rebinds a module attribute, such as a tracer, sees every call.
"""

from __future__ import annotations

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


def _one_of(*choices):
    def parse(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return parse


def _non_negative(value):
    x = float(value)
    if not 0 <= x < np.inf:  # NaN fails too
        raise ValueError("must be >= 0 and finite")
    return x


def _positive(value):
    x = float(value)
    if not 0 < x < np.inf:  # NaN fails too
        raise ValueError("must be positive and finite")
    return x


def _float_in(low, high, closed):
    def parse(value):
        x = float(value)
        if not (low <= x <= high if closed else low < x < high):  # NaN fails too
            ends = "[]" if closed else "()"
            raise ValueError(f"must lie in {ends[0]}{low}, {high}{ends[1]}")
        return x

    return parse


_count = _int_at_least(0)  # the seed, iterations, epochs, context width; zero epochs train nothing
_size = _int_at_least(1)  # dimensions, components, batch sizes, batch counts


# key -> (default value, parser); every value is parsed when a Config is built
DEFAULTS = {
    "seed": ("0", _count),
    "paths.workdir": ("work", str),
    # synthetic corpus (desk scale)
    "corpus.speakers": ("50", _size),
    "corpus.utts": ("8", _size),
    "corpus.dim": ("20", _size),
    "corpus.min_frames": ("200", _size),
    "corpus.max_frames": ("800", _size),
    "corpus.speaker_dim": ("8", _count),
    "corpus.channel_dim": ("4", _count),
    "corpus.noise": ("1.5", _non_negative),
    "corpus.nonlinearity": ("1.0", _float_in(0, 1, closed=True)),
    "corpus.frame_rate": ("100", _positive),
    # frontend
    "frontend.window_s": ("3.0", _positive),
    "frontend.context": ("15", _count),
    "frontend.n_dct": ("6", _size),
    # background model / i-vectors / preprocessing
    "ubm.components": ("32", _size),
    "ubm.iters": ("8", _count),
    "ubm.floor": ("1e-3", _non_negative),
    "tv.dim": ("40", _size),
    "tv.iters": ("5", _count),
    "prep.dim": ("20", _size),
    "plda.iters": ("10", _count),
    # discriminative backend
    "dplda.l2": ("1e-3", _non_negative),
    # midpoint of the 0.01 / 0.005 operating points
    "dplda.p_target": ("0.0075", _float_in(0, 1, closed=False)),
    "dplda.max_iters": ("200", _count),
    # neural modules
    "statsnet.hidden": ("128,128", _parse_ints),
    "statsnet.lr": ("0.5", _positive),
    "statsnet.epochs": ("24", _count),
    "statsnet.batch": ("512", _size),
    "pca.dim": ("100", _size),
    "ivecnet.hidden": ("64,64", _parse_ints),
    "ivecnet.lr": ("0.1", _positive),
    "ivecnet.l1": ("1e-5", _non_negative),
    "ivecnet.epochs": ("120", _count),
    "ivecnet.batch": ("32", _size),
    "ivecnet.stats_source": ("statsnet", _one_of("statsnet", "ubm")),
    "ivecnet.relevance": ("16", _positive),
    # joint and end-to-end training
    "joint.pairs": ("50", _size),
    "joint.epoch_batches": ("20", _size),
    "joint.epochs": ("8", _count),
    "joint.lr": ("1e-4", _non_negative),
    "joint.lambda_init": ("1e-2", _non_negative),
    "joint.init_fullbatch": ("true", _parse_bool),
    "e2e.pairs": ("8", _size),
    "e2e.epoch_batches": ("10", _size),
    "e2e.epochs": ("2", _count),
    "e2e.lr": ("1e-4", _non_negative),
    "e2e.lambda_init": ("1e-2", _non_negative),
    # scoring / evaluation
    "score.backend": ("plda", _one_of("plda", "dplda", "e2e")),
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
        n_dct, window = self.values["frontend.n_dct"], 2 * self.values["frontend.context"] + 1
        if n_dct > window:
            raise ConfigError(f"frontend.n_dct={n_dct} exceeds 2*frontend.context+1={window}")
        prep_dim, tv_dim = self.values["prep.dim"], self.values["tv.dim"]
        if prep_dim > tv_dim:
            raise ConfigError(f"prep.dim={prep_dim} exceeds tv.dim={tv_dim}")
        low, high = self.values["corpus.min_frames"], self.values["corpus.max_frames"]
        if low > high:
            raise ConfigError(f"corpus.min_frames={low} exceeds corpus.max_frames={high}")

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


def _stacked_rows(utts, blocks_of, pads):
    """Stack per-utterance row blocks into preallocated matrices.

    blocks_of(utt) returns that utterance's matrices, one per output, each
    with one row per frame; output k holds each block edge-padded by pads[k]
    copies of its first and last rows. Blocks are copied into their row
    slice as each utterance is processed, so the stacked matrices are the
    only full-size copies: no per-utterance list is kept and nothing is
    stacked twice. The row counts come from Utterance.n_frames, so no
    feature file is read before its utterance's turn.
    """
    if not utts:
        raise InputError("no training utterances")
    lengths = [u.n_frames for u in utts]
    out = None
    done = 0
    for i, (utt, n) in enumerate(zip(utts, lengths)):
        blocks = blocks_of(utt)
        if out is None:
            out = [
                np.empty((sum(lengths) + 2 * pad * len(utts), block.shape[1]))
                for block, pad in zip(blocks, pads)
            ]
        for dest, block, pad in zip(out, blocks, pads):
            if block.shape != (n, dest.shape[1]):
                raise ShapeError(
                    f"utterance {utt.uid}: block of shape {block.shape}, "
                    f"expected {(n, dest.shape[1])}"
                )
            lo = done + 2 * pad * i
            dest[lo : lo + pad] = block[0]
            dest[lo + pad : lo + pad + n] = block
            dest[lo + pad + n : lo + 2 * pad + n] = block[-1]
        done += n
    return out


def _stacked_stats(cfg, utts, frame_rate, n_components, stats_of):
    """stats_of(normalized features) of each utterance, stacked: n (M, C), f (M, C, D).

    Both matrices are allocated at the first utterance, once its dimension
    is known, and filled row by row. Stacking a per-utterance list after the
    loop instead fragments the heap of a long-lived process (measured: +9 MB
    peak RSS per in-process classic pass).
    """
    if not utts:
        raise InputError("no statistics")
    for i, utt in enumerate(utts):
        n_i, f_i = stats_of(_normalized(cfg, utt.features, frame_rate))
        if i == 0:
            n = np.empty((len(utts), n_components))
            f = np.empty((len(utts), n_components, f_i.shape[-1]))
        n[i], f[i] = n_i, f_i
    return n, f


def _normalized(cfg, features, frame_rate):
    return frontend.stmvn(features, cfg.get("frontend.window_s"), frame_rate)


# ---------------------------------------------------------------------------
# stages

def synth_config(cfg):
    """The corpus.* keys as the synthetic corpus generator's config."""
    return corpus_mod.SynthConfig(
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


def synth_corpus(cfg):
    """The whole synthetic corpus in memory; synth-data writes it one utterance at a time."""
    return corpus_mod.synth_corpus(synth_config(cfg))


def ubm_frames(cfg, utts, frame_rate):
    """The normalized frames of utts, stacked into one matrix."""
    (frames,) = _stacked_rows(utts, lambda u: [_normalized(cfg, u.features, frame_rate)], [0])
    return frames


def train_ubm(cfg, frames):
    return gmm.train_ubm(
        frames,
        cfg.get("ubm.components"),
        n_iters=cfg.get("ubm.iters"),
        floor_frac=cfg.get("ubm.floor"),
        seed=cfg.seed,
    )


def utterance_stats(cfg, ubm, utts, frame_rate):
    """Background-model statistics of utts in their order: n (M, C), f (M, C, D)."""

    def stats_of(norm):
        return gmm.sufficient_stats(gmm.responsibilities(ubm, norm), norm)

    return _stacked_stats(cfg, utts, frame_rate, ubm.n_components, stats_of)


def train_tv(cfg, ubm, n, f):
    return ivector.train_tv(
        n, f, ubm, cfg.get("tv.dim"), n_iters=cfg.get("tv.iters"), seed=cfg.seed
    )


def extract_ivectors(cfg, tv, ubm, utts, n, f):
    """The prep fitted on the train utterances and every prepped i-vector, stacked.

    Row i of the statistics n and f and of the i-vectors belongs to utts[i].
    The i-vectors come from one batched solve of train_tv's E-step posterior.
    """
    raw = ivector.extract_ivectors(tv, ubm, n, f)
    train = [i for i, u in enumerate(utts) if u.split == "train"]
    prep = ivector.fit_prep(raw[train], [utts[i].speaker for i in train], cfg.get("prep.dim"))
    return prep, ivector.prep_apply(prep, raw)


def train_plda(cfg, vectors, speakers):
    return plda.train_plda(vectors, speakers, n_iters=cfg.get("plda.iters"))


def train_dplda(cfg, init, vectors, speakers):
    """Full-batch DPLDA from init on all trials among the vectors."""
    p_target, l2 = cfg.get("dplda.p_target"), cfg.get("dplda.l2")
    return dplda.train_dplda_fullbatch(
        init, vectors, np.asarray(speakers), p_target, l2, cfg.get("dplda.max_iters")
    )


def f2s_matrices(cfg, ubm, utts, frame_rate):
    """The statistics network's training set: utts' context windows and posterior targets.

    The windows (frontend.ContextWindows) hold each utterance's normalized
    frames once, edge-padded by frontend.context rows, and expand a minibatch
    at a time; the targets are the UBM posteriors of every frame, stacked.
    """
    half_window = cfg.get("frontend.context")
    lengths = []

    def blocks(utt):
        norm = _normalized(cfg, utt.features, frame_rate)
        lengths.append(norm.shape[0])
        return [norm, gmm.responsibilities(ubm, norm)]

    padded, targets = _stacked_rows(utts, blocks, [half_window, 0])
    windows = frontend.ContextWindows(padded, lengths, half_window, cfg.get("frontend.n_dct"))
    return windows, targets


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


def fit_pca(cfg, ubm, n, f):
    supervectors = ivecnet.map_supervectors(ubm, n, f, cfg.get("ivecnet.relevance"))
    return ivecnet.fit_pca(supervectors, cfg.get("pca.dim"))


def net_stats(cfg, stats_net, utts, frame_rate):
    """Statistics of utts pooled from the statistics network's posteriors, stacked."""

    def stats_of(norm):
        expanded = frontend.context_expand(
            norm, cfg.get("frontend.context"), cfg.get("frontend.n_dct")
        )
        return statsnet.pooled_stats(stats_net, expanded, norm)

    return _stacked_stats(cfg, utts, frame_rate, stats_net.n_out, stats_of)


def train_ivec_net(cfg, ubm, pca, n, f, refs):
    """The embedding net trained to map the statistics n, f to the reference vectors refs."""
    supervectors = ivecnet.map_supervectors(ubm, n, f, cfg.get("ivecnet.relevance"))
    inputs = ivecnet.pca_project(pca, supervectors)
    net = ivecnet.make_ivec_net(
        inputs.shape[1], refs.shape[1], cfg.get("ivecnet.hidden"), seed=cfg.seed
    )
    schedule = _sgd_schedule(cfg, "ivecnet", cfg.get("ivecnet.l1"))
    return ivecnet.train_ivec_net(net, inputs, refs, schedule)


def assemble_cascade(cfg, stats_net, ubm, pca, ivec_net, utts, frame_rate):
    """The mimic-trained stages as one system, and utts' PCA coordinates and embeddings.

    The system's backend stays all zeros until train_joint installs one.
    """
    dim = ivec_net.n_out
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
    coords = e2e.pca_coords(system, (u.features for u in utts))
    return system, coords, e2e.embed_coords(system, coords)


def cascade_backend(cfg, embeddings, speakers):
    """PLDA on the embeddings as a quadratic backend, refined full-batch if configured."""
    model, _ = train_plda(cfg, embeddings, speakers)
    init = plda.to_dplda(model)
    if cfg.get("joint.init_fullbatch"):
        init, _ = train_dplda(cfg, init, embeddings, speakers)
    return init


def train_schedule(cfg, section):
    """The Adam schedule of the joint or e2e section."""
    return e2e.TrainSchedule(
        n_pairs=cfg.get(f"{section}.pairs"),
        lr=cfg.get(f"{section}.lr"),
        epoch_batches=cfg.get(f"{section}.epoch_batches"),
        max_epochs=cfg.get(f"{section}.epochs"),
        p_target=cfg.get("dplda.p_target"),
        anchor_weight=cfg.get(f"{section}.lambda_init"),
    )


def train_joint(cfg, system, corpus, train_coords, backend):
    """Install a copy of backend, anchor the system there and train it jointly.

    system and train_coords come from assemble_cascade.
    """
    system.dplda = backend.copy()
    system.freeze_anchor()
    rng = np.random.default_rng(cfg.seed)
    schedule = train_schedule(cfg, "joint")
    return e2e.train_joint_s2i_dplda(system, corpus, schedule, rng, train_coords=train_coords)


def train_e2e(cfg, system, corpus):
    """End-to-end training of all three stages toward the anchor train-joint froze."""
    rng = np.random.default_rng(cfg.seed)
    return e2e.train_e2e_full(system, corpus, train_schedule(cfg, "e2e"), rng)
