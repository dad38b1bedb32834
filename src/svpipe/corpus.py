"""Synthetic corpus generation, corpus persistence, trial lists and scores.

A corpus is a list of utterances with speaker labels and train/dev/eval split
tags; the three splits never share a speaker.

The generator draws one latent vector per speaker and one channel vector per
utterance; their concatenation sets the operating point of a saturating
random map, and temporally correlated per-frame noise excites that map. With
the default full saturation the latent pins most hidden units while the
excitation flips the marginal ones, so every speaker owns a characteristic
set of feature-space clusters - structure that survives sliding mean/variance
normalization, unlike a static offset. Features are quantized to the float32
grid so feature files round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .errors import FormatError, InputError
from .fileio import read_features, read_text, write_features, write_text

SPLITS = ("train", "dev", "eval")
TRIAL_LABELS = ("target", "nontarget")

_AR_COEFF = 0.7
_AR_BURN_IN = 32
_CHANNEL_SCALE = 0.3
_LATENT_GAIN = 3.5
_HIDDEN_MULT = 3
_OBS_NOISE_FRAC = 1.0 / 30.0


@dataclass
class Utterance:
    uid: str
    speaker: str
    split: str
    features: np.ndarray  # (T, D)


@dataclass
class Corpus:
    utterances: list[Utterance]
    frame_rate_hz: float = 100.0

    def split(self, name):
        if name not in SPLITS:
            raise InputError(f"unknown split {name!r}")
        return [u for u in self.utterances if u.split == name]

    def speakers(self, split=None):
        utts = self.utterances if split is None else self.split(split)
        return sorted({u.speaker for u in utts})

    def by_id(self):
        return {u.uid: u for u in self.utterances}


@dataclass
class SynthConfig:
    """Knobs for the synthetic corpus generator; recipe.DEFAULTS holds their defaults."""

    n_speakers: int
    utts_per_speaker: int
    min_frames: int
    max_frames: int
    dim: int
    speaker_dim: int
    channel_dim: int
    noise_scale: float
    nonlinearity: float
    seed: int
    frame_rate_hz: float
    split_fractions: tuple = (0.5, 0.25, 0.25)

    def __post_init__(self):
        if self.n_speakers < 1 or self.utts_per_speaker < 1 or self.dim < 1:
            raise InputError("speaker/utterance/dimension counts must be >= 1")
        if self.min_frames < 1 or self.min_frames > self.max_frames:
            raise InputError("need 1 <= min_frames <= max_frames")
        if not 0.0 <= self.nonlinearity <= 1.0:
            raise InputError("nonlinearity strength must lie in [0, 1]")


def synth_corpus(cfg: SynthConfig) -> Corpus:
    """Generate a deterministic synthetic corpus from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    latent_dim = cfg.speaker_dim + cfg.channel_dim
    hidden = _HIDDEN_MULT * cfg.dim
    mix_in = _LATENT_GAIN * rng.standard_normal((hidden, latent_dim)) / np.sqrt(latent_dim)
    mix_out = rng.standard_normal((cfg.dim, hidden)) / np.sqrt(hidden)

    speaker_ids = [f"spk{i:03d}" for i in range(cfg.n_speakers)]
    speaker_latents = rng.standard_normal((cfg.n_speakers, cfg.speaker_dim))
    splits = _assign_splits(cfg.n_speakers, cfg.split_fractions)

    sigma = cfg.nonlinearity
    utterances = []
    for s, speaker in enumerate(speaker_ids):
        for k in range(cfg.utts_per_speaker):
            channel = _CHANNEL_SCALE * rng.standard_normal(cfg.channel_dim)
            n_frames = int(rng.integers(cfg.min_frames, cfg.max_frames + 1))
            z = np.concatenate([speaker_latents[s], channel])
            drive = mix_in @ z + _ar1_noise(rng, n_frames, hidden, cfg.noise_scale)
            mixed = (1.0 - sigma) * drive + sigma * np.tanh(drive)
            frames = mixed @ mix_out.T + _ar1_noise(
                rng, n_frames, cfg.dim, _OBS_NOISE_FRAC * cfg.noise_scale
            )
            frames = frames.astype(np.float32).astype(np.float64)
            utterances.append(
                Utterance(f"{speaker}_u{k}", speaker, splits[s], frames)
            )
    return Corpus(utterances, frame_rate_hz=cfg.frame_rate_hz)


def _ar1_noise(rng, n_frames, dim, scale):
    if scale == 0.0:
        return np.zeros((n_frames, dim))
    eps = rng.standard_normal((n_frames + _AR_BURN_IN, dim)) * scale
    corr = lfilter([np.sqrt(1.0 - _AR_COEFF**2)], [1.0, -_AR_COEFF], eps, axis=0)
    return corr[_AR_BURN_IN:]


def _assign_splits(n_speakers, fractions):
    if len(fractions) != 3 or any(f < 0 for f in fractions) or sum(fractions) <= 0:
        raise InputError("split_fractions must be three non-negative weights")
    total = sum(fractions)
    n_train = int(round(n_speakers * fractions[0] / total))
    n_dev = int(round(n_speakers * fractions[1] / total))
    n_train = min(n_train, n_speakers)
    n_dev = min(n_dev, n_speakers - n_train)
    out = []
    for i in range(n_speakers):
        if i < n_train:
            out.append("train")
        elif i < n_train + n_dev:
            out.append("dev")
        else:
            out.append("eval")
    return out


# ---------------------------------------------------------------------------
# corpus directory layout: features/<uid>.svf + corpus.tsv ("uid spk split")

def save_corpus(corpus: Corpus, directory):
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    lines = [f"frame_rate_hz\t{corpus.frame_rate_hz!r}"]
    for utt in corpus.utterances:
        write_features(directory / "features" / f"{utt.uid}.svf", utt.features)
        lines.append(f"{utt.uid}\t{utt.speaker}\t{utt.split}")
    write_text(directory / "corpus.tsv", "\n".join(lines) + "\n")


def load_corpus(directory) -> Corpus:
    directory = Path(directory)
    index = directory / "corpus.tsv"
    if not index.is_file():
        raise FormatError(f"{index}: corpus index not found")
    utterances = []
    frame_rate = 100.0
    for lineno, line in enumerate(read_text(index).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if parts[0] == "frame_rate_hz" and len(parts) == 2:
            try:
                frame_rate = float(parts[1])
            except ValueError:
                raise FormatError(f"{index}:{lineno}: bad frame rate {parts[1]!r}") from None
            continue
        if len(parts) != 3:
            raise FormatError(f"{index}:{lineno}: expected 'uid<TAB>spk<TAB>split'")
        uid, speaker, split = parts
        if split not in SPLITS:
            raise FormatError(f"{index}:{lineno}: unknown split {split!r}")
        if not uid or "/" in uid or "\0" in uid:
            raise FormatError(f"{index}:{lineno}: uid {uid!r} is not a file name")
        path = directory / "features" / f"{uid}.svf"
        try:
            features = read_features(path)
        except FileNotFoundError:
            raise FormatError(f"{index}:{lineno}: no feature file {path}") from None
        utterances.append(Utterance(uid, speaker, split, features))
    return Corpus(utterances, frame_rate_hz=frame_rate)


# ---------------------------------------------------------------------------
# trial lists and score files

@dataclass
class Trial:
    enroll: str
    test: str
    label: str | None = None  # "target", "nontarget" or None for scoring-only


@dataclass
class TrialList:
    trials: list[Trial] = field(default_factory=list)


def make_trials(corpus: Corpus, split) -> TrialList:
    """All unordered single-enrollment pairs within one split, labeled."""
    utts = corpus.split(split)
    trials = []
    for i in range(len(utts)):
        for j in range(i + 1, len(utts)):
            label = "target" if utts[i].speaker == utts[j].speaker else "nontarget"
            trials.append(Trial(utts[i].uid, utts[j].uid, label))
    return TrialList(trials)


def parse_trial_list(path) -> TrialList:
    """Parse text lines "enroll test [label]"; label is optional."""
    trials = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            trials.append(Trial(parts[0], parts[1]))
        elif len(parts) == 3:
            if parts[2] not in TRIAL_LABELS:
                raise FormatError(
                    f"{path}:{lineno}: unknown trial label {parts[2]!r}"
                )
            trials.append(Trial(parts[0], parts[1], parts[2]))
        else:
            raise FormatError(
                f"{path}:{lineno}: expected 'enroll test [label]', got {len(parts)} fields"
            )
    return TrialList(trials)


def write_trial_list(path, trial_list: TrialList):
    lines = []
    for t in trial_list.trials:
        lines.append(f"{t.enroll} {t.test}" + (f" {t.label}" if t.label else ""))
    write_text(path, "\n".join(lines) + "\n")


def write_scores(path, trial_list: TrialList, scores):
    """Score file lines "enroll test score"; %.17g keeps doubles lossless."""
    if len(scores) != len(trial_list.trials):
        raise InputError("score count does not match the trial list")
    lines = [
        f"{t.enroll} {t.test} {s:.17g}"
        for t, s in zip(trial_list.trials, scores)
    ]
    write_text(path, "\n".join(lines) + "\n")


def read_scores(path):
    """Read a score file into (TrialList without labels, score vector)."""
    trials = []
    scores = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'enroll test score'")
        try:
            score = float(parts[2])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad score {parts[2]!r}") from None
        trials.append(Trial(parts[0], parts[1]))
        scores.append(score)
    return TrialList(trials), np.asarray(scores, dtype=np.float64)
