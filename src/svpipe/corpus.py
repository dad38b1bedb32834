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

import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError
from .fileio import read_feature_shape, read_features, read_text, write_features, write_text

SPLITS = ("train", "dev", "eval")
TRIAL_LABELS = ("target", "nontarget")

_AR_COEFF = 0.7
_AR_BURN_IN = 32
_CHANNEL_SCALE = 0.3
_LATENT_GAIN = 3.5
_HIDDEN_MULT = 3
_OBS_NOISE_FRAC = 1.0 / 30.0
_SPLIT_FRACTIONS = (0.5, 0.25, 0.25)  # train, dev, eval shares of the speakers


class Utterance:
    """One utterance: uid, speaker, split tag and its (T, D) float64 features.

    Built with a feature matrix, it holds that matrix. Built by load_corpus
    or save_corpus, it holds the directory of its feature file,
    <feature_dir>/<uid>.svf, and reads that file when ``features`` is
    accessed (a malformed file raises FormatError there). It keeps only a
    weak reference to the matrix it read: while a caller holds that matrix,
    ``features`` returns it without reading again, and once nobody does, it
    is freed. So a stage that walks a corpus one utterance at a time holds
    one matrix at a time, and one that keeps the matrices reads each file
    once. ``n_frames`` is T, from the file's 12-byte header if not held.
    """

    def __init__(self, uid, speaker, split, features=None, *, feature_dir=None):
        self.uid = uid
        self.speaker = speaker
        self.split = split
        self._features = features
        self._feature_dir = feature_dir
        self._last_read = None  # weak reference to the last matrix read

    @property
    def features(self):
        if self._features is not None:
            return self._features
        frames = None if self._last_read is None else self._last_read()
        if frames is None:
            frames = read_features(self._feature_dir / f"{self.uid}.svf")
            self._last_read = weakref.ref(frames)
        return frames

    @property
    def n_frames(self):
        if self._features is not None:
            return self._features.shape[0]
        return read_feature_shape(self._feature_dir / f"{self.uid}.svf")[0]


@dataclass
class Corpus:
    utterances: list[Utterance]
    frame_rate_hz: float = 100.0

    def split(self, name):
        if name not in SPLITS:
            raise InputError(f"unknown split {name!r}")
        return [u for u in self.utterances if u.split == name]

    def require(self, name):
        """The utterances of a split a stage cannot run without; empty is an InputError."""
        utts = self.split(name)
        if not utts:
            raise InputError(f"corpus has no {name} utterances")
        return utts

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

    def __post_init__(self):
        if self.n_speakers < 1 or self.utts_per_speaker < 1 or self.dim < 1:
            raise InputError("speaker/utterance/dimension counts must be >= 1")
        if self.min_frames < 1 or self.min_frames > self.max_frames:
            raise InputError("need 1 <= min_frames <= max_frames")
        if not 0.0 <= self.nonlinearity <= 1.0:
            raise InputError("nonlinearity strength must lie in [0, 1]")


def synth_corpus(cfg: SynthConfig) -> Corpus:
    """Generate a deterministic synthetic corpus from the config seed."""
    return Corpus(list(synth_utterances(cfg)), frame_rate_hz=cfg.frame_rate_hz)


def synth_utterances(cfg: SynthConfig):
    """The utterances of synth_corpus(cfg) in corpus order, generated one at a time."""
    rng = np.random.default_rng(cfg.seed)
    latent_dim = cfg.speaker_dim + cfg.channel_dim
    hidden = _HIDDEN_MULT * cfg.dim
    mix_in = _LATENT_GAIN * rng.standard_normal((hidden, latent_dim)) / np.sqrt(latent_dim)
    mix_out = rng.standard_normal((cfg.dim, hidden)) / np.sqrt(hidden)

    speaker_ids = [f"spk{i:03d}" for i in range(cfg.n_speakers)]
    speaker_latents = rng.standard_normal((cfg.n_speakers, cfg.speaker_dim))
    splits = _assign_splits(cfg.n_speakers)

    sigma = cfg.nonlinearity
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
            yield Utterance(f"{speaker}_u{k}", speaker, splits[s], frames)


def _ar1_noise(rng, n_frames, dim, scale):
    # imported here: only synth-data filters noise, and the import costs
    # every other CLI process about half a second
    from scipy.signal import lfilter

    if scale == 0.0:
        return np.zeros((n_frames, dim))
    eps = rng.standard_normal((n_frames + _AR_BURN_IN, dim)) * scale
    corr = lfilter([np.sqrt(1.0 - _AR_COEFF**2)], [1.0, -_AR_COEFF], eps, axis=0)
    return corr[_AR_BURN_IN:]


def _assign_splits(n_speakers):
    n_train = int(round(n_speakers * _SPLIT_FRACTIONS[0]))
    n_dev = int(round(n_speakers * _SPLIT_FRACTIONS[1]))
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

def save_corpus(utterances, directory, frame_rate_hz) -> Corpus:
    """Write each utterance's feature file as soon as utterances yields it, then the index.

    No feature matrix is kept: returns the corpus as load_corpus reads it
    back, each utterance reading its file when used.
    """
    directory = Path(directory)
    feature_dir = directory / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for utt in utterances:
        write_features(feature_dir / f"{utt.uid}.svf", utt.features)
        written.append(Utterance(utt.uid, utt.speaker, utt.split, feature_dir=feature_dir))
    lines = [f"frame_rate_hz\t{frame_rate_hz!r}"]
    lines += [f"{u.uid}\t{u.speaker}\t{u.split}" for u in written]
    write_text(directory / "corpus.tsv", "\n".join(lines) + "\n")
    return Corpus(written, frame_rate_hz=frame_rate_hz)


def load_corpus(directory) -> Corpus:
    """Parse and check the corpus index; each feature file is read on first use."""
    directory = Path(directory)
    index = directory / "corpus.tsv"
    feature_dir = directory / "features"
    feature_files = _file_names(feature_dir)
    utterances = []
    first_line = {}  # uid -> line number
    frame_rate = 100.0
    for lineno, line in enumerate(read_text(index).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if parts[0] == "frame_rate_hz" and len(parts) == 2:
            try:
                frame_rate = float(parts[1])
            except ValueError:
                frame_rate = np.nan
            if not 0.0 < frame_rate < np.inf:  # NaN fails too
                raise FormatError(f"{index}:{lineno}: bad frame rate {parts[1]!r}")
            continue
        if len(parts) != 3:
            raise FormatError(f"{index}:{lineno}: expected 'uid<TAB>spk<TAB>split'")
        uid, speaker, split = parts
        if split not in SPLITS:
            raise FormatError(f"{index}:{lineno}: unknown split {split!r}")
        if not uid or "/" in uid or "\0" in uid:
            raise FormatError(f"{index}:{lineno}: uid {uid!r} is not a file name")
        if uid in first_line:
            raise FormatError(f"{index}:{lineno}: uid {uid!r} repeats line {first_line[uid]}")
        first_line[uid] = lineno
        name = f"{uid}.svf"
        if name not in feature_files:
            raise FormatError(f"{index}:{lineno}: no feature file {feature_dir / name}")
        utterances.append(Utterance(uid, speaker, split, feature_dir=feature_dir))
    return Corpus(utterances, frame_rate_hz=frame_rate)


def _file_names(directory):
    """Names of the regular files in directory; none if it is missing or not a directory."""
    try:
        with os.scandir(directory) as entries:
            return {entry.name for entry in entries if entry.is_file()}
    except (FileNotFoundError, NotADirectoryError):
        return set()


# ---------------------------------------------------------------------------
# trial lists and score files
#
# A trial list is three parallel columns of strings, built and written with
# C-level map/zip/join and no object per trial. A reader takes the columns
# from one split of the whole file when the file is in the form the writers
# emit. Any other file (blank lines, tabs, lines of different widths, a bad
# label or score, or for a trial list any '#') goes through a line loop,
# which names the first bad line in file order.

@dataclass
class TrialList:
    """Trial i pairs enroll[i] with test[i]; labels[i] is "target",
    "nontarget" or None for a scoring-only trial. Without labels, every
    trial is scoring-only."""

    enroll: list[str] = field(default_factory=list)
    test: list[str] = field(default_factory=list)
    labels: list[str | None] = field(default_factory=list)

    def __post_init__(self):
        if not self.labels:
            self.labels = [None] * len(self.enroll)
        if not len(self.enroll) == len(self.test) == len(self.labels):
            raise InputError("trial list columns differ in length")

    def __len__(self):
        return len(self.enroll)


def make_trials(corpus: Corpus, split) -> TrialList:
    """All unordered single-enrollment pairs within one split, labeled.

    Pair (i, j), i < j, of the split's utterances in corpus order; i varies
    slowest.
    """
    utts = corpus.split(split)
    first, second = np.triu_indices(len(utts), k=1)
    uids = np.array([u.uid for u in utts], dtype=object)
    speakers = np.array([u.speaker for u in utts], dtype=object)
    labels = np.where(speakers[first] == speakers[second], *TRIAL_LABELS)
    return TrialList(uids[first].tolist(), uids[second].tolist(), labels.tolist())


def _columns(text):
    """The fields of a text whose every line is its fields joined by single
    spaces and ended by a newline, column by column; None for other text.

    One split of the whole text gives every field, and rebuilding the text
    from the columns proves that splitting it line by line gives the same.
    """
    fields = text.split()
    n_lines = text.count("\n")
    if not n_lines or len(fields) % n_lines:
        return None
    width = len(fields) // n_lines
    columns = [fields[i::width] for i in range(width)]
    if "\n".join(map(" ".join, zip(*columns))) + "\n" != text:
        return None
    return columns


def parse_trial_list(path) -> TrialList:
    """Parse text lines "enroll test [label]"; label is optional.

    Blank lines and lines whose first field starts with '#' are skipped.
    """
    text = read_text(path)
    columns = None if "#" in text else _columns(text)
    width = len(columns) if columns else 0
    if width == 2 or width == 3 and set(columns[2]).issubset(TRIAL_LABELS):
        return TrialList(*columns)
    enroll, test, labels = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) == 2:
            parts.append(None)
        elif len(parts) != 3:
            raise FormatError(
                f"{path}:{lineno}: expected 'enroll test [label]', got {len(parts)} fields"
            )
        elif parts[2] not in TRIAL_LABELS:
            raise FormatError(f"{path}:{lineno}: unknown trial label {parts[2]!r}")
        enroll.append(parts[0])
        test.append(parts[1])
        labels.append(parts[2])
    return TrialList(enroll, test, labels)


def write_trial_list(path, trials: TrialList):
    """One line "enroll test [label]" per trial; an unlabeled trial has two fields."""
    columns = zip(trials.enroll, trials.test, trials.labels)
    lines = (f"{e} {t} {label}" if label else f"{e} {t}" for e, t, label in columns)
    write_text(path, "\n".join(lines) + "\n")


def write_scores(path, trials: TrialList, scores):
    """Score file lines "enroll test score"; %.17g keeps doubles lossless."""
    if len(scores) != len(trials):
        raise InputError("score count does not match the trial list")
    values = map("{:.17g}".format, np.asarray(scores, dtype=np.float64).tolist())
    write_text(path, "\n".join(map(" ".join, zip(trials.enroll, trials.test, values))) + "\n")


def read_scores(path):
    """Read a score file into (TrialList without labels, score vector).

    Blank lines are skipped.
    """
    text = read_text(path)
    columns = _columns(text)
    if columns and len(columns) == 3:
        enroll, test, values = columns
        try:
            scores = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
        except ValueError:
            pass  # the line loop names the first bad score
        else:
            return TrialList(enroll, test), scores
    enroll, test, scores = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'enroll test score'")
        try:
            scores.append(float(parts[2]))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad score {parts[2]!r}") from None
        enroll.append(parts[0])
        test.append(parts[1])
    return TrialList(enroll, test), np.asarray(scores, dtype=np.float64)
