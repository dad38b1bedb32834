"""The two benchmark workloads and the closed-loop stage runner.

Each workload drives the svpipe CLI in-process through ``svpipe.cli.main``:
one caller, each stage started after the previous one returned. A pass is
the workload's timed training stages, then ``score`` + ``eval`` for every
scored backend on the dev and the eval trial list. The corpus and model
seeds are pinned in the workload's config file, so every pass and every run
of one commit computes the same models and the same quality numbers; the
benchmark seed only permutes the trial lists handed to ``score``/``eval``,
whose metrics are order-invariant.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SPLITS = ("dev", "eval")
# a pass repeats its scoring round until scoring has run this long: single
# score calls are short (a round takes about 0.45 s on classic, 1.5 s on
# e2e) and jitter by tens of percent on a shared host
SCORE_SECONDS = 4.0

CLASSIC_SETUP = ("synth-data",)
CLASSIC_TRAIN = (
    "train-ubm",
    "extract-stats",
    "train-tv",
    "extract-ivec",
    "train-plda",
    "train-dplda",
)
NEURAL_TRAIN = ("train-f2s", "fit-pca", "train-s2i")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    setup: tuple[str, ...]
    train: tuple[str, ...]
    backends: tuple[str, ...]  # the last one gives the reported quality
    # passes per run: the host's speed drifts over about a minute, so a
    # workload whose pass is short still needs enough passes to span it
    min_passes: int
    reference: dict | None = None  # {(backend, split): {metric: "%.6f"}}


WORKLOADS = {
    "classic": Workload(
        name="classic",
        config=CONFIG_DIR / "classic.cfg",
        setup=CLASSIC_SETUP,
        train=CLASSIC_TRAIN,
        backends=("plda", "dplda"),
        min_passes=4,
        # PLDA on the seed-0 SynthConfig corpus, as in the roadmap baseline
        reference={("plda", "dev"): {"eer": "0.040720", "c_primary": "0.436181"}},
    ),
    "joint": Workload(
        name="joint",
        config=CONFIG_DIR / "joint.cfg",
        setup=CLASSIC_SETUP + CLASSIC_TRAIN[:-1],
        train=NEURAL_TRAIN + ("train-joint", "train-e2e"),
        backends=("e2e",),
        min_passes=3,
    ),
}


class RunFailed(Exception):
    """A stage failed or one of its outputs did not pass a check."""


def maxrss_mb():
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs the workload's stages in one work directory and checks outputs."""

    def __init__(self, workload: Workload, root: Path, seed: int):
        self.workload = workload
        self.root = root
        self.workdir = root / "work"
        self.seed = seed
        # called with "setup", "train" or "score" as each phase starts
        self.on_phase = lambda phase: None
        self.stages_run = 0
        self.stages_failed = 0
        self.base_config = workload.config.read_text()
        self.trials: dict[str, list[tuple[str, str]]] = {}

    # -- stage calls -------------------------------------------------------
    def stage(self, name, config=None):
        """Run one CLI stage; returns its wall time. Raises RunFailed."""
        from svpipe import cli

        argv = [
            "--config", str(config or self.workload.config),
            "--workdir", str(self.workdir),
            "--threads", "1",
            name,
        ]
        self.stages_run += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.stages_failed += 1
            raise RunFailed(f"stage {name} returned {code!r}")
        return elapsed

    def run_stages(self, names):
        return sum(self.stage(name) for name in names)

    # -- set-up ------------------------------------------------------------
    def setup(self):
        """Fresh work directory plus the untimed upstream stages; returns seconds."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.on_phase("setup")
        start = time.perf_counter()
        self.run_stages(self.workload.setup)
        elapsed = time.perf_counter() - start
        self._write_trial_lists()
        return elapsed

    def _write_trial_lists(self):
        """Seed-permuted copies of the trial lists plus one config per score call."""
        rng = random.Random(self.seed)
        for split in SPLITS:
            lines = (self.workdir / f"trials_{split}.txt").read_text().splitlines()
            lines = [line for line in lines if line.strip()]
            rng.shuffle(lines)
            path = self.root / f"trials_{split}.txt"
            path.write_text("\n".join(lines) + "\n")
            self.trials[split] = [tuple(line.split()[:2]) for line in lines]
            for backend in self.workload.backends:
                self._score_config(backend, split).write_text(
                    self.base_config
                    + f"\nscore.backend={backend}\nscore.trials={path}\neval.trials={path}\n"
                )

    def _score_config(self, backend, split):
        return self.root / f"score-{backend}-{split}.cfg"

    # -- one pass ----------------------------------------------------------
    def run_pass(self, score_seconds=None):
        """Timed training, then scoring rounds. Returns a record.

        Scoring repeats for ``score_seconds`` (SCORE_SECONDS by default);
        0 scores one round. ``quality`` holds the eval numbers of every round.
        """
        if score_seconds is None:
            score_seconds = SCORE_SECONDS
        self.on_phase("train")
        train_s = self.run_stages(self.workload.train)
        self.on_phase("score")
        score_s = 0.0
        trials = 0
        rounds = []
        while not rounds or score_s < score_seconds:
            quality = {}
            for backend in self.workload.backends:
                for split in SPLITS:
                    cfg = self._score_config(backend, split)
                    score_s += self.stage("score", cfg)
                    self._check_scores(split)
                    score_s += self.stage("eval", cfg)
                    trials += len(self.trials[split])
                    quality[(backend, split)] = self._read_metrics()
            rounds.append(quality)
        return {"train_s": train_s, "score_s": score_s, "trials": trials, "quality": rounds}

    def _check_scores(self, split):
        lines = (self.workdir / "scores.txt").read_text().splitlines()
        expected = self.trials[split]
        if len(lines) != len(expected):
            raise RunFailed(f"scores.txt has {len(lines)} lines for {len(expected)} trials")
        for line, pair in zip(lines, expected):
            fields = line.split()
            if len(fields) != 3 or tuple(fields[:2]) != pair or not math.isfinite(float(fields[2])):
                raise RunFailed(f"bad score line {line!r} for trial {pair}")

    def _read_metrics(self):
        values = {}
        for line in (self.workdir / "metrics.txt").read_text().splitlines():
            name, _, value = line.partition("\t")
            values[name] = value
        return values


def check_quality(workload: Workload, passes):
    """Every scoring round must give the same metrics, and the reference must hold."""
    rounds = [quality for record in passes for quality in record["quality"]]
    first = rounds[0]
    for quality in rounds[1:]:
        if quality != first:
            return f"quality differs between scoring rounds: {first} vs {quality}"
    for key, expected in (workload.reference or {}).items():
        got = {name: first[key][name] for name in expected}
        if got != expected:
            return f"{key} quality {got} != reference {expected}"
    return None
