"""Per-layer metrics derived from the spans of one traced run.

The layers are svpipe's modules. ``s`` is inclusive busy time (sum of span
durations), ``self_s`` excludes child spans, ``calls`` counts spans, and
work counts (frames, rows, trials, bytes) come from the span counters below.
GFLOP figures are nominal matrix-multiply counts computed from the layer
shapes, not measured hardware operations. No module queues work or runs
threads once BLAS is pinned to one thread, so there is no waiting time to
report.
"""

from __future__ import annotations

import hashlib
import os
from collections import defaultdict

import numpy as np

from svtrace import MODULES, self_times
from workloads import maxrss_mb

CLI_STAGES = (
    "synth-data",
    "train-ubm",
    "extract-stats",
    "train-tv",
    "extract-ivec",
    "train-plda",
    "train-dplda",
    "train-f2s",
    "fit-pca",
    "train-s2i",
    "train-joint",
    "train-e2e",
    "score",
    "eval",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _matmul_flop(net, rows, passes):
    """2 * rows * n_in * n_out per layer and matmul pass (forward: 1, backward: 2)."""
    return 2.0 * passes * rows * sum(layer.weight.size for layer in net.layers)


def _fingerprint(features):
    features = np.ascontiguousarray(features)
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(features.shape).encode())
    digest.update(features[0].tobytes())
    digest.update(features[-1].tobytes())
    return digest.hexdigest()


def _frames(i, name):
    return lambda a, k, r: {"frames": _rows(_arg(a, k, i, name))}


def _trials(i, name):
    return lambda a, k, r: {"trials": _rows(_arg(a, k, i, name))}


def _written(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _forward(a, k, r):
    net, rows = _arg(a, k, 0, "net"), _rows(_arg(a, k, 1, "x"))
    return {"rows": rows, "flop": _matmul_flop(net, rows, 1)}


def _backward(a, k, r):
    # grads for every layer's weights and input, layer 0's input included
    net, rows = _arg(a, k, 0, "net"), _rows(_arg(a, k, 2, "grad_output"))
    return {"rows": rows, "flop": _matmul_flop(net, rows, 2)}


COUNTERS = {
    "cli.main": lambda a, k, r: {"stage": _arg(a, k, 0, "argv")[-1], "maxrss_mb": maxrss_mb()},
    "fileio.write_features": _written,
    "fileio.write_container": _written,
    "frontend.stmvn": _frames(0, "frames"),
    "frontend.context_expand": _frames(0, "frames"),
    "gmm.responsibilities": _frames(1, "frames"),
    "netcore.forward": _forward,
    "netcore.backward": _backward,
    "dplda.bxe_objective": lambda a, k, r: {"trials": _arg(a, k, 1, "batch").n_trials},
    "dplda.score_pairs": _trials(1, "enroll"),
    "plda.plda_llr_pairs": _trials(1, "enroll"),
    "dplda.train_dplda_fullbatch": lambda a, k, r: {"iters": len(r[1]) - 1},
    "e2e.preprocess": lambda a, k, r: {"utt": _fingerprint(_arg(a, k, 1, "features"))},
}

class _Spans:
    """Spans grouped by name, with the self time of each."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span.name].append(i)

    def calls(self, name):
        return len(self.by_name[name])

    def s(self, *names):
        return sum(self.spans[i].duration for name in names for i in self.by_name[name])

    def info(self, key, *names):
        return sum(self.spans[i].info[key] for name in names for i in self.by_name[name])

    def durations(self, name):
        return [self.spans[i].duration for i in self.by_name[name]]

    def outermost_s(self, module):
        """Time inside the module, counting nested spans of the same module once."""
        spans = self.spans
        return sum(
            span.duration
            for span in spans
            if span.module == module
            and (span.parent < 0 or spans[span.parent].module != module)
        )


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _epoch_progress(workdir):
    """(epochs improving on the best dev C_primary so far, epochs run) from the logs."""
    improved = run = 0
    for log in ("train_joint.log", "train_e2e.log"):
        path = workdir / log
        if not path.is_file():
            continue
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:] if line]
        best = float(rows[0][3])
        for row in rows[1:]:
            run += 1
            if float(row[3]) < best:
                improved += 1
                best = float(row[3])
    return improved, run


def layer_metrics(spans, workdir, train_s_untraced, train_s_traced):
    """Every per-layer metric of BENCHMARK.json from one traced run; returns {name: value}."""
    g = _Spans(spans)
    out = {}

    stages = defaultdict(list)
    for i in g.by_name["cli.main"]:
        stages[spans[i].info["stage"]].append(spans[i])
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = sum(span.duration for span in stages[stage])
        out[f"cli.{stage}.maxrss_mb"] = max(
            (span.info["maxrss_mb"] for span in stages[stage]), default=0.0
        )

    writes = ("fileio.write_features", "fileio.write_container")
    out["corpus.load_corpus.calls"] = g.calls("corpus.load_corpus")
    out["corpus.load_corpus.s"] = g.s("corpus.load_corpus")
    out["fileio.read_features.calls"] = g.calls("fileio.read_features")
    out["fileio.read.s"] = g.s("fileio.read_features", "fileio.read_container")
    out["fileio.write.s"] = g.s(*writes)
    out["fileio.bytes_written"] = g.info("bytes", *writes)

    for fn in ("stmvn", "context_expand"):
        name = f"frontend.{fn}"
        out[f"{name}.calls"] = g.calls(name)
        out[f"{name}.frames"] = g.info("frames", name)
        out[f"{name}.s"] = g.s(name)
    utts = {spans[i].info["utt"] for i in g.by_name["e2e.preprocess"]}
    out["e2e.preprocess.calls"] = g.calls("e2e.preprocess")
    out["e2e.preprocess.utts"] = len(utts)
    out["e2e.preprocess.calls_per_utt"] = _ratio(g.calls("e2e.preprocess"), len(utts))

    out["gmm.train_ubm.s"] = g.s("gmm.train_ubm")
    out["gmm.log_densities.calls"] = g.calls("gmm.log_densities")
    out["gmm.log_densities.s"] = g.s("gmm.log_densities")
    out["gmm.responsibilities.calls"] = g.calls("gmm.responsibilities")
    out["gmm.responsibilities.frames"] = g.info("frames", "gmm.responsibilities")
    out["gmm.responsibilities.s"] = g.s("gmm.responsibilities")
    out["gmm.sufficient_stats.calls"] = g.calls("gmm.sufficient_stats")
    out["gmm.sufficient_stats.s"] = g.s("gmm.sufficient_stats")
    out["ivector.train_tv.s"] = g.s("ivector.train_tv")
    out["ivector.extract_ivector.calls"] = g.calls("ivector.extract_ivector")
    out["ivector.extract_ivector.s"] = g.s("ivector.extract_ivector")
    out["ivector.fit_prep.s"] = g.s("ivector.fit_prep")
    out["plda.train_plda.s"] = g.s("plda.train_plda")
    out["plda.plda_llr_pairs.trials"] = g.info("trials", "plda.plda_llr_pairs")
    out["plda.plda_llr_pairs.s"] = g.s("plda.plda_llr_pairs")
    out["plda.to_dplda.s"] = g.s("plda.to_dplda")

    fullbatch = "dplda.train_dplda_fullbatch"
    iters = g.info("iters", fullbatch)
    evaluations = sum(
        1
        for i in g.by_name["dplda.bxe_objective"]
        if spans[i].parent >= 0 and spans[spans[i].parent].name == fullbatch
    )
    out[f"{fullbatch}.s"] = g.s(fullbatch)
    out[f"{fullbatch}.iters"] = iters
    # accepted L-BFGS iterations per objective evaluation (line-search waste)
    out["dplda.lbfgs.accept_ratio"] = _ratio(iters, evaluations)
    out["dplda.bxe_objective.calls"] = g.calls("dplda.bxe_objective")
    out["dplda.bxe_objective.trials"] = g.info("trials", "dplda.bxe_objective")
    out["dplda.bxe_objective.s"] = g.s("dplda.bxe_objective")
    out["dplda.score_pairs.trials"] = g.info("trials", "dplda.score_pairs")
    out["dplda.score_pairs.s"] = g.s("dplda.score_pairs")
    out["dplda.all_trials.calls"] = g.calls("dplda.TrialBatch.all_trials")
    out["dplda.all_trials.s"] = g.s("dplda.TrialBatch.all_trials", "dplda.TrialBatch.scores")

    forward_s = g.s("netcore.forward")
    backward_s = g.s("netcore.backward")
    forward_gflop = g.info("flop", "netcore.forward") / 1e9
    out["netcore.forward.calls"] = g.calls("netcore.forward")
    out["netcore.forward.rows"] = g.info("rows", "netcore.forward")
    out["netcore.forward.s"] = forward_s
    out["netcore.forward.gflop"] = forward_gflop
    out["netcore.forward.gflop_per_s"] = _ratio(forward_gflop, forward_s)
    out["netcore.backward.calls"] = g.calls("netcore.backward")
    out["netcore.backward.rows"] = g.info("rows", "netcore.backward")
    out["netcore.backward.s"] = backward_s
    out["netcore.backward.gflop_per_s"] = _ratio(
        g.info("flop", "netcore.backward") / 1e9, backward_s
    )
    for fn in ("sgd_step", "adam_step"):
        out[f"netcore.{fn}.calls"] = g.calls(f"netcore.{fn}")
        out[f"netcore.{fn}.s"] = g.s(f"netcore.{fn}")
    out["netcore.penalty_to_snapshot.s"] = g.s("netcore.penalty_to_snapshot")

    stats_net = g.by_name["statsnet.train_stats_net"]
    out["statsnet.train_stats_net.s"] = g.s("statsnet.train_stats_net")
    out["statsnet.train_stats_net.self_s"] = sum(g.self_s[i] for i in stats_net)
    out["statsnet.pooled_stats.calls"] = g.calls("statsnet.pooled_stats")
    out["statsnet.pooled_stats.s"] = g.s("statsnet.pooled_stats")
    for fn in ("train_ivec_net", "map_supervectors", "fit_pca"):
        out[f"ivecnet.{fn}.s"] = g.s(f"ivecnet.{fn}")

    out["e2e.train_joint_s2i_dplda.s"] = g.s("e2e.train_joint_s2i_dplda")
    out["e2e.train_e2e_full.s"] = g.s("e2e.train_e2e_full")
    out["e2e.checkpointed_grads.calls"] = g.calls("e2e.checkpointed_grads")
    out["e2e.checkpointed_grads.s"] = g.s("e2e.checkpointed_grads")
    embed = g.durations("e2e.embed_utterance")
    out["e2e.embed_utterance.calls"] = len(embed)
    out["e2e.embed_utterance.s"] = sum(embed)
    out["e2e.embed_utterance.p50_ms"] = _percentile_ms(embed, 50)
    out["e2e.embed_utterance.p90_ms"] = _percentile_ms(embed, 90)
    out["e2e.epochs_improved"], out["e2e.epochs_run"] = _epoch_progress(workdir)

    for fn in ("eer", "min_dcf", "c_primary"):
        out[f"metrics.{fn}.calls"] = g.calls(f"metrics.{fn}")
    out["metrics.s"] = g.outermost_s("metrics")

    # self time of the timed training stages, by module; their sum plus the
    # unattributed remainder is the traced train_s
    train = [i for i, span in enumerate(spans) if span.run.startswith("train#")]
    for module in MODULES:
        out[f"{module}.self_s"] = sum(g.self_s[i] for i in train if spans[i].module == module)
    roots = sum(spans[i].duration for i in train if spans[i].parent < 0)
    out["trace.train_s"] = train_s_traced
    out["trace.unattributed_s"] = train_s_traced - roots
    out["trace_overhead"] = _ratio(train_s_traced, train_s_untraced)
    return out
