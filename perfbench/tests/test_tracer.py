"""Tests for the benchmark's tracer, per-layer metrics and result format.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from layers import COUNTERS, layer_metrics  # noqa: E402
from svtrace import MODULES, Span, Tracer, public_bindings, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Runner, check_quality  # noqa: E402

from svpipe import cli, corpus, dplda  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dataclasses.replace(
    WORKLOADS["classic"],
    config=Path(__file__).with_name("tiny.cfg"),
    reference=None,
)


@pytest.fixture(autouse=True)
def one_scoring_round(monkeypatch):
    monkeypatch.setattr(workloads, "SCORE_SECONDS", 0.0)


def _unwrapped(obj):
    func = obj.__func__ if isinstance(obj, classmethod) else obj
    return not hasattr(func, "__wrapped__")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a.root", 0.0, 10.0, -1, "r#1"),
        Span("b.child", 1.0, 4.0, 0, "r#1"),
        Span("c.grandchild", 2.0, 3.5, 1, "r#1"),
        Span("b.child", 5.0, 9.0, 0, "r#1"),
        Span("a.root", 11.0, 12.0, -1, "r#2"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0, 1.0])
    # the self times of one tree add up to its root's duration
    assert sum(self_times(spans)[:4]) == pytest.approx(10.0)


def test_wrappers_record_parent_and_run_id():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: 1)
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    tracer.phase = "train"
    assert outer() == 2
    tracer.phase = "score"
    outer()
    assert [s.name for s in tracer.spans] == ["m.outer", "m.inner", "m.inner"] * 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert [s.run for s in tracer.spans] == ["train#1"] * 3 + ["score#2"] * 3
    assert all(s.end >= s.start for s in tracer.spans)


def test_traced_run_restores_every_binding(tmp_path):
    before = public_bindings()
    assert all(_unwrapped(obj) for _, _, obj in before)
    runner = Runner(TINY, tmp_path, seed=3)
    tracer = Tracer(COUNTERS)
    runner.on_phase = lambda phase: setattr(tracer, "phase", phase)
    with tracer:
        # one wrapper per function, bound in every namespace that imports it
        assert cli.load_corpus is corpus.load_corpus
        assert not _unwrapped(corpus.load_corpus)
        assert not _unwrapped(dplda.TrialBatch.__dict__["all_trials"])
        runner.setup()
        record = runner.run_pass()
    assert public_bindings() == before
    assert all(_unwrapped(obj) for _, _, obj in public_bindings())

    names = {span.name for span in tracer.spans}
    assert {"cli.main", "corpus.load_corpus", "gmm.train_ubm", "dplda.TrialBatch.all_trials"} <= names
    values = layer_metrics(tracer.spans, runner.workdir, record["train_s"], record["train_s"])
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    module_self = sum(values[f"{module}.self_s"] for module in MODULES)
    assert module_self + values["trace.unattributed_s"] == pytest.approx(record["train_s"])
    assert values["cli.train-ubm.s"] > 0.0 and values["netcore.forward.calls"] == 0
    # one corpus load per training stage and per score call; synth-data and eval load none
    score_calls = 2 * len(TINY.backends) * len(record["quality"])
    assert values["corpus.load_corpus.calls"] == len(TINY.train) + score_calls


def test_restore_runs_when_the_pass_fails():
    before = public_bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("stage blew up")
    assert public_bindings() == before


def test_untraced_run_installs_nothing(tmp_path, monkeypatch):
    before = public_bindings()

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    runner = Runner(TINY, tmp_path, seed=5)
    metrics, samples, error = run.measure(TINY, runner, seconds=0.0)
    assert error is None
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert runner.stages_failed == 0 and runner.stages_run > 0
    after = public_bindings()
    assert after == before
    assert all(_unwrapped(obj) for _, _, obj in after)


def test_quality_check_needs_identical_rounds_and_the_reference():
    same = {("plda", "dev"): {"eer": "0.100000", "c_primary": "0.500000"}}
    other = {("plda", "dev"): {"eer": "0.100001", "c_primary": "0.500000"}}
    workload = dataclasses.replace(TINY, reference={("plda", "dev"): {"eer": "0.100000"}})
    assert check_quality(workload, [{"quality": [same, same]}, {"quality": [same]}]) is None
    assert "differs" in check_quality(workload, [{"quality": [same]}, {"quality": [other]}])
    assert "differs" in check_quality(workload, [{"quality": [same, other]}])
    assert "reference" in check_quality(workload, [{"quality": [other]}])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_workload_configs_pin_every_cli_key():
    per_call = {"paths.workdir", "score.backend", "score.trials", "eval.scores", "eval.trials"}
    for workload in WORKLOADS.values():
        assert set(cli.load_config(workload.config)) == set(cli.DEFAULTS) - per_call


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
