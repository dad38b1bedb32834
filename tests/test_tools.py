"""tools/chain.py runs the CLI's model-building stages in the order of
cli.STAGES, and lists and times what two such runs differ in."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from svpipe import cli
from svpipe.fileio import write_container

TOOL = Path(__file__).resolve().parent.parent / "tools" / "chain.py"
_spec = importlib.util.spec_from_file_location("chain", TOOL)
chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chain)


def test_run_follows_the_stage_table(tmp_path, monkeypatch):
    ran = []

    def fake_stage(out, config, command, log):
        ran.append(log)
        for name in cli.STAGES[command].writes:
            (out / "work" / name).parent.mkdir(exist_ok=True)
            (out / "work" / name).write_text(log)

    monkeypatch.setattr(chain, "run_stage", fake_stage)
    (tmp_path / "x.cfg").write_text("seed=1\n")
    out = tmp_path / "out"
    assert chain.run(tmp_path / "x.cfg", out) == 0
    names = list(cli.STAGES)
    pairs = [f"{backend}-{split}" for backend in ("plda", "dplda", "e2e") for split in ("dev", "eval")]
    assert ran == names[: names.index("score")] + [f"{c}-{p}" for p in pairs for c in ("score", "eval")]
    assert (out / "system.train-joint.svm").read_text() == "train-joint"
    assert (out / "scored/e2e-eval/metrics.txt").read_text() == "eval-e2e-eval"
    hashed = [line.split("  ")[1] for line in (out / "sha256.txt").read_text().splitlines()]
    assert hashed == sorted(hashed) and len(hashed) == 29 and "system.train-joint.svm" in hashed
    assert chain.run(tmp_path / "x.cfg", out) == 2  # a second run into the same directory


def make_run(root, files):
    """A run dir holding files (a dict of tensors is a model file), hashed by the tool."""
    for name, content in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, dict):
            write_container(root / name, content)
        else:
            (root / name).write_text(content)
    chain.hash_run(root)
    (root / "tensors.txt").write_text("written by older runs, and never read\n")
    return str(root)


def test_diff_lists_every_file_and_tensor_that_differs(tmp_path, capsys):
    w, runs = np.arange(6.0).reshape(2, 3), {}
    for run, moved, only, dim in (("a", 4.0, "old", 2), ("b", 4.0 + 1e-9, "new", 3)):
        runs[run] = make_run(tmp_path / run, {
            "scored/plda-dev/metrics.txt": "eer\t0.1\n", "work/ubm.svm": {"w": w},
            f"system.train-{run}.svm": {"w": w}, "work/train_joint.log": run,
            "work/dplda.svm": {"lam": w, "k": np.array([moved, -2.0])},
            "work/pca.svm": {"m": np.ones(dim)}, "work/system.svm": {"w": np.ones(3), only: np.ones(1)},
        })
    a, b = runs["a"], runs["b"]
    assert chain.main(["diff", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"system.train-a.svm\t*\tonly in {a}",
        f"system.train-b.svm\t*\tonly in {b}",
        "work/dplda.svm\t*\tsha256 differs",
        f"work/dplda.svm\tk\t{1e-9 / 4.0:.3e}",
        "work/pca.svm\t*\tsha256 differs",
        "work/pca.svm\tm\tshape (2,) != (3,)",
        "work/system.svm\t*\tsha256 differs",
        f"work/system.svm\told\tonly in {a}",
        f"work/system.svm\tnew\tonly in {b}",
        "work/train_joint.log\t*\tsha256 differs",
        f"6 files differ, 4 tensors differ, largest relative difference {1e-9 / 4.0:.3e}",
    ]
    assert chain.main(["diff", a, a]) == 0
    assert capsys.readouterr().out == "0 files differ, 0 tensors differ, largest relative difference 0.000e+00\n"
    assert chain.relative_diff(np.zeros(2), np.array([0.0, 1e-300])) == float("inf")


def test_diff_reports_a_tensor_whose_bytes_alone_differ(tmp_path, capsys):
    # -0.0 == 0.0, so only the bytes tell these tensors apart
    a = make_run(tmp_path / "a", {"work/plda.svm": {"mu": np.zeros(2)}})
    b = make_run(tmp_path / "b", {"work/plda.svm": {"mu": np.array([0.0, -0.0])}})
    assert chain.main(["diff", a, b]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "work/plda.svm\tmu\tbytes differ, values equal"


def test_times_orders_its_rows_by_the_chain(tmp_path, capsys):
    for group, wall in (("parent", 1.0), ("change", 2.0)):
        (tmp_path / group / "r1" / "logs").mkdir(parents=True)
        for name in ["score-plda-dev", "eval-plda-dev", *reversed(chain.CHAIN)]:
            (tmp_path / group / "r1" / "logs" / f"{name}.log").write_text(
                f"INFO loading\nstage {name} done: {wall} s wall, 0.5 s cpu, peak rss 64.0 MB\n")
    assert chain.main(["times", str(tmp_path / "parent" / "r1"), str(tmp_path / "change" / "r1")]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["stage"] + [
        f"{group} {col}" for group in ("parent", "change") for col in ("wall_s", "cpu_s", "rss_mb", "n")]
    assert [row[0] for row in rows[1:]] == [*chain.CHAIN, "eval-plda-dev", "score-plda-dev"]
    assert rows[1][1:] == ["1.00", "0.50", "64.0", "1", "2.00", "0.50", "64.0", "1"]


def test_chain_without_arguments_exits_2():
    assert subprocess.run([sys.executable, str(TOOL)], capture_output=True).returncode == 2


def test_times_groups_symlinked_runs_by_the_path_given(tmp_path, capsys):
    # parent/r1 and change/r1 link to sibling runs of one directory; each
    # still counts under the group its given path names
    for run, wall in (("a", 1.0), ("b", 2.0)):
        (tmp_path / "runs" / run / "logs").mkdir(parents=True)
        (tmp_path / "runs" / run / "logs" / "train-ubm.log").write_text(
            f"stage train-ubm done: {wall} s wall, 0.5 s cpu, peak rss 64.0 MB\n")
    for group, run in (("parent", "a"), ("change", "b")):
        (tmp_path / group).mkdir()
        (tmp_path / group / "r1").symlink_to(tmp_path / "runs" / run)
    assert chain.main(["times", str(tmp_path / "parent" / "r1"), str(tmp_path / "change" / "r1")]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows[0][1::4] == ["parent wall_s", "change wall_s"]
    assert rows[1] == ["train-ubm", "1.00", "0.50", "64.0", "1", "2.00", "0.50", "64.0", "1"]
