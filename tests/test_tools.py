"""The chain tools run the CLI's model-building stages, in the CLI's order,
and tensor_diff measures how far two runs' model files moved."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from svpipe import cli
from svpipe.fileio import write_container

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _chain_stages():
    """Every stage of cli.COMMANDS before score: the chain that builds the models."""
    names = list(cli.COMMANDS)
    return names[: names.index("score")]


def test_chain_sha256_runs_every_stage_of_the_chain_in_order():
    text = (TOOLS / "chain_sha256.sh").read_text()
    loop = re.search(r"^for name in (.*?); do$", text, re.M | re.S).group(1)
    stages = loop.replace("\\\n", " ").split()
    # the stages run on their own after the loop, e.g. train-e2e
    stages += re.findall(r'^stage "\$config" (\S+) ', text, re.M)
    assert stages == _chain_stages()


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_orders_its_rows_by_the_chain():
    assert _load_tool("stage_times").CHAIN == _chain_stages()


def test_tensor_diff_reports_how_far_each_tensor_moved(tmp_path, capsys):
    tensor_diff = _load_tool("tensor_diff")
    runs = {}
    for run, (moved, only) in {"a": (4.0, "old"), "b": (4.0 + 1e-9, "new")}.items():
        root = tmp_path / run
        (root / "work").mkdir(parents=True)
        same = np.arange(6.0).reshape(2, 3)
        write_container(root / "work" / "dplda.svm", {"lam": same, "k": np.array([moved, -2.0])})
        write_container(root / f"system.train-{run}.svm", {"w": np.zeros(2)})
        write_container(root / "work" / "system.svm", {"w": np.ones(3), only: np.ones(1)})
        runs[run] = str(root)
    assert tensor_diff.main([runs["a"], runs["b"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"system.train-a.svm\t*\tonly in {runs['a']}",
        f"system.train-b.svm\t*\tonly in {runs['b']}",
        f"work/dplda.svm\tk\t{1e-9 / 4.0:.3e}",
        f"work/system.svm\told\tonly in {runs['a']}",
        f"work/system.svm\tnew\tonly in {runs['b']}",
        f"3 tensors compared, largest relative difference {1e-9 / 4.0:.3e}",
    ]
    assert tensor_diff.relative_diff(np.zeros(2), np.array([0.0, 1e-300])) == float("inf")
