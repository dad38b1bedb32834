import shutil
import subprocess
import sys

import numpy as np
import pytest

SMALL_CONFIG = """
paths.workdir={workdir}
corpus.speakers=12
corpus.utts=6
corpus.dim=8
corpus.min_frames=60
corpus.max_frames=140
corpus.speaker_dim=5
corpus.channel_dim=2
frontend.context=4
frontend.n_dct=3
ubm.components=4
ubm.iters=4
tv.dim=10
tv.iters=3
prep.dim=5
plda.iters=5
statsnet.hidden=12
statsnet.epochs=3
statsnet.lr=0.3
pca.dim=20
ivecnet.hidden=12
ivecnet.epochs=30
joint.pairs=5
joint.epoch_batches=3
joint.epochs=1
e2e.pairs=2
e2e.epoch_batches=2
e2e.epochs=1
"""


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "svpipe", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "desk.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=root / "work"))
    return root, cfg


def test_classic_cascade_composes(workdir):
    root, cfg = workdir
    stages = [
        "synth-data", "train-ubm", "extract-stats", "train-tv",
        "extract-ivec", "train-plda", "score", "eval",
    ]
    for stage in stages:
        result = run_cli("--config", str(cfg), stage)
        assert result.returncode == 0, f"{stage} failed: {result.stderr}"
    metrics_file = (root / "work" / "metrics.txt").read_text().splitlines()
    names = [line.split("\t")[0] for line in metrics_file]
    assert names == ["eer", "min_dcf@0.01", "min_dcf@0.005", "c_primary"]
    values = {line.split("\t")[0]: float(line.split("\t")[1]) for line in metrics_file}
    assert 0.0 <= values["eer"] <= 1.0
    assert values["c_primary"] <= 1.0


def test_threads_flag_gives_same_stats(workdir):
    root, cfg = workdir
    single = (root / "work" / "stats.svm").read_bytes()
    result = run_cli("--config", str(cfg), "--threads", "3", "extract-stats")
    assert result.returncode == 0
    assert (root / "work" / "stats.svm").read_bytes() == single


def test_remaining_stages_run(workdir):
    root, cfg = workdir
    for stage in ["train-dplda", "train-f2s", "fit-pca", "train-s2i", "train-joint", "train-e2e"]:
        result = run_cli("--config", str(cfg), stage)
        assert result.returncode == 0, f"{stage} failed: {result.stderr}"
    log = (root / "work" / "train_joint.log").read_text().splitlines()
    assert log[0] == "epoch\ttrain_loss\tdev_eer\tdev_c_primary\tlr"
    assert len(log) >= 2


def test_e2e_lambda_init_reweights_the_joint_snapshot(workdir, tmp_path):
    from svpipe.e2e import E2eSystem
    from svpipe.fileio import read_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    joint = E2eSystem.from_tensors(read_container(work / "system.svm")).snapshot
    override = tmp_path / "e2e.cfg"
    override.write_text(cfg.read_text() + "e2e.lambda_init=0.25\n")
    result = run_cli("--config", str(override), "--workdir", str(work), "train-e2e")
    assert result.returncode == 0, result.stderr
    snapshot = E2eSystem.from_tensors(read_container(work / "system.svm")).snapshot
    assert np.all(joint.weights == 1e-2)  # joint.lambda_init default
    assert np.all(snapshot.weights == 0.25)
    for before, after in zip(joint.values, snapshot.values, strict=True):
        assert np.array_equal(before, after)


def test_dplda_scores_match_library(workdir):
    root, cfg = workdir
    result = run_cli("--config", str(cfg), "score")
    assert result.returncode == 0
    from svpipe.corpus import read_scores

    _, scores = read_scores(root / "work" / "scores.txt")
    assert np.isfinite(scores).all()


def test_usage_error_exit_code():
    result = run_cli("no-such-stage")
    assert result.returncode == 2


def test_bad_config_key_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key=1\n")
    result = run_cli("--config", str(cfg), "synth-data")
    assert result.returncode == 2


def test_missing_data_exit_code(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(f"paths.workdir={tmp_path / 'nowhere'}\n")
    result = run_cli("--config", str(cfg), "train-ubm")
    assert result.returncode == 3


def test_missing_scores_exit_code(tmp_path):
    result = run_cli("--workdir", str(tmp_path / "empty"), "eval")
    assert result.returncode == 3
    assert "scores.txt" in result.stderr
    assert "Traceback" not in result.stderr


def test_unparsable_config_value_exit_code(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work"))
    assert run_cli("--config", str(cfg), "synth-data").returncode == 0
    cfg.write_text(cfg.read_text() + "ubm.components=abc\n")
    result = run_cli("--config", str(cfg), "train-ubm")
    assert result.returncode == 2
    assert "ubm.components" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_config_file_exit_code(tmp_path):
    result = run_cli("--config", str(tmp_path / "absent.cfg"), "synth-data")
    assert result.returncode == 2
    assert "absent.cfg" in result.stderr
    assert "Traceback" not in result.stderr
