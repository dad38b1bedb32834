import shutil
import subprocess
import sys
import tracemalloc

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
corpus.noise=0.3
corpus.nonlinearity=0.5
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
        # one summary line per stage: wall and cpu seconds, peak rss
        assert f"stage {stage} done:" in result.stderr
        assert "s cpu, peak rss" in result.stderr
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


def test_train_joint_preprocesses_each_utterance_once(workdir, tmp_path, monkeypatch):
    # the PLDA/DPLDA initialization and the frozen joint loop share the train
    # PCA coordinates, so each train and dev utterance is preprocessed once
    from svpipe import cli, e2e
    from svpipe.corpus import load_corpus

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    calls = []
    preprocess = e2e.preprocess

    def counting_preprocess(system, features):
        calls.append(features.tobytes())
        return preprocess(system, features)

    monkeypatch.setattr(e2e, "preprocess", counting_preprocess)
    code = cli.main(["--config", str(cfg), "--workdir", str(work), "train-joint"])
    assert code == 0
    corpus = load_corpus(work / "corpus")
    expected = [u.features.tobytes() for u in corpus.split("train") + corpus.split("dev")]
    assert sorted(calls) == sorted(expected)


def test_dplda_scores_match_library(workdir):
    root, cfg = workdir
    result = run_cli("--config", str(cfg), "score")
    assert result.returncode == 0
    from svpipe.corpus import read_scores

    _, scores = read_scores(root / "work" / "scores.txt")
    assert np.isfinite(scores).all()


@pytest.mark.parametrize(
    "override, stage, model",
    [
        ("statsnet.batch=0", "train-f2s", None),
        ("ivecnet.batch=0", "train-s2i", None),
        ("statsnet.lr=0", "train-f2s", None),
        ("ivecnet.lr=0", "train-s2i", None),
        ("statsnet.epochs=0", "train-f2s", "statsnet.svm"),
        ("ivecnet.epochs=0", "train-s2i", "ivecnet.svm"),
        ("ubm.iters=0", "train-ubm", "ubm.svm"),
        ("tv.iters=0", "train-tv", "tv.svm"),
        ("plda.iters=0", "train-plda", "plda.svm"),
        ("ubm.iters=-1", "train-ubm", None),
        ("tv.iters=-3", "train-tv", None),
        ("plda.iters=-1", "train-plda", None),
        ("joint.epochs=-1", "train-joint", None),
        ("dplda.max_iters=-1", "train-dplda", None),
        ("tv.dim=0", "train-tv", None),
        ("prep.dim=0", "extract-ivec", None),
    ],
)
def test_training_count_exit_codes(workdir, tmp_path, override, stage, model):
    # a bad batch size or learning rate, a negative count or a dimension
    # below 1 is a config error (exit 2); zero epochs or iterations train
    # nothing and write the initial model (exit 0)
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    if model is not None:
        (work / model).unlink()
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + override + "\n")
    result = run_cli("--config", str(override_cfg), "--workdir", str(work), stage)
    assert "Traceback" not in result.stderr
    if model is None:
        assert result.returncode == 2, result.stderr
    else:
        assert result.returncode == 0, result.stderr
        assert (work / model).exists()
        assert "no iterations run" in result.stderr


def test_cli_writes_what_the_recipe_computes_in_memory(tmp_path):
    # the CLI stages only wrap the recipe with file IO: every tensor of every
    # artifact through train-joint equals the in-memory recipe run
    from svpipe import cli, plda, recipe
    from svpipe.fileio import read_container

    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work"))
    for stage in [
        "synth-data", "train-ubm", "extract-stats", "train-tv", "extract-ivec",
        "train-plda", "train-dplda", "train-f2s", "fit-pca", "train-s2i", "train-joint",
    ]:
        assert cli.main(["--config", str(cfg_path), stage]) == 0, stage

    cfg = cli.Config(cli.load_config(cfg_path))
    corpus = recipe.synth_corpus(cfg)
    rate = corpus.frame_rate_hz
    train = corpus.split("train")
    speakers = [u.speaker for u in train]
    ubm, _ = recipe.train_ubm(cfg, recipe.ubm_frames(cfg, train, rate))
    stats = recipe.utterance_stats(cfg, ubm, corpus.utterances, rate)
    train_stats = [stats[u.uid] for u in train]
    tv, _ = recipe.train_tv(cfg, ubm, train_stats)
    prep, vectors = recipe.extract_ivectors(cfg, tv, ubm, corpus.utterances, stats)
    train_vecs = np.stack([vectors[u.uid] for u in train])
    plda_model, _ = recipe.train_plda(cfg, train_vecs, speakers)
    dplda_params, _ = recipe.train_dplda(
        cfg, plda.to_dplda(plda_model), train_vecs, speakers
    )
    snet, _ = recipe.train_stats_net(cfg, *recipe.f2s_matrices(cfg, ubm, train, rate))
    pca = recipe.fit_pca(cfg, ubm, train_stats)
    ivnet, _ = recipe.train_ivec_net(
        cfg, ubm, pca, recipe.net_stats(cfg, snet, train, rate), train_vecs
    )
    system, coords, embeddings = recipe.assemble_cascade(
        cfg, snet, ubm, pca, ivnet, train, rate
    )
    recipe.set_backend(cfg, system, recipe.cascade_backend(cfg, embeddings, speakers))
    system, _ = recipe.train_joint(cfg, system, corpus, coords)

    stats_tensors = {}
    for uid, s in stats.items():
        stats_tensors.update(s.to_tensors(f"{uid}."))
    expected = {
        "ubm.svm": ubm.to_tensors(),
        "stats.svm": stats_tensors,
        "tv.svm": tv.to_tensors(),
        "prep.svm": prep.to_tensors(),
        "ivec.svm": vectors,
        "plda.svm": plda_model.to_tensors(),
        "dplda.svm": dplda_params.to_tensors(),
        "statsnet.svm": snet.to_tensors(),
        "pca.svm": pca.to_tensors(),
        "ivecnet.svm": ivnet.to_tensors(),
        "system.svm": system.to_tensors(),
    }
    for name, tensors in expected.items():
        written = read_container(cfg.path(name))
        assert sorted(written) == sorted(tensors), name
        for key, value in tensors.items():
            assert np.array_equal(written[key], value), f"{name}: {key}"


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


def test_non_utf8_scores_exit_code(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    (work / "scores.txt").write_bytes(b"a b 1.0\n\xff b 2.0\n")
    (work / "trials_dev.txt").write_text("a b target\n")
    result = run_cli("--workdir", str(work), "eval")
    assert result.returncode == 3
    assert "scores.txt" in result.stderr
    assert "Traceback" not in result.stderr


def test_non_utf8_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=1\n# caf\xe9\n")
    result = run_cli("--config", str(cfg), "synth-data")
    assert result.returncode == 2
    assert "bad.cfg" in result.stderr
    assert "Traceback" not in result.stderr


def _traced_peak(argv):
    """Peak bytes numpy and Python allocate while cli.main runs one stage."""
    from svpipe import cli

    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_stages_hold_their_matrices_once(tmp_path):
    # train-ubm stacks the normalized train frames and train-f2s the expanded
    # frames plus their targets, each into one preallocated matrix; holding
    # a per-utterance list next to a stacked copy roughly doubles the peak
    # (measured: 7.0x and 3.5x of these bytes with lists plus a stacked copy,
    # 3.97x and 1.86x with one preallocated matrix)
    from svpipe import cli
    from svpipe.corpus import load_corpus

    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work"))
    argv = ["--config", str(cfg)]
    assert cli.main([*argv, "synth-data"]) == 0
    values = cli.Config(cli.load_config(cfg))
    train = load_corpus(values.path("corpus")).split("train")
    n_frames = sum(u.features.shape[0] for u in train)
    dim = train[0].features.shape[1]
    frame_bytes = 8 * n_frames * dim
    assert _traced_peak([*argv, "train-ubm"]) < 5.5 * frame_bytes
    f2s_bytes = 8 * n_frames * (
        dim * values.get("frontend.n_dct") + values.get("ubm.components")
    )
    assert _traced_peak([*argv, "train-f2s"]) < 2.6 * f2s_bytes


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


def test_config_values_are_parsed_at_load(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        SMALL_CONFIG.format(workdir=tmp_path / "work") + "ubm.components=abc\n"
    )
    result = run_cli("--config", str(cfg), "synth-data")
    assert result.returncode == 2
    assert "ubm.components" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "work").exists()
