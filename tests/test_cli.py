import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import recipe_chain

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


def test_e2e_keeps_the_joint_anchor_with_its_own_lambda(workdir, tmp_path, monkeypatch):
    # train-e2e pulls toward the anchor train-joint froze, bit for bit, and
    # each stage weighs the pull with its own lambda_init
    from svpipe import cli, netcore
    from svpipe.e2e import E2eSystem
    from svpipe.fileio import from_tensors, read_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    weights = []
    penalty_to_snapshot = netcore.penalty_to_snapshot

    def recording_penalty(params, anchor, weight):
        weights.append(weight)
        return penalty_to_snapshot(params, anchor, weight)

    monkeypatch.setattr(netcore, "penalty_to_snapshot", recording_penalty)
    override = tmp_path / "e2e.cfg"
    override.write_text(cfg.read_text() + "e2e.lambda_init=0.25\n")
    argv = ["--config", str(override), "--workdir", str(work)]
    assert cli.main([*argv, "train-joint"]) == 0
    joint_weights = weights.copy()
    weights.clear()
    joint = from_tensors(E2eSystem, read_container(work / "system.svm")).anchor
    assert cli.main([*argv, "train-e2e"]) == 0
    anchor = from_tensors(E2eSystem, read_container(work / "system.svm")).anchor
    # joint.lambda_init's default, and dplda.l2's for the full-batch cascade backend
    assert set(joint_weights) == {1e-2, 1e-3}
    assert weights and set(weights) == {0.25}
    for before, after in zip(joint, anchor, strict=True):
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


def test_joint_init_without_fullbatch_is_the_plda_conversion(workdir, tmp_path):
    # joint.init_fullbatch=false starts joint training from PLDA on the
    # cascade's train embeddings, converted and not refined; with zero
    # epochs system.svm keeps that backend, which is also the anchor's
    from svpipe import cli, e2e, gmm, ivecnet, plda, recipe, statsnet
    from svpipe.corpus import load_corpus
    from svpipe.fileio import from_tensors, read_container, to_tensors

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    written = {}
    for fullbatch in ("false", "true"):
        override = tmp_path / f"{fullbatch}.cfg"
        override.write_text(
            cfg.read_text() + f"joint.epochs=0\njoint.init_fullbatch={fullbatch}\n"
        )
        argv = ["--config", str(override), "--workdir", str(work), "train-joint"]
        assert cli.main(argv) == 0
        written[fullbatch] = read_container(work / "system.svm")
    values = cli.Config(cli.load_config(override), workdir=work)
    corpus = load_corpus(work / "corpus")
    train = corpus.split("train")
    models = [
        from_tensors(kind, read_container(work / name))
        for name, kind in [
            ("statsnet.svm", statsnet.StatsNet), ("ubm.svm", gmm.DiagGmm),
            ("pca.svm", ivecnet.PcaModel), ("ivecnet.svm", ivecnet.IvecNet),
        ]
    ]
    _, _, embeddings = recipe.assemble_cascade(values, *models, train, corpus.frame_rate_hz)
    model, _ = recipe.train_plda(values, embeddings, [u.speaker for u in train])
    expected = to_tensors(plda.to_dplda(model), "dplda.")
    anchor = from_tensors(e2e.E2eSystem, written["false"]).anchor[-4:]
    for (name, value), anchored in zip(expected.items(), anchor, strict=True):
        assert np.array_equal(written["false"][name], value), name
        assert np.array_equal(anchored, value), name
    assert not all(np.array_equal(written["true"][name], v) for name, v in expected.items())


def test_dplda_scores_match_library(workdir):
    root, cfg = workdir
    result = run_cli("--config", str(cfg), "score")
    assert result.returncode == 0
    from svpipe.corpus import read_scores

    _, scores = read_scores(root / "work" / "scores.txt")
    assert np.isfinite(scores).all()


def test_train_s2i_on_background_model_stats(workdir, tmp_path):
    # ivecnet.stats_source=ubm trains on stats.svm instead of the statistics
    # network: the written net equals the recipe's on the classic statistics
    # computed in memory, and statsnet.svm is never read
    from svpipe import cli, gmm, ivecnet, recipe
    from svpipe.corpus import load_corpus
    from svpipe.fileio import from_tensors, read_container, to_tensors

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    (work / "statsnet.svm").unlink()
    override = tmp_path / "ubm-stats.cfg"
    override.write_text(cfg.read_text() + "ivecnet.stats_source=ubm\n")
    result = run_cli("--config", str(override), "--workdir", str(work), "train-s2i")
    assert result.returncode == 0, result.stderr

    values = cli.Config(cli.load_config(override), workdir=work)
    corpus = load_corpus(work / "corpus")
    train = corpus.split("train")
    ubm = from_tensors(gmm.DiagGmm, read_container(work / "ubm.svm"))
    pca = from_tensors(ivecnet.PcaModel, read_container(work / "pca.svm"))
    vectors = read_container(work / "ivec.svm")
    n, f = recipe.utterance_stats(values, ubm, train, corpus.frame_rate_hz)
    refs = np.stack([vectors[u.uid] for u in train])
    expected = to_tensors(recipe.train_ivec_net(values, ubm, pca, n, f, refs)[0])
    written = read_container(work / "ivecnet.svm")
    assert sorted(written) == sorted(expected)
    for key, value in expected.items():
        assert np.array_equal(written[key], value), key


@pytest.mark.parametrize("stage, output", [("train-dplda", "dplda.svm"), ("score", "scores.txt")])
def test_numerical_failure_exit_code_writes_nothing(workdir, tmp_path, stage, output):
    # a plda.svm whose within-class covariance is not positive definite: the
    # conversion to the quadratic backend and PLDA scoring both fail
    # numerically (exit 4) before writing anything
    from svpipe.fileio import read_container, write_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    (work / output).unlink(missing_ok=True)
    tensors = read_container(work / "plda.svm")
    tensors["within"] = -np.eye(tensors["within"].shape[0])
    write_container(work / "plda.svm", tensors)
    result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
    assert result.returncode == 4, result.stderr
    assert result.stderr.count("numerical failure:") == 1
    assert "Traceback" not in result.stderr
    assert not (work / output).exists()


# feature files each stage reads: every utterance of the named splits, or of the trial list
@pytest.mark.parametrize(
    "stage, reads",
    [
        ("extract-stats", "train dev eval"),
        ("train-ubm", "train"),
        ("train-f2s", "train"),
        ("train-s2i", "train"),
        ("train-tv", ""),
        ("extract-ivec", ""),
        ("train-plda", ""),
        ("train-dplda", ""),
        ("fit-pca", ""),
        ("train-joint", "train dev"),
        ("train-e2e", "train dev"),
        ("score plda", ""),
        ("score dplda", ""),
        ("score e2e", "trials_dev.txt"),
        ("score e2e", "trials_eval.txt"),
    ],
)
def test_stages_read_only_the_features_they_use(workdir, tmp_path, monkeypatch, stage, reads):
    from svpipe import cli, corpus

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    stage, _, backend = stage.partition(" ")
    overrides = f"score.backend={backend}\n" if backend else ""
    utts = corpus.load_corpus(work / "corpus").utterances
    expected = []
    for name in reads.split():
        if name.endswith(".txt"):
            overrides += f"score.trials={work / name}\n"
            trials = corpus.parse_trial_list(work / name)
            expected += sorted(set(trials.enroll) | set(trials.test))
        else:
            expected += [u.uid for u in utts if u.split == name]
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + overrides)
    read = []
    read_features = corpus.read_features
    monkeypatch.setattr(corpus, "read_features", lambda path: read.append(path.stem) or read_features(path))
    assert cli.main(["--config", str(override_cfg), "--workdir", str(work), stage]) == 0
    assert sorted(read) == sorted(expected)


def test_corrupt_dev_features_fail_only_the_stages_that_read_them(workdir, tmp_path):
    from svpipe.corpus import load_corpus

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    uid = load_corpus(work / "corpus").split("dev")[0].uid
    (work / "corpus" / "features" / f"{uid}.svf").write_bytes(b"SVF1\x00")
    e2e_cfg = tmp_path / "e2e.cfg"
    e2e_cfg.write_text(cfg.read_text() + "score.backend=e2e\n")
    for stage in ["train-plda", "train-dplda"]:
        result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
        assert result.returncode == 0, result.stderr
    result = run_cli("--config", str(e2e_cfg), "--workdir", str(work), "score")
    assert result.returncode == 3, result.stderr
    assert f"{uid}.svf" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("backend", ["plda", "dplda", "e2e"])
@pytest.mark.parametrize(
    "lines, message",
    [("# no trials\n", "no trials to score"), ("nobody spk000_u0\n", "unknown utterance 'nobody'")],
)
def test_bad_trial_list_exit_code(workdir, tmp_path, backend, lines, message):
    root, cfg = workdir
    trials = tmp_path / "trials.txt"
    trials.write_text(lines)
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + f"score.backend={backend}\nscore.trials={trials}\n")
    result = run_cli("--config", str(override_cfg), "score")
    assert result.returncode == 3, result.stderr
    assert message in result.stderr and "Traceback" not in result.stderr


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
        ("seed=-3", "train-ubm", None),
        ("tv.dim=0", "train-tv", None),
        ("prep.dim=0", "extract-ivec", None),
        ("joint.lr=-1e-3", "train-joint", None),
        ("e2e.lr=-1e-3", "train-e2e", None),
        ("joint.lambda_init=-5", "train-joint", None),
        ("e2e.lambda_init=-1e-2", "train-e2e", None),
        ("e2e.lambda_init=nan", "train-e2e", None),
        ("dplda.l2=-1e-3", "train-dplda", None),
        ("corpus.frame_rate=0", "synth-data", None),
        ("corpus.speakers=0", "synth-data", None),
        ("corpus.speaker_dim=-1", "synth-data", None),
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


def test_non_finite_stats_exit_code_writes_nothing(workdir, tmp_path):
    from svpipe.fileio import read_container, write_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    for name in ["ivec.svm", "prep.svm"]:
        (work / name).unlink()
    tensors = read_container(work / "stats.svm")
    first_f = next(name for name in tensors if name.endswith(".f"))
    tensors[first_f][0, 0] = np.nan
    write_container(work / "stats.svm", tensors)
    result = run_cli("--config", str(cfg), "--workdir", str(work), "extract-ivec")
    assert result.returncode == 3, result.stderr
    assert "non-finite statistics" in result.stderr and "Traceback" not in result.stderr
    assert not (work / "ivec.svm").exists() and not (work / "prep.svm").exists()


@pytest.mark.parametrize(
    "defect, message",
    [
        ("ragged", "stats.svm: statistics differ in shape between utterances"),
        ("mismatched", "statistics do not match the background model"),
        ("empty", "corpus has no train utterances"),
    ],
)
def test_ragged_mismatched_or_empty_stats_exit_code(workdir, tmp_path, defect, message):
    # statistics are stacked once as they are read; one utterance's rows of
    # another shape, rows that do not fit the background model, or a train
    # split without utterances are data errors (exit 3), never a traceback
    from svpipe.fileio import read_container, write_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    tensors = read_container(work / "stats.svm")
    sums = [name for name in tensors if name.endswith(".f")]
    widened = {"ragged": sums[:1], "mismatched": sums, "empty": []}[defect]
    for name in widened:  # one more feature dimension
        tensors[name] = np.concatenate([tensors[name], tensors[name][:, :1]], axis=1)
    write_container(work / "stats.svm", tensors)
    if defect == "empty":  # one speaker: every utterance lands outside the train split
        one_speaker = tmp_path / "one.cfg"
        one_speaker.write_text(cfg.read_text() + "corpus.speakers=1\n")
        result = run_cli("--config", str(one_speaker), "--workdir", str(work), "synth-data")
        assert result.returncode == 0, result.stderr
    for stage, output in [("train-tv", "tv.svm"), ("fit-pca", "pca.svm")]:
        (work / output).unlink()
        result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
        assert result.returncode == 3, result.stderr
        assert message in result.stderr and "Traceback" not in result.stderr
        assert not (work / output).exists()


@pytest.mark.parametrize(
    "model, stage",
    [
        ("tv.svm", "extract-ivec"),
        ("plda.svm", "train-dplda"),
        ("pca.svm", "train-s2i"),
        ("statsnet.svm", "train-s2i"),
        ("ivecnet.svm", "train-joint"),
        ("system.svm", "train-e2e"),
    ],
)
def test_wrong_kind_model_file_exit_code(workdir, tmp_path, model, stage):
    # the background model copied over another stage's model: the first
    # tensor the stage looks up is missing, a format error naming the file
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    shutil.copyfile(work / "ubm.svm", work / model)
    result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert f"{model}: no tensor" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "model, other, stage, layer",
    [
        ("statsnet.svm", "ivecnet.svm", "train-s2i", "softmax"),
        ("ivecnet.svm", "statsnet.svm", "train-joint", "length-norm"),
    ],
)
def test_swapped_network_file_exit_code(workdir, tmp_path, model, other, stage, layer):
    # both network files hold the same tensor names: only the check of the
    # final activation that each network class makes tells them apart
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    shutil.copyfile(work / other, work / model)
    result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert f"must end in a {layer} layer" in result.stderr
    assert f"{model}: " in result.stderr  # the message names the file
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("stage", ["train-e2e", "score"])
def test_system_without_anchor_exit_code(workdir, tmp_path, stage):
    # a system.svm whose anchor is stored under other names (the earlier
    # snapshot.values.<i> with its snapshot.weights) is a format error
    from svpipe.fileio import read_container, write_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    path = work / "system.svm"
    tensors = dict(read_container(path))
    n_groups = sum(name.startswith("anchor.") for name in tensors)
    tensors["snapshot.weights"] = np.full(n_groups, 1e-2)
    for i in range(n_groups):
        tensors[f"snapshot.values.{i}"] = tensors.pop(f"anchor.{i}")
    write_container(path, tensors)
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + "score.backend=e2e\n")
    result = run_cli("--config", str(override_cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert f"{path}: no tensor 'anchor.0'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("stage", ["train-e2e", "score"])
@pytest.mark.parametrize("defect", ["n_anchor", "anchor.3"])
def test_system_whose_anchor_disagrees_exit_code(workdir, tmp_path, stage, defect):
    # the anchor must match the trainable parameters in count and shape
    from svpipe.fileio import read_container, write_container

    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    path = work / "system.svm"
    tensors = dict(read_container(path))
    n_groups = int(tensors["n_anchor"])
    if defect == "n_anchor":
        tensors["n_anchor"] -= 1
        message = f"anchor holds {n_groups - 1} arrays for {n_groups} groups"
    else:
        tensors["anchor.3"] = tensors["anchor.3"][None]
        message = "anchor.3 has shape (1, "
    write_container(path, tensors)
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + "score.backend=e2e\n")
    result = run_cli("--config", str(override_cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert f"{path}: {message}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("override", ["frontend.window_s=1e308", "corpus.frame_rate=1e300"])
def test_window_longer_than_every_utterance_runs(tmp_path, override):
    # the normalization window spans each whole utterance (test_frontend)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work") + override + "\n")
    for stage in ["synth-data", "train-ubm"]:
        result = run_cli("--config", str(cfg), stage)
        assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "stage",
    [
        "train-ubm", "train-tv", "extract-ivec", "train-plda", "train-dplda",
        "train-f2s", "fit-pca", "train-s2i", "train-joint", "train-e2e",
    ],
)
def test_empty_train_split_exit_code(workdir, tmp_path, stage):
    # a corpus index without its train lines: every upstream model is there,
    # and every training stage names the missing split in one message
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    index = work / "corpus" / "corpus.tsv"
    lines = index.read_text().splitlines(keepends=True)
    index.write_text("".join(line for line in lines if not line.endswith("\ttrain\n")))
    result = run_cli("--config", str(cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert "corpus has no train utterances" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("stage, model", [("train-tv", "stats.svm"), ("train-plda", "ivec.svm")])
def test_models_of_a_smaller_corpus_exit_code(workdir, tmp_path, stage, model):
    # synth-data grows the corpus over a workdir whose statistics and
    # i-vectors cover 12 speakers; a stage reading them names the file and
    # the first utterance it lacks
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    grown = tmp_path / "grown.cfg"
    grown.write_text(cfg.read_text() + "corpus.speakers=30\n")
    argv = ["--config", str(grown), "--workdir", str(work)]
    assert run_cli(*argv, "synth-data").returncode == 0
    result = run_cli(*argv, stage)
    assert result.returncode == 3, result.stderr
    assert f"{model}: no tensor 'spk012_u0" in result.stderr
    assert "Traceback" not in result.stderr


def test_workdir_that_is_a_file_exit_code(tmp_path):
    work = tmp_path / "work"
    work.write_text("")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=work))
    result = run_cli("--config", str(cfg), "synth-data")
    assert result.returncode == 3, result.stderr
    assert f"{work}: File exists" in result.stderr
    assert "Traceback" not in result.stderr


def test_model_path_that_is_a_directory_exit_code(workdir, tmp_path):
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    (work / "tv.svm").unlink()
    (work / "tv.svm").mkdir()
    result = run_cli("--config", str(cfg), "--workdir", str(work), "extract-ivec")
    assert result.returncode == 3, result.stderr
    assert f"{work / 'tv.svm'}: Is a directory" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "artifact, stage, producer",
    [
        ("corpus/corpus.tsv", "train-ubm", "synth-data"),
        ("corpus/corpus.tsv", "score e2e", "synth-data"),
        ("trials_dev.txt", "score plda", "synth-data"),
        ("ubm.svm", "extract-stats", "train-ubm"),
        ("stats.svm", "train-tv", "extract-stats"),
        ("tv.svm", "extract-ivec", "train-tv"),
        ("ivec.svm", "train-plda", "extract-ivec"),
        ("ivec.svm", "score dplda", "extract-ivec"),
        ("plda.svm", "train-dplda", "train-plda"),
        ("dplda.svm", "score dplda", "train-dplda"),
        ("statsnet.svm", "train-s2i", "train-f2s"),
        ("pca.svm", "train-s2i", "fit-pca"),
        ("ivecnet.svm", "train-joint", "train-s2i"),
        ("system.svm", "train-e2e", "train-joint"),
        ("scores.txt", "eval", "score"),
    ],
)
def test_missing_input_names_its_producer(workdir, tmp_path, artifact, stage, producer):
    root, cfg = workdir
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    (work / artifact).unlink()
    stage, _, backend = stage.partition(" ")
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + (f"score.backend={backend}\n" if backend else ""))
    result = run_cli("--config", str(override_cfg), "--workdir", str(work), stage)
    assert result.returncode == 3, result.stderr
    assert f"missing input file {work / artifact} (written by {producer})" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "key, stage", [("score.trials", "score"), ("eval.trials", "eval"), ("eval.scores", "eval")]
)
def test_missing_configured_input_names_no_producer(workdir, tmp_path, key, stage):
    # a configured file outside the work directory has no producing stage,
    # even when it shares a work-directory artifact's name
    root, cfg = workdir
    missing = tmp_path / "elsewhere" / ("scores.txt" if key == "eval.scores" else "trials_dev.txt")
    override_cfg = tmp_path / "override.cfg"
    override_cfg.write_text(cfg.read_text() + f"{key}={missing}\n")
    result = run_cli("--config", str(override_cfg), "--workdir", str(root / "work"), stage)
    assert result.returncode == 3, result.stderr
    assert f"missing input file {missing}" in result.stderr
    assert "(written by" not in result.stderr
    assert "Traceback" not in result.stderr


def test_eval_join_rules(tmp_path, monkeypatch):
    # a repeated pair takes its last label, an unlabeled line never matches
    # and a score line without a label is skipped
    from svpipe import cli, metrics

    work = tmp_path / "work"
    work.mkdir()
    (work / "trials_dev.txt").write_text(
        "a b target\n"
        "a c nontarget\n"
        "a b nontarget\n"  # repeated: the last label wins
        "a c\n"  # unlabeled repeat: a c stays nontarget
        "d e\n"  # unlabeled only: d e never matches
        "# h i nontarget\n"
        "h i target\n"
        "b a target\n"  # pairs are ordered: b a is not a b
        "l m nontarget\n"
    )
    (work / "scores.txt").write_text(
        "a b 3.0\na c 2.0\nd e 5.0\nf g 1.0\nh i 4.0\nl m -1.0\nh i 0.5\n"
    )
    seen = []
    scored_trials = metrics.ScoredTrials

    def recording(scores, is_target):
        seen.append((np.asarray(scores).tolist(), np.asarray(is_target).tolist()))
        return scored_trials(scores, is_target)

    monkeypatch.setattr(metrics, "ScoredTrials", recording)
    assert cli.main(["--workdir", str(work), "eval"]) == 0
    assert seen == [([3.0, 2.0, 4.0, -1.0, 0.5], [False, False, True, False, True])]
    (work / "scores.txt").write_text("d e 5.0\nf g 1.0\n")
    assert cli.main(["--workdir", str(work), "eval"]) == 3


def test_cli_writes_what_the_recipe_computes_in_memory(tmp_path):
    # the CLI stages only wrap the recipe with file IO: every tensor of every
    # artifact through train-joint equals the in-memory recipe run
    from svpipe import cli, plda, recipe
    from svpipe.fileio import read_container, to_tensors

    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work"))
    for stage in [
        "synth-data", "train-ubm", "extract-stats", "train-tv", "extract-ivec",
        "train-plda", "train-dplda", "train-f2s", "fit-pca", "train-s2i", "train-joint",
    ]:
        assert cli.main(["--config", str(cfg_path), stage]) == 0, stage

    cfg = cli.Config(cli.load_config(cfg_path))
    chain = recipe_chain(cfg)
    dplda_params, _ = recipe.train_dplda(
        cfg, plda.to_dplda(chain.plda), chain.train_vecs, chain.speakers
    )
    backend = recipe.cascade_backend(cfg, chain.embeddings, chain.speakers)
    system, _ = recipe.train_joint(cfg, chain.system, chain.corpus, chain.coords, backend)

    stats_tensors = {}
    for utt, n_u, f_u in zip(chain.corpus.utterances, chain.n, chain.f):
        stats_tensors.update({f"{utt.uid}.n": n_u, f"{utt.uid}.f": f_u})
    expected = {
        "ubm.svm": to_tensors(chain.ubm),
        "stats.svm": stats_tensors,
        "tv.svm": to_tensors(chain.tv),
        "prep.svm": to_tensors(chain.prep),
        "ivec.svm": chain.vectors,
        "plda.svm": to_tensors(chain.plda),
        "dplda.svm": to_tensors(dplda_params),
        "statsnet.svm": to_tensors(chain.snet),
        "pca.svm": to_tensors(chain.pca),
        "ivecnet.svm": to_tensors(chain.ivnet),
        "system.svm": to_tensors(system),
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


def test_unknown_score_backend_exit_code(tmp_path):
    # the backend is checked before any input is read
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"paths.workdir={tmp_path / 'nowhere'}\nscore.backend=svm\n")
    result = run_cli("--config", str(cfg), "score")
    assert result.returncode == 2
    assert "score.backend" in result.stderr and "Traceback" not in result.stderr


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
    # every value, choice-valued keys included, and every line is checked
    # before the stage runs, so a bad one writes no work directory
    cfg = tmp_path / "small.cfg"
    base = SMALL_CONFIG.format(workdir=tmp_path / "work")
    line_of_the_extra = len(base.splitlines()) + 1
    for extra, named in [
        ("ubm.components=abc", "ubm.components"),
        ("score.backend=svm", "score.backend"),
        ("ivecnet.stats_source=gmm", "ivecnet.stats_source"),
        ("joint.init_fullbatch=maybe", "joint.init_fullbatch"),
        ("dplda.p_target=1.5", "dplda.p_target"),
        ("ivecnet.relevance=0", "ivecnet.relevance"),
        ("frontend.window_s=0", "frontend.window_s"),
        ("corpus.nonlinearity=2", "corpus.nonlinearity"),
        ("frontend.context=-1", "frontend.context"),
        ("frontend.n_dct=0", "frontend.n_dct"),
        ("ivecnet.l1=-1e-5", "ivecnet.l1"),
        ("ubm.floor=nan", "ubm.floor"),
        ("corpus.noise=nan", "corpus.noise"),
        ("corpus.noise=inf", "corpus.noise"),
        ("joint.lambda_init=inf", "joint.lambda_init"),
        ("frontend.n_dct=12", "frontend.n_dct=12 exceeds 2*frontend.context+1=9"),
        ("corpus.min_frames=200", "corpus.min_frames=200 exceeds corpus.max_frames=140"),
        ("prep.dim=15", "prep.dim=15 exceeds tv.dim=10"),
        ("ubm.components 64", f"{cfg}:{line_of_the_extra}: expected key=value"),
    ]:
        cfg.write_text(base + extra + "\n")
        result = run_cli("--config", str(cfg), "synth-data")
        assert result.returncode == 2, extra
        assert named in result.stderr, extra
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "work").exists()


def test_negative_seed_flag_exit_code(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG.format(workdir=tmp_path / "work"))
    result = run_cli("--config", str(cfg), "--seed", "-1", "synth-data")
    assert result.returncode == 2, result.stderr
    assert "seed" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "work").exists()
