import subprocess
import sys
import weakref

import numpy as np
import pytest

from svpipe import corpus
from svpipe.errors import FormatError, InputError


def test_same_seed_bit_identical():
    cfg = corpus.SynthConfig(n_speakers=4, utts_per_speaker=2, min_frames=30,
                             max_frames=60, dim=5, speaker_dim=8, channel_dim=4,
                             noise_scale=1.5, nonlinearity=1.0, seed=11,
                             frame_rate_hz=100.0)
    a = corpus.synth_corpus(cfg)
    b = corpus.synth_corpus(cfg)
    assert [u.uid for u in a.utterances] == [u.uid for u in b.utterances]
    for ua, ub in zip(a.utterances, b.utterances):
        assert np.array_equal(ua.features, ub.features)


def test_split_discipline(small_corpus):
    seen = {}
    for split in corpus.SPLITS:
        seen[split] = {u.speaker for u in small_corpus.split(split)}
        assert seen[split], f"{split} split is empty"
    assert seen["train"] & seen["dev"] == set()
    assert seen["train"] & seen["eval"] == set()
    assert seen["dev"] & seen["eval"] == set()
    ids = [u.uid for u in small_corpus.utterances]
    assert len(ids) == len(set(ids))
    assert all(u.features.shape[0] >= 1 for u in small_corpus.utterances)


def test_require_returns_the_split_and_rejects_an_empty_one(small_corpus):
    # split may be empty (make_trials takes it); require is for a split a stage needs
    no_train = corpus.Corpus([u for u in small_corpus.utterances if u.split != "train"])
    assert no_train.split("train") == []
    with pytest.raises(InputError, match="corpus has no train utterances"):
        no_train.require("train")
    assert no_train.require("dev") == small_corpus.split("dev")
    with pytest.raises(InputError, match="unknown split"):
        small_corpus.require("test")


def test_pure_speaker_signal_when_noise_and_channel_zero():
    cfg = corpus.SynthConfig(n_speakers=3, utts_per_speaker=3, min_frames=20,
                             max_frames=40, dim=4, speaker_dim=8, channel_dim=0,
                             noise_scale=0.0, nonlinearity=1.0, seed=5,
                             frame_rate_hz=100.0)
    corp = corpus.synth_corpus(cfg)
    for speaker in {u.speaker for u in corp.utterances}:
        utts = [u for u in corp.utterances if u.speaker == speaker]
        reference = utts[0].features[0]
        for u in utts:
            assert np.array_equal(u.features, np.tile(reference, (u.features.shape[0], 1)))


def test_corpus_save_load_roundtrip(tmp_path, small_corpus):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    back = corpus.load_corpus(tmp_path / "c")
    assert back.frame_rate_hz == small_corpus.frame_rate_hz
    assert len(back.utterances) == len(small_corpus.utterances)
    for ua, ub in zip(small_corpus.utterances, back.utterances):
        assert (ua.uid, ua.speaker, ua.split) == (ub.uid, ub.speaker, ub.split)
        assert np.array_equal(ua.features, ub.features)


def test_trial_list_parsing(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("e1 t1 target\ne1 t2\n# comment\ne2 t2 nontarget\n")
    tl = corpus.parse_trial_list(path)
    assert list(zip(tl.enroll, tl.test, tl.labels)) == [
        ("e1", "t1", "target"),
        ("e1", "t2", None),
        ("e2", "t2", "nontarget"),
    ]
    path.write_text("e1 t1 bogus\n")
    with pytest.raises(FormatError, match=r"1.*bogus|bogus.*1"):
        corpus.parse_trial_list(path)
    path.write_text("e1 t1 target extra\n")
    with pytest.raises(FormatError, match="1"):
        corpus.parse_trial_list(path)


def test_trial_roundtrip_and_make_trials(small_corpus, tmp_path):
    tl = corpus.make_trials(small_corpus, "dev")
    n = len(small_corpus.split("dev"))
    assert len(tl) == n * (n - 1) // 2
    assert set(tl.labels) == {"target", "nontarget"}
    corpus.write_trial_list(tmp_path / "t.txt", tl)
    back = corpus.parse_trial_list(tmp_path / "t.txt")
    assert list(zip(back.enroll, back.test, back.labels)) == list(
        zip(tl.enroll, tl.test, tl.labels)
    )


def test_score_file_roundtrip(tmp_path):
    tl = corpus.TrialList(["a", "a"], ["b", "c"])
    scores = np.array([1.2345678901234567e-3, -7.0])
    corpus.write_scores(tmp_path / "s.txt", tl, scores)
    back_tl, back = corpus.read_scores(tmp_path / "s.txt")
    assert np.array_equal(back, scores)
    assert list(zip(back_tl.enroll, back_tl.test)) == [("a", "b"), ("a", "c")]
    (tmp_path / "bad.txt").write_text("a b notafloat\n")
    with pytest.raises(FormatError):
        corpus.read_scores(tmp_path / "bad.txt")


def test_trial_list_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_bytes(b"e1 t1 target\ne\xff t2 nontarget\n")
    with pytest.raises(FormatError, match="trials.txt"):
        corpus.parse_trial_list(path)


def test_score_file_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_bytes(b"a b 1.5\na \xc3 2.0\n")
    with pytest.raises(FormatError, match="scores.txt"):
        corpus.read_scores(path)


def test_corpus_index_non_utf8_is_format_error(tmp_path, small_corpus):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    index = tmp_path / "c" / "corpus.tsv"
    index.write_bytes(index.read_bytes() + b"\xfe\tspk\ttrain\n")
    with pytest.raises(FormatError, match="corpus.tsv"):
        corpus.load_corpus(tmp_path / "c")


@pytest.mark.parametrize(
    "line",
    [
        "frame_rate_hz\tfast",  # unparsable frame rate
        "frame_rate_hz\tnan",  # frame rates must be positive and finite
        "frame_rate_hz\tinf",
        "frame_rate_hz\t0",
        "frame_rate_hz\t-100",
        "spk000_u0\tspk000\ttrain",  # a uid listed twice
        "../elsewhere\tspk\ttrain",  # uid is a path, not a file name
        "absent\tspk\ttrain",  # no feature file for the uid
    ],
)
def test_corpus_index_bad_line_is_format_error(tmp_path, small_corpus, line):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    index = tmp_path / "c" / "corpus.tsv"
    index.write_text(index.read_text() + line + "\n")
    n_lines = len(index.read_text().splitlines())
    with pytest.raises(FormatError, match=f"corpus.tsv:{n_lines}:"):
        corpus.load_corpus(tmp_path / "c")


def test_load_corpus_reads_each_feature_file_on_first_use(tmp_path, small_corpus, monkeypatch):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    reads = []
    read_features = corpus.read_features
    monkeypatch.setattr(corpus, "read_features", lambda path: reads.append(path) or read_features(path))
    back = corpus.load_corpus(tmp_path / "c")
    assert reads == []
    utt = back.utterances[3]
    first = utt.features
    assert utt.features is first and len(reads) == 1
    assert np.array_equal(first, small_corpus.utterances[3].features)
    assert first.dtype == np.float64


def test_loaded_utterance_frees_its_matrix_when_dropped(tmp_path, small_corpus, monkeypatch):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    reads = []
    read_features = corpus.read_features
    monkeypatch.setattr(corpus, "read_features", lambda path: reads.append(path) or read_features(path))
    utt = corpus.load_corpus(tmp_path / "c").utterances[3]
    want = small_corpus.utterances[3].features
    assert utt.n_frames == want.shape[0] and reads == []  # from the header
    freed = []
    weakref.finalize(utt.features, freed.append, "freed")
    assert freed == ["freed"] and len(reads) == 1
    assert np.array_equal(utt.features, want) and len(reads) == 2


def test_malformed_feature_file_fails_on_first_use(tmp_path, small_corpus):
    corpus.save_corpus(small_corpus.utterances, tmp_path / "c", small_corpus.frame_rate_hz)
    uid = small_corpus.utterances[1].uid
    (tmp_path / "c" / "features" / f"{uid}.svf").write_bytes(b"SVF1garbage")
    back = corpus.load_corpus(tmp_path / "c")
    assert np.array_equal(back.utterances[0].features, small_corpus.utterances[0].features)
    with pytest.raises(FormatError, match=f"{uid}.svf"):
        back.utterances[1].features


def test_write_scores_bytes_match_numpy_scalar_formatting(tmp_path):
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
               1e-300, -1e-300, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 1 / 3]
    scores = np.concatenate([
        special,
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
        rng.integers(0, 2**64, 200, dtype=np.uint64).view(np.float64),  # random bit patterns
    ])
    n = len(scores)
    trials = corpus.TrialList([f"e{i}" for i in range(n)], [f"t{i}" for i in range(n)])
    path = tmp_path / "scores.txt"
    corpus.write_scores(path, trials, scores)
    # the per-element numpy scalar formatting the writer used before
    old = "\n".join(f"e{i} t{i} {s:.17g}" for i, s in enumerate(scores)) + "\n"
    assert path.read_bytes() == old.encode("utf-8")


def test_make_trials_bytes_match_the_per_pair_loop(small_corpus, tmp_path):
    for split in ("dev", "eval"):
        path = tmp_path / f"trials_{split}.txt"
        corpus.write_trial_list(path, corpus.make_trials(small_corpus, split))
        # the loop over (i, j), i < j, that wrote one line per pair before
        utts = small_corpus.split(split)
        old = "\n".join(
            f"{a.uid} {b.uid}" + (" target" if a.speaker == b.speaker else " nontarget")
            for i, a in enumerate(utts)
            for b in utts[i + 1:]
        ) + "\n"
        assert path.read_bytes() == old.encode("utf-8")


def test_unlabeled_trial_list_roundtrip(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("e1 t1\ne2 t2\n")
    tl = corpus.parse_trial_list(path)
    assert list(zip(tl.enroll, tl.test, tl.labels)) == [("e1", "t1", None), ("e2", "t2", None)]
    corpus.write_trial_list(tmp_path / "back.txt", tl)
    assert (tmp_path / "back.txt").read_text() == "e1 t1\ne2 t2\n"
    mixed = corpus.TrialList(["e1", "e2"], ["t1", "t2"], ["target", None])
    corpus.write_trial_list(tmp_path / "mixed.txt", mixed)
    assert (tmp_path / "mixed.txt").read_text() == "e1 t1 target\ne2 t2\n"
    with pytest.raises(InputError, match="differ in length"):
        corpus.TrialList(["e1", "e2"], ["t1"])


FIELDS = "expected 'enroll test [label]', got"


@pytest.mark.parametrize(
    "text, message",
    [
        # blank and comment lines count towards the line number
        ("\n# header\ne1 t1 target\n\n  # indented\ne2 t2 bogus\n", ":6: unknown trial label 'bogus'"),
        ("\n# header\ne1 t1 target\n\ne2 t2 target extra\n", f":5: {FIELDS} 4 fields"),
        ("e1 t1 target\n# a b c d e\ne2\n", f":3: {FIELDS} 1 fields"),
        # the first bad line in file order is the one reported
        ("e1 t1 target\ne1 t2 bogus\ne2 t2 target extra\n", ":2: unknown trial label 'bogus'"),
        ("e1 t1 target\ne2 t2 target extra\ne1 t2 bogus\n", f":2: {FIELDS} 4 fields"),
        ("e1 t1 target\ne1 t2 nontarget\ne2 t3 Target\n", ":3: unknown trial label 'Target'"),
    ],
)
def test_trial_list_error_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "trials.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        corpus.parse_trial_list(path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b 1.0\n\na b x\na b c d\n", ":3: bad score 'x'"),
        ("a b 1.0\n\na b c d\na b x\n", ":3: expected 'enroll test score'"),
        ("a b 1.0\na b 2.0\na b\n", ":3: expected 'enroll test score'"),
        ("a b 1.0\na b 2.0\na b 1,5\n", ":3: bad score '1,5'"),
    ],
)
def test_score_file_error_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "scores.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        corpus.read_scores(path)
    assert str(err.value) == f"{path}{message}"


def test_score_file_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("\na b 1.5\n\n#c d -inf\n")
    tl, scores = corpus.read_scores(path)
    assert list(zip(tl.enroll, tl.test, tl.labels)) == [("a", "b", None), ("#c", "d", None)]
    assert scores.tolist() == [1.5, -np.inf]


def test_importing_the_cli_does_not_import_scipy_signal():
    # only synth-data filters noise; every other CLI process skips the import
    code = "import sys, svpipe.cli; assert 'scipy.signal' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
