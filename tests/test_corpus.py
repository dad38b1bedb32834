import numpy as np
import pytest

from svpipe import corpus
from svpipe.errors import FormatError


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
        seen[split] = set(small_corpus.speakers(split))
        assert seen[split], f"{split} split is empty"
    assert seen["train"] & seen["dev"] == set()
    assert seen["train"] & seen["eval"] == set()
    assert seen["dev"] & seen["eval"] == set()
    ids = [u.uid for u in small_corpus.utterances]
    assert len(ids) == len(set(ids))
    assert all(u.features.shape[0] >= 1 for u in small_corpus.utterances)


def test_pure_speaker_signal_when_noise_and_channel_zero():
    cfg = corpus.SynthConfig(n_speakers=3, utts_per_speaker=3, min_frames=20,
                             max_frames=40, dim=4, speaker_dim=8, channel_dim=0,
                             noise_scale=0.0, nonlinearity=1.0, seed=5,
                             frame_rate_hz=100.0)
    corp = corpus.synth_corpus(cfg)
    for speaker in corp.speakers():
        utts = [u for u in corp.utterances if u.speaker == speaker]
        reference = utts[0].features[0]
        for u in utts:
            assert np.array_equal(u.features, np.tile(reference, (u.features.shape[0], 1)))


def test_corpus_save_load_roundtrip(tmp_path, small_corpus):
    corpus.save_corpus(small_corpus, tmp_path / "c")
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
    assert [(t.enroll, t.test, t.label) for t in tl.trials] == [
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
    assert len(tl.trials) == n * (n - 1) // 2
    assert {t.label for t in tl.trials} == {"target", "nontarget"}
    corpus.write_trial_list(tmp_path / "t.txt", tl)
    back = corpus.parse_trial_list(tmp_path / "t.txt")
    assert [(t.enroll, t.test, t.label) for t in back.trials] == [
        (t.enroll, t.test, t.label) for t in tl.trials
    ]


def test_score_file_roundtrip(tmp_path):
    tl = corpus.TrialList([corpus.Trial("a", "b"), corpus.Trial("a", "c")])
    scores = np.array([1.2345678901234567e-3, -7.0])
    corpus.write_scores(tmp_path / "s.txt", tl, scores)
    back_tl, back = corpus.read_scores(tmp_path / "s.txt")
    assert np.array_equal(back, scores)
    assert [(t.enroll, t.test) for t in back_tl.trials] == [("a", "b"), ("a", "c")]
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
    corpus.save_corpus(small_corpus, tmp_path / "c")
    index = tmp_path / "c" / "corpus.tsv"
    index.write_bytes(index.read_bytes() + b"\xfe\tspk\ttrain\n")
    with pytest.raises(FormatError, match="corpus.tsv"):
        corpus.load_corpus(tmp_path / "c")


@pytest.mark.parametrize(
    "line",
    [
        "frame_rate_hz\tfast",  # unparsable frame rate
        "../elsewhere\tspk\ttrain",  # uid is a path, not a file name
        "absent\tspk\ttrain",  # no feature file for the uid
    ],
)
def test_corpus_index_bad_line_is_format_error(tmp_path, small_corpus, line):
    corpus.save_corpus(small_corpus, tmp_path / "c")
    index = tmp_path / "c" / "corpus.tsv"
    index.write_text(index.read_text() + line + "\n")
    n_lines = len(index.read_text().splitlines())
    with pytest.raises(FormatError, match=f"corpus.tsv:{n_lines}:"):
        corpus.load_corpus(tmp_path / "c")
