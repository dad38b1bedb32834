"""Property tests: every file reader turns malformed bytes into FormatError.

Each reader gets arbitrary bytes, arbitrary bytes behind a valid header (so
the parser gets past its magic) and arbitrary mixes of the tokens its format
is made of; the per-utterance table reader gets well-formed containers whose
rows have arbitrary ranks, shapes and values. It may accept the input or
raise FormatError; any other exception fails the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from svpipe import cli, fileio
from svpipe.corpus import load_corpus, parse_trial_list, read_scores
from svpipe.errors import FormatError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_TOKENS = [
    b"\t", b" ", b"\n", b"\r", b"#", b"/", b"\x00", b"\xff", b"\xc3", b"1.5",
    b"-inf", b"nan", b"1e999", b"u1", b"spk", b"train", b"dev", b"target",
    b"nontarget", b"frame_rate_hz",
]


def _text_bytes():
    tokens = st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=6))
    return st.one_of(
        st.binary(max_size=200),
        st.lists(tokens, max_size=40).map(b"".join),
    )


def _behind(header):
    return st.binary(max_size=200).map(lambda tail: header + tail)


def _only_format_errors(read, path, data):
    path.write_bytes(data)
    try:
        read(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A corpus directory with one readable utterance, u1."""
    root = tmp_path_factory.mktemp("readers")
    (root / "features").mkdir()
    fileio.write_features(root / "features" / "u1.svf", np.ones((3, 2)))
    return root


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=200),
        _behind(fileio.CONTAINER_MAGIC),
        st.integers(0, 3).flatmap(
            lambda n: _behind(fileio.CONTAINER_MAGIC + struct.pack("<II", 1, n))
        ),
    )
)
def test_read_container_raises_only_format_errors(corpus_dir, data):
    _only_format_errors(fileio.read_container, corpus_dir / "model.svm", data)


@SETTINGS
@given(
    st.one_of(
        st.binary(max_size=200),
        st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
            lambda td: _behind(fileio.FEATURE_MAGIC + struct.pack("<II", *td))
        ),
    )
)
def test_read_features_raises_only_format_errors(corpus_dir, data):
    _only_format_errors(fileio.read_features, corpus_dir / "utt.svf", data)


@SETTINGS
@given(_text_bytes())
def test_load_corpus_raises_only_format_errors(corpus_dir, data):
    _only_format_errors(lambda path: load_corpus(path.parent), corpus_dir / "corpus.tsv", data)


@SETTINGS
@given(_text_bytes())
def test_parse_trial_list_raises_only_format_errors(corpus_dir, data):
    _only_format_errors(parse_trial_list, corpus_dir / "trials.txt", data)


@SETTINGS
@given(_text_bytes())
def test_read_scores_raises_only_format_errors(corpus_dir, data):
    _only_format_errors(read_scores, corpus_dir / "scores.txt", data)


# up to three dimensions, or the most an ndarray has, which stacking would exceed
_ROW_SHAPES = st.one_of(
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    st.just((1,) * (64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32)),
)


@st.composite
def _table_files(draw):
    """A table, its uids and a container of their rows: per column, one shape of
    the column's rank or of any rank, or a shape per row; now and then a row
    is missing."""
    table = draw(st.sampled_from([cli.STATS, cli.IVECS]))
    uids = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    tensors = {}
    for suffix, rank in table.columns.items():
        fitting = array_shapes(min_dims=rank, max_dims=rank, min_side=0, max_side=3)
        shared = draw(st.one_of(st.none(), fitting, _ROW_SHAPES))
        for uid in uids:
            if draw(st.integers(0, 9)) == 0:  # a missing row
                continue
            shape = shared if shared is not None else draw(_ROW_SHAPES)
            tensors[uid + suffix] = draw(arrays(np.float64, shape, elements=st.floats()))
    return table, uids, tensors


@SETTINGS
@given(_table_files())
def test_read_table_raises_only_format_errors(corpus_dir, table_file):
    table, uids, tensors = table_file
    cfg = cli.Config(workdir=corpus_dir)
    fileio.write_container(cfg.path(table.name), tensors)
    try:
        columns = cli._read_table(cfg, table, uids)
    except FormatError:
        return
    for suffix, column in zip(table.columns, columns, strict=True):
        assert np.array_equal(column, np.stack([tensors[uid + suffix] for uid in uids]))
        assert np.isfinite(column).all()
