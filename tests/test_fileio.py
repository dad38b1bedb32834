import struct

import numpy as np
import pytest

from svpipe import fileio
from svpipe.errors import FormatError


def test_feature_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((37, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.svf"
    fileio.write_features(path, frames)
    back = fileio.read_features(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, frames)
    # second write of the read data gives identical bytes
    path2 = tmp_path / "m2.svf"
    fileio.write_features(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_feature_empty_and_bad_magic(tmp_path):
    path = tmp_path / "empty.svf"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        fileio.read_features(path)
    path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="magic"):
        fileio.read_features(path)


def test_feature_truncation_names_byte_counts(tmp_path):
    path = tmp_path / "trunc.svf"
    payload = struct.pack("<4f", 1, 2, 3, 4)
    path.write_bytes(b"SVF1" + struct.pack("<II", 3, 2) + payload)
    with pytest.raises(FormatError) as err:
        fileio.read_features(path)
    assert "36" in str(err.value)  # expected bytes for 3x2 floats
    assert "28" in str(err.value)  # actual file size


def test_container_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "a.weight": rng.standard_normal((3, 4)),
        "a.bias": rng.standard_normal(4),
        "scalar": np.float64(3.25),
        "cube": rng.standard_normal((2, 2, 2)),
    }
    path = tmp_path / "m.svm"
    fileio.write_container(path, tensors)
    back = fileio.read_container(path)
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(np.asarray(back[name]), np.asarray(tensors[name]))
    path2 = tmp_path / "m2.svm"
    fileio.write_container(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_container_duplicate_name_rejected(tmp_path):
    path = tmp_path / "dup.svm"
    # hand-build a container with a duplicated tensor name
    name = b"t"
    entry = struct.pack("<I", 1) + name + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    path.write_bytes(b"SVM1" + struct.pack("<II", 1, 2) + entry + entry)
    with pytest.raises(FormatError, match="duplicate"):
        fileio.read_container(path)


def test_container_version_mismatch(tmp_path):
    path = tmp_path / "v9.svm"
    path.write_bytes(b"SVM1" + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError, match="version"):
        fileio.read_container(path)


def test_container_truncation_and_trailing(tmp_path):
    path = tmp_path / "bad.svm"
    name = b"t"
    entry = struct.pack("<I", 1) + name + struct.pack("<B", 1) + struct.pack("<Q", 4)
    path.write_bytes(b"SVM1" + struct.pack("<II", 1, 1) + entry + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated"):
        fileio.read_container(path)
    good = b"SVM1" + struct.pack("<II", 1, 0)
    path.write_bytes(good + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        fileio.read_container(path)


def test_container_non_utf8_name_is_format_error(tmp_path):
    path = tmp_path / "bad_name.svm"
    name = b"\xff\xfe"
    path.write_bytes(
        b"SVM1" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
        + struct.pack("<B", 0) + struct.pack("<d", 1.0)
    )
    with pytest.raises(FormatError) as err:
        fileio.read_container(path)
    assert err.value.offset == 16  # first byte of the name


def test_container_rank_beyond_numpy_is_format_error(tmp_path):
    # an empty tensor of rank 65 passes every size check but no ndarray has
    # that many dims
    path = tmp_path / "deep.svm"
    path.write_bytes(
        b"SVM1" + struct.pack("<II", 1, 1) + struct.pack("<I", 1) + b"w"
        + struct.pack("<B", 65) + struct.pack("<Q", 0) * 65
    )
    with pytest.raises(FormatError, match="rank 65"):
        fileio.read_container(path)


def test_failed_container_overwrite_keeps_the_old_file(tmp_path):
    path = tmp_path / "model.svm"
    fileio.write_container(path, {"a": 1.0, "b": np.arange(3.0)})
    good = path.read_bytes()
    with pytest.raises(FormatError, match="utf-8"):
        fileio.write_container(path, {"a": 2.0, "\udc80": 3.0})
    with pytest.raises(ValueError):
        fileio.write_container(path, {"a": 2.0, "b": "not a number"})
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["model.svm"]


def _mlp_names(prefix, n_layers):
    names = [f"{prefix}n_layers"]
    for i in range(n_layers):
        names += [f"{prefix}layers.{i}.{part}" for part in ("weight", "bias", "activation")]
    return names


def _persisted_models():
    """A small instance of every persisted type and its tensor names, in order."""
    from svpipe import dplda, e2e, gmm, ivecnet, ivector, plda, statsnet

    rng = np.random.default_rng(3)
    ubm = gmm.DiagGmm(
        np.array([0.25, 0.75]), rng.standard_normal((2, 3)), rng.random((2, 3)) + 0.5
    )
    cov = np.eye(3) + 0.1 * np.ones((3, 3))
    backend = dplda.DpldaParams(
        rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal(2), -0.75
    )
    pca = ivecnet.PcaModel(rng.standard_normal(6), np.linalg.qr(rng.standard_normal((6, 4)))[0])
    snet = statsnet.make_stats_net(9, 2, hidden=(5,), seed=1)
    ivnet = ivecnet.make_ivec_net(4, 2, hidden=(3,), seed=2)
    system = e2e.assemble_system(
        e2e.FrontendConfig(window_s=0.5, frame_rate_hz=100.0, context=1, n_dct=3),
        snet, ubm, pca, ivnet, backend, relevance=16.0,
    )
    system_names = (
        ["frontend.window_s", "frontend.frame_rate_hz", "frontend.context", "frontend.n_dct"]
        + ["relevance"]
        + _mlp_names("stats_net.", 2)
        + ["ubm.weights", "ubm.means", "ubm.vars", "pca.mean", "pca.basis"]
        + _mlp_names("ivec_net.", 2)
        + ["dplda.lam", "dplda.gamma", "dplda.c", "dplda.k"]
        + _mlp_names("anchor.stats_net.", 2)
        + _mlp_names("anchor.ivec_net.", 2)
        + ["anchor.dplda.lam", "anchor.dplda.gamma", "anchor.dplda.c", "anchor.dplda.k"]
    )
    return [
        (ubm, ["weights", "means", "vars"]),
        (ivector.TvModel(rng.standard_normal((6, 2)), 2, 3), ["t", "n_components", "dim"]),
        (ivector.IvecPrep(rng.standard_normal(3), rng.standard_normal((3, 2))), ["mean", "lda"]),
        (plda.TwoCovPlda(rng.standard_normal(3), cov, 2 * cov), ["mu", "between", "within"]),
        (backend, ["lam", "gamma", "c", "k"]),
        (pca, ["mean", "basis"]),
        (snet, _mlp_names("", 2)),
        (ivnet, _mlp_names("", 2)),
        (system, system_names),
    ]


@pytest.mark.parametrize(
    "model, names", [pytest.param(m, n, id=type(m).__name__) for m, n in _persisted_models()]
)
def test_model_tensor_names_and_bit_exact_round_trip(tmp_path, model, names):
    tensors = fileio.to_tensors(model)
    assert list(tensors) == names
    nested = fileio.to_tensors(model, "outer.")
    assert list(nested) == [f"outer.{name}" for name in names]
    path = tmp_path / "model.svm"
    fileio.write_container(path, tensors)
    back = fileio.from_tensors(type(model), fileio.read_container(path))
    assert type(back) is type(model)
    again = fileio.to_tensors(back)
    assert list(again) == names
    for name in names:
        assert np.array_equal(np.asarray(again[name]), np.asarray(tensors[name]))
    path2 = tmp_path / "again.svm"
    fileio.write_container(path2, again)
    assert path2.read_bytes() == path.read_bytes()


def test_scalar_fields_read_back_through_their_annotations():
    from svpipe import e2e, ivector

    tv = fileio.from_tensors(
        ivector.TvModel, fileio.to_tensors(ivector.TvModel(np.zeros((6, 2)), 2, 3), "tv."), "tv."
    )
    assert type(tv.n_components) is int and type(tv.dim) is int
    fc = fileio.from_tensors(
        e2e.FrontendConfig, fileio.to_tensors(e2e.FrontendConfig(0.5, 100.0, 4, 3))
    )
    assert fc == e2e.FrontendConfig(0.5, 100.0, 4, 3)
    assert type(fc.window_s) is float and type(fc.context) is int


def test_missing_or_malformed_tensor_is_format_error(tmp_path):
    from svpipe import gmm, ivector

    path = tmp_path / "tv.svm"
    fileio.write_container(path, {"t": np.zeros((6, 2)), "n_components": np.ones(2), "dim": 3.0})
    tensors = fileio.read_container(path)
    with pytest.raises(FormatError, match=r"tv\.svm: tensor 'n_components' is not one int"):
        fileio.from_tensors(ivector.TvModel, tensors)
    for bad in (2.5, np.nan):
        tensors["n_components"] = np.float64(bad)
        with pytest.raises(FormatError, match="'n_components' is not one int"):
            fileio.from_tensors(ivector.TvModel, tensors)
    with pytest.raises(FormatError, match=r"tv\.svm: no tensor 'weights'"):
        fileio.from_tensors(gmm.DiagGmm, tensors)
    assert "weights" not in tensors and tensors.get("weights") is None


def test_malformed_network_and_system_scalars_are_pipeline_errors():
    from svpipe import e2e, statsnet

    system = _persisted_models()[-1][0]
    tensors = fileio.to_tensors(system)
    tensors["relevance"] = np.ones(2)
    with pytest.raises(FormatError, match="'relevance' is not one float"):
        fileio.from_tensors(e2e.E2eSystem, tensors)
    tensors = fileio.to_tensors(statsnet.make_stats_net(4, 2, hidden=(3,)))
    for code in (9, -1):
        tensors["layers.1.activation"] = np.float64(code)
        with pytest.raises(FormatError, match=f"'layers.1.activation' holds code {code},"):
            fileio.from_tensors(statsnet.StatsNet, tensors)
    tensors["n_layers"] = np.arange(2.0)
    with pytest.raises(FormatError, match="'n_layers' is not one int"):
        fileio.from_tensors(statsnet.StatsNet, tensors)
