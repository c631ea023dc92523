import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spv.matrixio import (
    DataError,
    ModelConfig,
    SampleMatrix,
    SampleMeta,
    check_pair,
    json_value,
    load_matrix,
    load_metadata,
    normalize_columns_array,
    save_matrix,
    save_metadata,
)


def test_csv_parse_two_by_two(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    m = load_matrix(path)
    assert m.data.shape == (2, 2)
    np.testing.assert_array_equal(m.data, [[1, 2], [3, 4]])


def test_csv_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# one row per feature\n1,2\n\n3,4\n")
    assert load_matrix(path).data.shape == (2, 2)


def test_csv_non_numeric_cell_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,abc\n")
    with pytest.raises(DataError, match=r"row 2, column 2"):
        load_matrix(path)


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        load_matrix(path)


def test_csv_rejects_nan(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_matrix(path)


def test_empty_matrix_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing\n")
    with pytest.raises(DataError, match="empty"):
        load_matrix(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_matrix(tmp_path / "nope.csv")


def test_csv_roundtrip_within_1e12(tmp_path):
    rng = np.random.default_rng(0)
    m = SampleMatrix(rng.normal(size=(8, 5)))
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    back = load_matrix(path)
    assert np.max(np.abs(back.data - m.data)) <= 1e-12


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = SampleMatrix(rng.normal(size=(100, 50)))
    path = tmp_path / "m.spvm"
    save_matrix(m, path)
    back = load_matrix(path)
    assert np.array_equal(back.data, m.data)


def test_binary_truncation_detected(tmp_path):
    path = tmp_path / "m.spvm"
    save_matrix(SampleMatrix(np.ones((3, 3))), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(DataError, match="bytes"):
        load_matrix(path)


def test_save_single_zero(tmp_path):
    path = tmp_path / "z.csv"
    save_matrix(SampleMatrix([[0.0]]), path)
    assert path.read_text().strip() == "0"
    assert load_matrix(path).data[0, 0] == 0.0


def test_save_unwritable_path_errors(tmp_path):
    with pytest.raises(DataError):
        save_matrix(SampleMatrix([[1.0]]), tmp_path / "no_dir" / "m.csv")


def test_normalize_three_four_five():
    m = normalize_columns_array([[3.0], [4.0]])
    np.testing.assert_allclose(m[:, 0], [0.6, 0.8])


def test_normalize_unit_column_unchanged():
    col = np.array([[0.6], [0.8]])
    out = normalize_columns_array(col)
    assert np.max(np.abs(out - col)) <= 1e-15


def test_normalize_zero_column_names_index():
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DataError, match="index 1"):
        normalize_columns_array(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-6),
        min_size=2,
        max_size=6,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_normalize_scale_invariant_and_idempotent(values, scale):
    col = np.array(values)[:, None]
    base = normalize_columns_array(col)
    scaled = normalize_columns_array(col * scale)
    assert np.max(np.abs(base - scaled)) <= 1e-12
    again = normalize_columns_array(base)
    assert np.max(np.abs(again - base)) <= 1e-12


def test_matrix_rejects_nonfinite_and_empty():
    with pytest.raises(DataError):
        SampleMatrix(np.array([[np.inf]]))
    with pytest.raises(DataError):
        SampleMatrix(np.zeros((0, 3)))


def test_meta_roundtrip_and_length_check(tmp_path):
    meta = SampleMeta(labels=[0, 1, -1], poses=[[0, 0, 0], [1, 2, 3], [-4, 5, -6]], blocks=[1, 1, 2])
    path = tmp_path / "meta.json"
    save_metadata(meta, path)
    back = load_metadata(path, expect_n=3)
    np.testing.assert_array_equal(back.labels, meta.labels)
    np.testing.assert_array_equal(back.poses, meta.poses)
    np.testing.assert_array_equal(back.blocks, meta.blocks)
    with pytest.raises(DataError, match="expected 4"):
        load_metadata(path, expect_n=4)


def test_meta_validation():
    with pytest.raises(DataError):
        SampleMeta(labels=[0, 1], poses=[[0, 0, 0]])
    with pytest.raises(DataError):
        SampleMeta(labels=[0], poses=[[200, 0, 0]])
    with pytest.raises(DataError):
        SampleMeta(labels=[-2], poses=[[0, 0, 0]])


def test_check_pair_rejects_mismatch():
    m = SampleMatrix(np.ones((2, 3)))
    meta = SampleMeta(labels=[0, 1], poses=np.zeros((2, 3)))
    with pytest.raises(DataError):
        check_pair(m, meta)


def test_model_config_defaults_and_validation():
    config = ModelConfig()
    assert config.lam == 0.005
    assert config.mu == 0.005
    assert config.tau == 0.5
    assert config.xi == 3
    with pytest.raises(DataError):
        ModelConfig(lam=0.0)
    with pytest.raises(DataError):
        ModelConfig(tau=1.5)
    with pytest.raises(DataError):
        ModelConfig(sci_threshold=1.0)
    with pytest.raises(DataError):
        ModelConfig(row_norm_q=3)


def test_model_config_json_roundtrip(tmp_path):
    config = ModelConfig(lam=0.01, row_norm_q=math.inf, xi=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config.to_dict()))
    back = ModelConfig.from_json(path)
    assert back == config


def test_model_config_accepts_lambda_alias():
    config = ModelConfig.from_dict({"lambda": 0.02})
    assert config.lam == 0.02
    with pytest.raises(DataError, match="unknown config key"):
        ModelConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "raw",
    [
        {"labels": ["x"], "poses": [[0, 0, 0]]},
        {"labels": [1], "poses": [[0, 0, "a"]]},
        {"labels": [1], "poses": [[0, 0, 0]], "blocks": [None]},
        {"labels": [1.7], "poses": [[0, 0, 0]]},
        {"labels": ["1"], "poses": [[0, 0, 0]]},
        {"labels": [1], "poses": [["0", "0", "0"]]},
    ],
)
def test_wrong_typed_metadata_is_a_data_error(tmp_path, raw):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="wrong type"):
        load_metadata(path)


@pytest.mark.parametrize("marks", [["x"], [[0]], 3, [0.9]])
def test_wrong_typed_natural_marks_are_a_data_error(marks):
    raw = {"labels": [1], "poses": [[0, 0, 0]], "natural": marks}
    with pytest.raises(DataError, match="natural"):
        json_value(raw, "natural", "m.json", 1, integer=True)
