"""Fuzzed readers: any input parses or raises the reader's named error.

Each reader gets random bytes plus inputs that pass its magic or header
check, so the fuzzing also reaches the length, size and row checks.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
from advguard.detector import _read_manifest

SIZES = st.integers(0, 5) | st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48) | st.builds(
    lambda magic, count, rows, cols, payload: struct.pack(">IIII", magic, count, rows, cols) + payload,
    st.sampled_from([0x00000803, 0x00000801]), SIZES, SIZES, SIZES, st.binary(max_size=32)))
def test_idx_images_parse_or_raise_format_error(data):
    try:
        images = ag.read_idx_images(data)
    except ag.FormatError:
        return
    assert all(isinstance(img, ag.Image) for img in images)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=32) | st.builds(
    lambda magic, count, payload: struct.pack(">II", magic, count) + payload,
    st.sampled_from([0x00000801, 0x00000803]), SIZES, st.binary(max_size=24)))
def test_idx_labels_parse_or_raise_format_error(data):
    try:
        labels = ag.read_idx_labels(data)
    except ag.FormatError:
        return
    assert all(0 <= label <= 9 for label in labels)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | st.builds(
    lambda version, d, h, n, payload: b"ADVG" + struct.pack("<IIII", version, d, h, n) + payload,
    st.sampled_from([1, 0, 2]), SIZES, SIZES, SIZES, st.binary(max_size=96)))
def test_model_file_loads_or_raises_value_error(workdir, data):
    path = workdir / "model.bin"
    path.write_bytes(data)
    try:
        model = ag.load_model(path)
    except ValueError:
        return
    assert isinstance(model, ag.ClassifierModel)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.binary()
       | st.text().map(lambda rows: "id,original_label,adversarial_label\n" + rows))
def test_manifest_reads_or_raises_corpus_error(workdir, text):
    (workdir / "manifest.csv").write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        ids = _read_manifest(workdir)
    except ag.CorpusError:
        return
    assert ids and all(isinstance(i, str) for i in ids)
