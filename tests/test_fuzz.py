"""Fuzzed readers: any input parses or raises the reader's named error.

Each reader gets random bytes plus inputs that pass its magic or header
check, so the fuzzing also reaches the length, size and row checks. The
IDX readers also get those inputs gzipped, whole or cut short, and random
bytes after the gzip magic. One level up, `advguard eval` runs over
corpora of random files, and `advguard entropy`, `filter` and `detect`
over single random and well-formed image files. Each command exits with
its documented code and names its error without a traceback.
"""

import contextlib
import gzip
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
from advguard.cli import main
from advguard.attack import _read_manifest

SIZES = st.integers(0, 5) | st.integers(0, 2**32 - 1)


def with_gzip(payloads):
    """`payloads`, plus each gzipped whole or cut short, plus random bytes after the gzip magic."""
    compressed = payloads.map(lambda data: gzip.compress(data, mtime=0))
    return (payloads | compressed
            | st.builds(lambda data, cut: data[:cut], compressed, st.integers(0, 64))
            | st.binary(max_size=48).map(lambda tail: b"\x1f\x8b" + tail))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(with_gzip(st.binary(max_size=48) | st.builds(
    lambda magic, count, rows, cols, payload: struct.pack(">IIII", magic, count, rows, cols) + payload,
    st.sampled_from([0x00000803, 0x00000801]), SIZES, SIZES, SIZES, st.binary(max_size=32))))
def test_idx_images_parse_or_raise_format_error(data):
    try:
        images = ag.read_idx_images(data)
    except ag.FormatError:
        return
    assert all(isinstance(img, ag.Image) for img in images)


@settings(max_examples=300, deadline=None)
@given(with_gzip(st.binary(max_size=32) | st.builds(
    lambda magic, count, payload: struct.pack(">II", magic, count) + payload,
    st.sampled_from([0x00000801, 0x00000803]), SIZES, st.binary(max_size=24))))
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


# a corpus file: missing, random bytes, a long first token (bytes with no ASCII
# whitespace) before three header fields, or a Netpbm header of random fields
CORPUS_FILES = st.none() | st.binary(max_size=2000) | st.binary(min_size=100, max_size=2000).map(
    lambda data: bytes(c | 0x80 for c in data) + b" 1 1 255\n\x00") | st.builds(
    lambda magic, w, h, maxval, payload: b"%s %d %d %d\n" % (magic, w, h, maxval) + payload,
    st.sampled_from([b"P5", b"P6", b"P4"]), st.integers(0, 9), st.integers(0, 9),
    st.sampled_from([255, 65535]), st.binary(max_size=250))


@pytest.fixture(scope="module")
def model_path(workdir):
    """A random 64-16-4 model: the size of an 8x8 digit."""
    rng = np.random.default_rng(7)
    path = workdir / "eval-model.bin"
    ag.save_model(ag.ClassifierModel(rng.uniform(-1, 1, (64, 16)), rng.uniform(-1, 1, 16),
                                     rng.uniform(-1, 1, (16, 4)), rng.uniform(-1, 1, 4)), path)
    return path


def run_cli(argv):
    """cli.main's exit code on argv, after checking that stderr holds no traceback and only short lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(arg) for arg in argv])
    lines = stderr.getvalue().splitlines()
    assert "Traceback" not in stderr.getvalue()
    assert all(len(line) < 200 for line in lines), max(lines, key=len)
    return rc


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(CORPUS_FILES, CORPUS_FILES), min_size=1, max_size=20))
def test_eval_over_random_files_names_every_error(workdir, model_path, pairs):
    corpus = workdir / "corpus"
    corpus.mkdir(exist_ok=True)
    for stale in corpus.iterdir():
        stale.unlink()
    rows, readable, unreadable = ["id,original_label,adversarial_label"], [], False
    for i, pair in enumerate(pairs):
        rows.append(f"{i:05d},0,1")
        for suffix, data in zip(("orig", "adv"), pair):
            if data is not None:
                (corpus / f"{i:05d}_{suffix}.pgm").write_bytes(data)
            try:
                readable.append(ag.read_pgm_ppm(data))
            except (TypeError, ag.FormatError):  # None reads as a missing file
                unreadable = True
    (corpus / "manifest.csv").write_text("\n".join(rows) + "\n")
    rc = run_cli(["eval", "--model", model_path, "--corpus", corpus])
    # a file the 64-input model cannot take is a classifier error
    assert rc == (3 if unreadable else 4 if any(img.pixels.size != 64 for img in readable) else 0)


def netpbm(magic, size, levels, seed, cut):
    """A well-formed P5 or P6 file of the given (width, height) and seeded pixels below levels, cut to `cut` bytes."""
    width, height = size
    planes = 3 if magic == b"P6" else 1
    pixels = np.random.default_rng(seed).integers(0, levels, width * height * planes, dtype=np.uint8)
    return (b"%s %d %d 255\n" % (magic, width, height) + pixels.tobytes())[:cut]


# a well-formed image file, whole or cut short: 8x8 gray fits the 64-input model, and 40x40 gray
# with 2, 64 or 256 levels falls in band 2, 4 or 6
NETPBM_FILES = st.builds(
    netpbm, st.sampled_from([b"P5", b"P6"]),
    st.sampled_from([(8, 8), (40, 40)]) | st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.sampled_from([2, 64, 256]), st.integers(0, 2**32 - 1), st.none() | st.integers(0, 500))
STAGES = st.sampled_from(["quantized", "smoothed", "combined"])


def check_single_image_commands(workdir, model_path, data, stage):
    """entropy, filter and detect on one file (None: missing) each exit with the code its content calls for."""
    path, out = workdir / "image.pgm", workdir / "filtered.pgm"
    path.unlink(missing_ok=True)
    if data is not None:
        path.write_bytes(data)
    try:
        img = ag.read_pgm_ppm(data)
    except (TypeError, ag.FormatError):  # None reads as a missing file
        img = None
    # an unreadable or missing file is an operational failure; so is asking for a smoothed
    # stage that the image's band does not make
    assert run_cli(["entropy", path]) == (0 if img is not None else 1)
    unsmoothed = img is not None and not ag.select_strategy(ag.entropy_2d(img)).smooth
    assert run_cli(["filter", path, out, "--stage", stage]) == (
        1 if img is None or stage == "smoothed" and unsmoothed else 0)
    assert run_cli(["detect", path, "--model", model_path]) == (
        1 if img is None else 0 if img.pixels.size == 64 else 4)


@settings(max_examples=60, deadline=None)
@given(CORPUS_FILES, STAGES)
def test_single_image_commands_over_random_files(workdir, model_path, data, stage):
    check_single_image_commands(workdir, model_path, data, stage)


@settings(max_examples=150, deadline=None)
@given(NETPBM_FILES, STAGES)
def test_single_image_commands_over_well_formed_files(workdir, model_path, data, stage):
    check_single_image_commands(workdir, model_path, data, stage)
