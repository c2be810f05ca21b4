import csv
import os

import numpy as np
import pytest

import advguard as ag
import oracles
from advguard import entropy, image
from synth import template_digits
from test_denoise import band_image


def constant_classifier(n=4):
    pv = [1.0] + [0.0] * (n - 1)
    return lambda img: ag.PredictionVector(pv)


def threshold_classifier(img):
    """Label 1 when the top-left pixel is at least 100, else 0.

    Under the 2-interval quantizer this flags exactly the images whose
    top-left pixel lies in [100, 127]: those quantize to 0 and cross the
    threshold, while values below 100 and at 128+ keep their label.
    """
    value = int(img.pixels[0, 0, 0])
    return ag.PredictionVector([0.0, 1.0] if value >= 100 else [1.0, 0.0])


def flat_image(corner, fill=0, size=8):
    px = np.full((size, size), fill, dtype=np.uint8)
    px[0, 0] = corner
    return ag.Image(px)


def write_corpus(tmp_path, pairs, ext="pgm"):
    """pairs: list of (orig Image, adv Image); returns the corpus directory."""
    out = tmp_path / "corpus"
    out.mkdir()
    rows = []
    for i, (orig, adv) in enumerate(pairs):
        sample_id = f"{i:05d}"
        (out / f"{sample_id}_orig.{ext}").write_bytes(ag.write_pgm_ppm(orig))
        (out / f"{sample_id}_adv.{ext}").write_bytes(ag.write_pgm_ppm(adv))
        rows.append((sample_id, 0, 1))
    with open(out / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("id", "original_label", "adversarial_label"))
        writer.writerows(rows)
    return out


class TestDetect:
    def test_constant_classifier_never_flags(self):
        rng = np.random.default_rng(3)
        classify = constant_classifier()
        for _ in range(5):
            img = ag.Image(rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
            verdict = ag.detect(classify, img)
            assert not verdict.adversarial
            assert verdict.original_label == verdict.denoised_label == 0

    def test_verdict_records_entropy_and_strategy(self):
        img = ag.Image(np.full((8, 8), 7, dtype=np.uint8))
        verdict = ag.detect(constant_classifier(), img, sample_id="s1")
        assert verdict.sample_id == "s1"
        assert verdict.h2d == 0.0
        assert verdict.strategy == ag.DenoiseStrategy(2)

    def test_flag_raised_when_label_changes(self):
        verdict = ag.detect(threshold_classifier, flat_image(110))
        assert verdict.adversarial
        assert (verdict.original_label, verdict.denoised_label) == (1, 0)

    def test_deterministic_and_roundtrip_invariant(self):
        img = flat_image(110)
        v1 = ag.detect(threshold_classifier, img)
        rereadable = ag.read_pgm_ppm(ag.write_pgm_ppm(img))
        v2 = ag.detect(threshold_classifier, rereadable)
        assert v1.adversarial == v2.adversarial
        assert v1.h2d == v2.h2d

    def test_classifier_failure_carries_sample_id(self):
        def broken(img):
            raise RuntimeError("socket closed")

        with pytest.raises(ag.DetectionError, match="sample s9.*socket closed"):
            ag.detect(broken, flat_image(0), sample_id="s9")


class Recorder:
    """A batch classifier over one random model per input size; keeps every batch it gets."""

    def __init__(self, seed):
        self.seed = seed
        self.models, self.batches = {}, []

    def model(self, d):
        if d not in self.models:
            r = np.random.default_rng([self.seed, d])
            self.models[d] = ag.ClassifierModel(r.normal(0, 0.1, (d, 6)), r.normal(0, 0.1, 6),
                                                r.normal(0, 1, (6, 5)), r.normal(0, 0.1, 5))
        return self.models[d]

    def batch(self, images):
        self.batches.append(list(images))
        return ag.ModelClassifier(self.model(images[0].pixels.size)).batch(images)

    def __call__(self, img):
        raise AssertionError("a classifier with batch() is not called image by image")


def mixed_stack(seed, count=48):
    """Images of a few shapes (sides 1-39, 1 and 3 planes) whose content spans all three bands."""
    rng = np.random.default_rng(seed)
    shapes = [(39, 39, 3), (28, 28, 1), (1, 1, 1), (1, 7, 3), (22, 23, 1), (33, 30, 1), (4, 5, 3)]
    images = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        levels = rng.choice([1, 2, 16, 256])  # constant, two-valued, coarse, noise
        px = rng.integers(0, levels, size=shape) * (255 // max(levels - 1, 1))
        images.append(ag.Image(px.astype(np.uint8)))
    return images


class TestDetectBatch:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_single_image_calls_exactly(self, seed):
        images = mixed_stack(seed)
        classify = Recorder(seed)
        verdicts = ag.detect_batch(classify, images, [str(i) for i in range(len(images))])
        denoised = {id(raw): den for b in classify.batches
                    for raw, den in zip(b[:len(b) // 2], b[len(b) // 2:])}
        assert len(denoised) == len(images)
        assert {v.strategy.intervals for v in verdicts} == {2, 4, 6}
        for i, (img, v) in enumerate(zip(images, verdicts)):
            single = ag.entropy_2d(img)
            assert v.sample_id == str(i)
            assert v.h2d.hex() == single.h2d.hex()
            assert v.strategy == ag.select_strategy(single)
            assert denoised[id(img)] == ag.adaptive_filter(img).combined
            model = classify.model(img.pixels.size)
            assert v.original_label == ag.forward(model, img).label()
            assert v.denoised_label == ag.forward(model, denoised[id(img)]).label()
            assert v.adversarial == (v.original_label != v.denoised_label)

    def test_stacked_entropy_matches_single_images_and_oracle(self):
        images = mixed_stack(2)
        for shape in {img.pixels.shape for img in images}:
            group = [img for img in images if img.pixels.shape == shape]
            profiles = entropy._profiles(np.concatenate([img.pixels for img in group], axis=2), shape[2])
            for img, profile in zip(group, profiles):
                single = ag.entropy_2d(img)
                assert [x.hex() for x in profile.per_plane] == [x.hex() for x in single.per_plane]
                assert profile.h2d.hex() == single.h2d.hex()
                planes = [img.pixels[:, :, k].tolist() for k in range(shape[2])]
                assert profile.h2d == pytest.approx(oracles.image_entropy(planes), abs=1e-9)

    def test_plain_callable_sees_the_serial_call_order(self):
        seen = []

        def classify(img):
            seen.append(img)
            return ag.PredictionVector([1.0, 0.0])

        images = mixed_stack(3, count=14)
        ag.detect_batch(classify, images)
        assert len(seen) == 2 * len(images)
        assert all(a is b for a, b in zip(seen[0::2], images))
        assert seen[1::2] == [ag.adaptive_filter(img).combined for img in images]

    def test_plain_callable_failure_stays_with_its_sample(self):
        def rgb_fails(img):
            if img.planes == 3:
                raise RuntimeError("grayscale only")
            return ag.PredictionVector([1.0, 0.0])

        images = [flat_image(10), ag.Image(np.zeros((4, 4, 3), dtype=np.uint8)), flat_image(20)]
        results = ag.detect_batch(rgb_fails, images, ["a", "b", "c"])
        assert isinstance(results[0], ag.Verdict) and isinstance(results[2], ag.Verdict)
        assert isinstance(results[1], ag.DetectionError)
        assert str(results[1]) == "sample b: grayscale only"

    def test_failed_batch_call_is_an_error_for_every_sample(self):
        class Broken:
            def batch(self, images):
                raise RuntimeError("backend down")

        results = ag.detect_batch(Broken(), [flat_image(10), flat_image(20), flat_image(30)], ["a", "", "c"])
        assert all(isinstance(r, ag.DetectionError) for r in results)
        assert [str(r) for r in results] == [
            "sample a: backend down", "sample <unnamed>: backend down", "sample c: backend down"]
        assert isinstance(results[0].__cause__, RuntimeError)

    @pytest.mark.parametrize("returned, message", [
        ([[1.0]], "batch returned 1 predictions for 2 images"),
        (None, "batch returned an array of shape (), expected (2, k) confidence rows"),
        (3.0, "batch returned an array of shape (), expected (2, k) confidence rows"),
        (np.zeros((2, 0)), "batch returned an array of shape (2, 0), expected (2, k) confidence rows"),
    ], ids=["short", "none", "scalar", "no-columns"])
    def test_short_batch_result_is_an_error(self, returned, message):
        class Short:
            def batch(self, images):
                return returned

        (result,) = ag.detect_batch(Short(), [flat_image(10)], ["a"])
        assert str(result) == f"sample a: {message}"

    @pytest.mark.parametrize("denoised_length, vectors", [(3, False), (2, False), (3, True)],
                             ids=["same-length", "ragged", "prediction-vectors"])
    def test_batch_labels_per_row_lowest_index_on_ties(self, denoised_length, vectors):
        class Fixed:
            def batch(self, images):
                pad = [0.0] * (denoised_length - 2)
                rows = [[0.2, 0.4, 0.4], [0.6, 0.2, 0.2], [0.5, 0.5] + pad, [0.1, 0.9] + pad]
                return [ag.PredictionVector(row) for row in rows] if vectors else rows

        results = ag.detect_batch(Fixed(), [flat_image(10), flat_image(20)], ["a", "b"])
        if vectors:  # one object per image is not one confidence row per image
            assert [str(r) for r in results] == [
                f"sample {s}: batch returned an array of shape (4,), expected (4, k) confidence rows" for s in "ab"]
        elif denoised_length == 2:  # rows of different lengths have no common label space
            assert all(isinstance(r, ag.DetectionError) for r in results)
            assert [str(r).split(":")[0] for r in results] == ["sample a", "sample b"]
        else:
            assert [(v.original_label, v.denoised_label, v.adversarial) for v in results] == [
                (1, 0, True), (0, 1, True)]

    def test_plain_callable_length_mismatch_stays_with_its_sample(self):
        def shorter_when_denoised(img):
            if img.pixels[0, 0, 0] == 30:  # the raw third image; its denoised version is darker
                return ag.PredictionVector([0.2, 0.3, 0.5])
            return ag.PredictionVector([0.6, 0.4])

        images = [flat_image(10), flat_image(20), flat_image(30), flat_image(40)]
        results = ag.detect_batch(shorter_when_denoised, images, ["a", "b", "c", "d"])
        assert [type(r) for r in results] == [ag.Verdict, ag.Verdict, ag.DetectionError, ag.Verdict]
        assert str(results[2]).startswith("sample c: ")

    def test_bounded_batches_give_the_same_verdicts(self, monkeypatch):
        images = mixed_stack(4, count=30)
        whole = ag.detect_batch(Recorder(4), images)
        monkeypatch.setattr(image, "_BATCH_IMAGES", 4)
        monkeypatch.setattr(image, "_BATCH_BYTES", 3000)  # two 39x39x3 images do not fit
        classify = Recorder(4)
        parts = ag.detect_batch(classify, images)
        assert max(len(b) for b in classify.batches) <= 2 * 4
        assert all(len(b) == 2 or sum(img.pixels.size for img in b) <= 2 * 3000 for b in classify.batches)
        assert [(v.original_label, v.denoised_label, v.h2d.hex(), v.strategy) for v in parts] == [
            (v.original_label, v.denoised_label, v.h2d.hex(), v.strategy) for v in whole]

    def test_empty_and_misaligned_input(self):
        assert ag.detect_batch(constant_classifier(), []) == []
        with pytest.raises(ValueError, match="not aligned"):
            ag.detect_batch(constant_classifier(), [flat_image(0)], ["a", "b"])


def rgb_model():
    """A seeded, untrained 150528-16-10 network."""
    rng = np.random.default_rng([224, 16])
    return ag.ClassifierModel(rng.normal(0.0, 0.01, (224 * 224 * 3, 16)), rng.uniform(-0.05, 0.05, 16),
                              rng.normal(0.0, 1.0, (16, 10)), rng.uniform(-0.05, 0.05, 10))


def rgb_noise_images():
    """Seeded 224x224x3 noise at 256, 16, 4 and 2 levels."""
    rng = np.random.default_rng([224, 0])
    return [ag.Image((rng.integers(0, levels, size=(224, 224, 3)) * (255 // (levels - 1))).astype(np.uint8))
            for levels in (256, 16, 4, 2)]


# (original label, denoised label, intervals, repr(h2d)) of rgb_model over band_image(2, 4, 6) and
# rgb_noise_images(); the smallest top-2 logit gap among these rows is about 0.1
RGB_VERDICTS = [
    (5, 7, 2, "7.783477635069295"),
    (5, 6, 4, "9.006796123119432"),
    (5, 5, 6, "13.586059192509689"),
    (1, 1, 6, "13.588596469747985"),
    (5, 5, 6, "9.886283641739787"),
    (6, 6, 2, "6.507555243367848"),
    (5, 5, 2, "4.362566463579817"),
]


def test_rgb224_verdicts_pinned():
    images = [band_image(band) for band in (2, 4, 6)] + rgb_noise_images()
    verdicts = ag.detect_batch(ag.ModelClassifier(rgb_model()), images)
    assert [(v.original_label, v.denoised_label, v.strategy.intervals, repr(v.h2d)) for v in verdicts] == RGB_VERDICTS
    assert [v.adversarial for v in verdicts] == [o != d for o, d, _, _ in RGB_VERDICTS]


class TestStats:
    def test_arithmetic(self):
        stats = ag.DetectionStats.from_counts(tp=9, fn=1, fp=1, tn=9)
        assert stats.recall == pytest.approx(0.90)
        assert stats.precision == pytest.approx(0.90)

    def test_degenerate_counts(self):
        stats = ag.DetectionStats.from_counts(0, 0, 0, 5)
        assert stats.recall == 0.0 and stats.precision == 0.0


class TestEvaluate:
    def test_hand_tallied_corpus(self, tmp_path):
        # verdicts are forced through the top-left pixel: [100, 127] flags.
        # adv side: 6 flagged (tp), 4 passed (fn); orig side: 2 flagged (fp),
        # 8 passed (tn) -> recall 0.6, precision 0.75
        pairs = []
        for i in range(10):
            orig = flat_image(120 if i < 2 else 200)
            adv = flat_image(110 if i < 6 else 50)
            pairs.append((orig, adv))
        corpus = write_corpus(tmp_path, pairs)
        result = ag.evaluate(threshold_classifier, corpus)
        assert (result.stats.tp, result.stats.fn, result.stats.fp, result.stats.tn) == (6, 4, 2, 8)
        assert result.stats.recall == pytest.approx(0.6)
        assert result.stats.precision == pytest.approx(0.75)
        assert result.ok
        assert len(result.verdicts) == 20

    def test_counts_cover_whole_corpus(self, tmp_path):
        images, labels = template_digits(60, seed=5, size=8, classes=4, noise=25.0)
        model = ag.train(images, labels, ag.TrainConfig(epochs=6, learning_rate=0.2, seed=3), hidden=24, classes=4)
        summary = ag.build_attack_corpus(model, images, labels, ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert summary.effectual > 0
        result = ag.evaluate(ag.ModelClassifier(model), tmp_path / "c")
        s = result.stats
        assert s.tp + s.fn == summary.effectual
        assert s.fp + s.tn == summary.effectual
        assert 0.0 <= s.recall <= 1.0 and 0.0 <= s.precision <= 1.0

    def test_verdicts_follow_manifest_order(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110)) for _ in range(3)])
        result = ag.evaluate(threshold_classifier, corpus)
        ids = [v.sample_id for _, v in result.verdicts]
        assert ids == ["00000", "00000", "00001", "00001", "00002", "00002"]
        kinds = [kind for kind, _ in result.verdicts][:2]
        assert kinds == ["original", "adversarial"]

    def test_missing_file_enumerated_run_continues(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110)) for _ in range(3)])
        (corpus / "00001_adv.pgm").unlink()
        result = ag.evaluate(threshold_classifier, corpus)
        assert result.corpus_errors == ["00001 (adversarial): 00001_adv.pgm"]
        assert not result.ok
        assert result.stats.tp + result.stats.fn == 2  # the remaining adversarial files

    def test_rgb_ppm_corpus_evaluates_like_detect(self, tmp_path):
        rng = np.random.default_rng(12)
        pairs = [tuple(ag.Image(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)) for _ in range(2))
                 for _ in range(3)]
        result = ag.evaluate(threshold_classifier, write_corpus(tmp_path, pairs, ext="ppm"))
        assert result.ok
        expected = [ag.detect(threshold_classifier, img, f"{i:05d}") for i, pair in enumerate(pairs) for img in pair]
        assert [(v.sample_id, v.original_label, v.denoised_label, v.h2d, v.strategy) for _, v in result.verdicts] == [
            (v.sample_id, v.original_label, v.denoised_label, v.h2d, v.strategy) for v in expected]

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: os.mkfifo(path),
        lambda path: path.symlink_to(os.devnull),
        lambda path: path.symlink_to(path.name),  # a symlink loop
        lambda path: path.symlink_to("nowhere.pgm"),
    ], ids=["directory", "fifo", "device-link", "link-loop", "dangling-link"])
    def test_non_file_entry_is_a_missing_sample(self, tmp_path, make):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110)) for _ in range(2)])
        (corpus / "00000_orig.pgm").unlink()
        make(corpus / "00000_orig.pgm")  # a FIFO must not wait for a writer
        result = ag.evaluate(threshold_classifier, corpus)
        assert result.corpus_errors == ["00000 (original): 00000_orig.pgm"]
        assert [(kind, v.sample_id) for kind, v in result.verdicts] == [
            ("adversarial", "00000"), ("original", "00001"), ("adversarial", "00001")]

    def test_ppm_read_when_pgm_is_not_a_file(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(120), flat_image(110))])
        (corpus / "00000_orig.pgm").rename(corpus / "00000_orig.ppm")
        (corpus / "00000_orig.pgm").mkdir()
        result = ag.evaluate(threshold_classifier, corpus)
        assert result.ok and [v.original_label for _, v in result.verdicts] == [1, 1]

    def test_corrupt_file_enumerated(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])
        (corpus / "00000_orig.pgm").write_bytes(b"P5\n2 2\n255\n\x00")  # truncated
        result = ag.evaluate(threshold_classifier, corpus)
        assert len(result.corpus_errors) == 1 and "truncated" in result.corpus_errors[0]

    def test_classifier_failures_collected(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])

        def flaky(img):
            raise RuntimeError("no backend")

        result = ag.evaluate(flaky, corpus)
        assert len(result.classifier_errors) == 2
        assert result.stats.tp + result.stats.fn + result.stats.fp + result.stats.tn == 0

    def test_empty_corpus_rejected(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ag.CorpusError, match="empty corpus"):
            ag.evaluate(constant_classifier(), empty)
        (empty / "manifest.csv").write_text("id,original_label,adversarial_label\n")
        with pytest.raises(ag.CorpusError, match="no samples"):
            ag.evaluate(constant_classifier(), empty)

    def test_failed_batch_call_reported_per_sample_in_order(self, tmp_path):
        class Broken:
            def batch(self, images):
                raise RuntimeError("no backend")

        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110)) for _ in range(2)])
        result = ag.evaluate(Broken(), corpus)
        assert result.classifier_errors == ["sample 00000: no backend"] * 2 + ["sample 00001: no backend"] * 2
        assert result.verdicts == []

    def test_batches_match_serial_detect(self, tmp_path):
        images, labels = template_digits(60, seed=5, size=8, classes=4, noise=25.0)
        model = ag.train(images, labels, ag.TrainConfig(epochs=6, learning_rate=0.2, seed=3), hidden=24, classes=4)
        ag.build_attack_corpus(model, images, labels, ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        result = ag.evaluate(ag.ModelClassifier(model), tmp_path / "c")
        for kind, v in result.verdicts:
            suffix = "orig" if kind == "original" else "adv"
            img = ag.read_pgm_ppm((tmp_path / "c" / f"{v.sample_id}_{suffix}.pgm").read_bytes())
            serial = ag.detect(lambda im: ag.forward(model, im), img, sample_id=v.sample_id)
            assert (v.original_label, v.denoised_label, v.h2d.hex(), v.strategy) == (
                serial.original_label, serial.denoised_label, serial.h2d.hex(), serial.strategy)

    @pytest.mark.parametrize("data, match", [
        (b"id,original_label,adversarial_label\n\xff\xfe,0,1\n", "utf-8"),
        (b"id,original_label,adversarial_label\n" + b"a" * 200000 + b",0,1\n", "field limit"),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_manifest_rejected(self, tmp_path, data, match):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])
        (corpus / "manifest.csv").write_bytes(data)
        with pytest.raises(ag.CorpusError, match=match):
            ag.evaluate(threshold_classifier, corpus)

    @pytest.mark.parametrize("row", ["", "00000", "00000,0"])
    def test_empty_or_short_manifest_row_rejected(self, tmp_path, row):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])
        with open(corpus / "manifest.csv", "a") as f:
            f.write(row + "\n00000,0,1\n")
        with pytest.raises(ag.CorpusError, match="line 3"):
            ag.evaluate(threshold_classifier, corpus)

    @pytest.mark.parametrize("sample_id", ["../00000", "sub/00000", "sub\\00000", ".", ".."])
    def test_path_like_manifest_id_rejected(self, tmp_path, sample_id):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])
        with open(corpus / "manifest.csv", "a") as f:
            f.write(f"{sample_id},0,1\n")
        with pytest.raises(ag.CorpusError, match="line 3"):
            ag.evaluate(threshold_classifier, corpus)

    def test_repeated_manifest_id_rejected(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110)) for _ in range(2)])
        with open(corpus / "manifest.csv", "a") as f:
            f.write("00001,0,1\n")
        with pytest.raises(ag.CorpusError, match="^malformed manifest in .*: line 4 repeats id '00001'$"):
            ag.evaluate(threshold_classifier, corpus)


class TestReport:
    def test_single_sample_report_layout(self, tmp_path):
        corpus = write_corpus(tmp_path, [(flat_image(200), flat_image(110))])
        result = ag.evaluate(threshold_classifier, corpus)
        report = tmp_path / "report.csv"
        ag.write_report(result.stats, result.verdicts, report)
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "id,kind,original_label,denoised_label,flagged,h2d,intervals,smoothed"
        assert len(lines) == 5  # header + 2 samples + summary header + summary
        assert lines[3] == "tp,fn,fp,tn,recall,precision"

    def test_report_roundtrips_stats(self, tmp_path):
        pairs = [(flat_image(120 if i % 3 == 0 else 200), flat_image(110 if i % 2 == 0 else 30)) for i in range(7)]
        corpus = write_corpus(tmp_path, pairs)
        result = ag.evaluate(threshold_classifier, corpus)
        report = tmp_path / "report.csv"
        ag.write_report(result.stats, result.verdicts, report)
        lines = report.read_text().strip().splitlines()
        tp, fn, fp, tn, recall, precision = lines[-1].split(",")
        rebuilt = ag.DetectionStats.from_counts(int(tp), int(fn), int(fp), int(tn))
        assert rebuilt == result.stats
        assert f"{rebuilt.recall:.4f}" == recall
        assert f"{rebuilt.precision:.4f}" == precision
        flagged = sum(1 for line in lines[1:-2] if line.split(",")[4] == "true")
        assert flagged == result.stats.tp + result.stats.fp
