import csv
import hashlib
import math
import re

import numpy as np
import pytest

import advguard as ag
from synth import template_digits


@pytest.fixture(scope="module")
def synth_model():
    images, labels = template_digits(400, seed=10, size=8, classes=4, noise=25.0)
    config = ag.TrainConfig(epochs=6, batch_size=16, learning_rate=0.2, seed=2)
    model = ag.train(images, labels, config, hidden=24, classes=4)
    assert ag.accuracy(model, images, labels) > 0.95
    return model


@pytest.fixture(scope="module")
def synth_data():
    return template_digits(120, seed=77, size=8, classes=4, noise=25.0)


def committed(img, step):
    """img moved by a [0, 1]-domain step, clipped and stored as bytes rounded half away from zero."""
    return ag.Image(np.floor(np.clip(img.pixels / 255.0 + step, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8))


def zero_gradient_model(d=64, n=4):
    # all-zero first layer: the loss never depends on the input
    return ag.ClassifierModel(np.zeros((d, 8)), np.zeros(8), np.zeros((8, n)), np.zeros(n))


class TestAttackConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError, match="epsilon"):
            ag.AttackConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            ag.AttackConfig(epsilon=1.5)
        ag.AttackConfig(epsilon=1.0)

    @pytest.mark.parametrize("epsilon", [True, "0.1", None, math.nan, math.inf])
    def test_epsilon_must_be_a_real_number_in_range(self, epsilon):
        # True is not accepted as 1, and a string or None is named instead of failing a comparison
        message = f"epsilon must be a real number in (0, 1], got {epsilon!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ag.AttackConfig(epsilon=epsilon)

    def test_topk_needs_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            ag.AttackConfig(variant="topk")
        with pytest.raises(ValueError, match="variant"):
            ag.AttackConfig(variant="pgd")

    def test_k_only_with_topk(self):
        with pytest.raises(ValueError, match="^k applies only to the top-k variant$"):
            ag.AttackConfig(epsilon=0.1, k=50)
        assert ag.AttackConfig(variant="topk", k=50).k == 50

    @pytest.mark.parametrize("fields", [
        {"variant": "topk", "k": 2.5}, {"variant": "topk", "k": True}, {"k": 1.0},
    ], ids=["float-k", "bool-k", "float-k-full"])
    def test_non_integer_k_rejected(self, fields):
        with pytest.raises(ValueError, match=f"k must be an integer, got {fields['k']!r}"):
            ag.AttackConfig(epsilon=0.2, **fields)

    def test_numpy_integers_accepted(self):
        config = ag.AttackConfig(variant="topk", k=np.int64(2))
        model = ag.ClassifierModel(np.ones((16, 4)), np.zeros(4), np.eye(4, 3), np.zeros(3))
        ex = ag.craft(model, ag.Image(np.arange(16, dtype=np.uint8).reshape(4, 4)), config)
        assert np.count_nonzero(ex.perturbation) <= 2


class TestFgsm:
    def test_zero_gradient_leaves_image_unchanged(self):
        img = ag.Image(np.full((8, 8), 90, dtype=np.uint8))
        ex = ag.craft(zero_gradient_model(), img, ag.AttackConfig(epsilon=0.1))
        assert ex.adversarial == ex.original
        assert not ex.effectual
        assert np.all(ex.perturbation == 0)

    def test_vanishing_epsilon_is_identity_after_byte_commit(self, synth_model, synth_data):
        img = synth_data[0][0]
        ex = ag.craft(synth_model, img, ag.AttackConfig(epsilon=1e-9))
        assert ex.adversarial == img
        assert not ex.effectual

    def test_perturbation_bound(self, synth_model, synth_data):
        eps = 0.1
        bound = math.ceil(eps * 255) + 1
        for img in synth_data[0][:20]:
            ex = ag.craft(synth_model, img, ag.AttackConfig(epsilon=eps))
            assert np.abs(ex.perturbation).max() <= bound

    def test_effectual_flag_matches_labels(self, synth_model, synth_data):
        for img in synth_data[0][:20]:
            ex = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.3))
            assert ex.effectual == (ex.adversarial_label != ex.original_label)
            assert ex.original_label == ag.forward(synth_model, img).label()

    def test_deterministic(self, synth_model, synth_data):
        img = synth_data[0][3]
        a = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2))
        b = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2))
        assert a.adversarial == b.adversarial
        assert (a.original_label, a.adversarial_label) == (b.original_label, b.adversarial_label)

    def test_array_rejected(self, synth_model):
        with pytest.raises(ValueError, match="^attacked images must all be Images, not arrays$"):
            ag.craft(synth_model, np.zeros(64), ag.AttackConfig())

    @pytest.mark.filterwarnings("error")  # the error comes first: numpy does not warn on the way
    def test_overflowing_model_raises_before_committing_bytes(self, tmp_path):
        model = ag.ClassifierModel(np.full((64, 8), 1e308), np.zeros(8), np.full((8, 4), 1e308), np.zeros(4))
        img = ag.Image(np.full((8, 8), 90, dtype=np.uint8))
        message = "non-finite FGSM step: the model overflows on this input"
        with pytest.raises(ValueError, match=message):
            ag.craft(model, img, ag.AttackConfig(epsilon=0.1))
        with pytest.raises(ValueError, match=message):
            ag.build_attack_corpus(model, [img] * 3, None, ag.AttackConfig(epsilon=0.1), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_overflow_in_a_later_chunk_leaves_no_output(self, tmp_path):
        # a black image gives a uniform softmax and a zero step under 1e308 weights, any brighter one NaN rows;
        # the one bright image is in the second of two chunks (512 + 88 images)
        model = ag.ClassifierModel(np.full((64, 8), 1e308), np.zeros(8), np.full((8, 4), 1e308), np.zeros(4))
        images = [ag.Image(np.zeros((8, 8), dtype=np.uint8))] * 600
        images[550] = ag.Image(np.full((8, 8), 90, dtype=np.uint8))
        with pytest.raises(ValueError, match="non-finite FGSM step"):
            ag.build_attack_corpus(model, images, None, ag.AttackConfig(epsilon=0.1), tmp_path / "c")
        assert not (tmp_path / "c").exists()
        assert ag.build_attack_corpus(model, images[:512], None, ag.AttackConfig(epsilon=0.1),
                                      tmp_path / "c").attacked == 512  # the first chunk alone crafts

    @pytest.mark.filterwarnings("error")  # neither the gradient's overflow nor the NaN rows may warn
    def test_adversarial_labels_from_non_finite_rows_raise(self, tmp_path):
        # finite on a black pixel, label 1; the pixel gradient overflows to +inf, whose sign steps the
        # pixel to 26, where the logits overflow to a NaN row: its argmax would read as label 0
        k = 2.0**52
        model = ag.ClassifierModel([[1e300]], [1.0], [[k, -k]], [-k, k + 1])
        img = ag.Image(np.zeros((1, 1), dtype=np.uint8))
        assert ag.forward(model, img).label() == 1
        message = "^confidences must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            ag.craft(model, img, ag.AttackConfig(epsilon=0.1))
        with pytest.raises(ValueError, match=message):
            ag.build_attack_corpus(model, [img], [1], ag.AttackConfig(epsilon=0.1), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_moves_along_the_input_gradient_sign(self, synth_model, synth_data):
        config = ag.AttackConfig(epsilon=0.2)
        for img in synth_data[0][:10]:
            c = ag.forward(synth_model, img).label()
            step = config.epsilon * np.sign(ag.input_gradient(synth_model, img, c))
            assert ag.craft(synth_model, img, config).adversarial == committed(img, step)


class TestFgsmTopk:
    def test_at_most_k_pixels_change(self, synth_model, synth_data):
        for k in (1, 5, 20):
            config = ag.AttackConfig(epsilon=0.3, variant="topk", k=k)
            ex = ag.craft(synth_model, synth_data[0][1], config)
            assert int(np.count_nonzero(ex.perturbation)) <= k

    def test_full_support_equals_plain_fgsm(self, synth_model, synth_data):
        img = synth_data[0][2]
        full = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2))
        topk = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2, variant="topk", k=64))
        assert full.adversarial == topk.adversarial

    def test_ties_go_to_the_lower_pixel_index(self):
        # ten pixels share the largest |gradient| exactly: their first-layer rows
        # are twice everyone else's, a power of two, so the products stay exact
        strong = [8, 23, 37, 40, 42, 48, 53, 54, 56, 63]
        w1 = np.tile(np.random.default_rng(0).normal(size=(1, 8)), (64, 1))
        w1[strong] *= 2.0
        model = ag.ClassifierModel(w1, np.ones(8), np.random.default_rng(1).normal(size=(8, 3)), np.zeros(3))
        img = ag.Image(np.full((8, 8), 128, dtype=np.uint8))
        ex = ag.craft(model, img, ag.AttackConfig(epsilon=0.2, variant="topk", k=5))
        assert np.flatnonzero(ex.perturbation).tolist() == strong[:5]

    def test_k_above_pixel_count_rejected(self, synth_model, synth_data):
        config = ag.AttackConfig(epsilon=0.2, variant="topk", k=65)
        with pytest.raises(ValueError, match="exceeds pixel count"):
            ag.craft(synth_model, synth_data[0][0], config)

    def test_some_yield_with_fifth_of_pixels(self, synth_model, synth_data):
        config = ag.AttackConfig(epsilon=0.5, variant="topk", k=13)  # ~20% of 64
        flips = sum(
            ag.craft(synth_model, img, config).effectual for img in synth_data[0][:40]
        )
        assert flips > 0


class TestPinnedBytes:
    """craft's adversarial bytes and labels on seeded digits, as first recorded.

    A change to the gradient, the top-k ranking or the byte commit moves the
    digest; full FGSM is pinned through the corpus in test_pipeline.py.
    """

    @pytest.mark.parametrize("config, effectual, digest", [
        (ag.AttackConfig(epsilon=0.3, variant="topk", k=50), 15,
         "1854908edbb024c02867ce773147b196d746bbe9cbc7ef1a303658b33cd59e49"),
    ], ids=["topk"])
    def test_digest(self, config, effectual, digest):
        train_x, train_y = template_digits(300, seed=3, noise=60.0)
        model = ag.train(train_x, train_y, ag.TrainConfig(epochs=3, seed=42), hidden=32)
        h = hashlib.sha256()
        hits = 0
        for img in template_digits(100, seed=5, noise=60.0)[0]:
            ex = ag.craft(model, img, config)
            h.update(ex.adversarial.pixels.tobytes())
            h.update(bytes([ex.original_label, ex.adversarial_label]))
            hits += ex.effectual
        assert (hits, h.hexdigest()) == (effectual, digest)


class TestCorpus:
    def test_manifest_counts_match_effectual(self, synth_model, synth_data, tmp_path):
        images, labels = synth_data
        config = ag.AttackConfig(epsilon=0.3)
        summary = ag.build_attack_corpus(synth_model, images, labels, config, tmp_path / "corpus")
        assert summary.effectual == len(summary.manifest)
        assert summary.attacked + summary.skipped == len(images)
        with open(tmp_path / "corpus" / "manifest.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["id", "original_label", "adversarial_label"]
        assert len(rows) - 1 == summary.effectual

    def test_no_successes_gives_empty_corpus(self, tmp_path):
        images = [ag.Image(np.full((8, 8), 50, dtype=np.uint8))] * 5
        summary = ag.build_attack_corpus(
            zero_gradient_model(), images, None, ag.AttackConfig(epsilon=0.2), tmp_path / "c"
        )
        assert summary.effectual == 0
        with open(tmp_path / "c" / "manifest.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1  # header only
        assert not list((tmp_path / "c").glob("*.pgm"))

    def test_corpus_closed_loop(self, synth_model, synth_data, tmp_path):
        images, labels = synth_data
        out = tmp_path / "corpus"
        summary = ag.build_attack_corpus(synth_model, images, labels, ag.AttackConfig(epsilon=0.3), out)
        assert summary.effectual > 0  # premise: this attack does land hits
        for sample_id, orig_label, adv_label in summary.manifest:
            orig = ag.read_pgm_ppm((out / f"{sample_id}_orig.pgm").read_bytes())
            adv = ag.read_pgm_ppm((out / f"{sample_id}_adv.pgm").read_bytes())
            assert ag.forward(synth_model, orig).label() == int(orig_label)
            assert ag.forward(synth_model, adv).label() == int(adv_label)
            assert int(orig_label) != int(adv_label)

    def test_misclassified_inputs_skipped_with_labels(self, synth_model, synth_data, tmp_path):
        images, labels = synth_data
        wrong = [(y + 1) % 4 for y in labels]  # disagrees wherever the model is right
        predictions = [ag.forward(synth_model, im).label() for im in images[:10]]
        expected_attacked = sum(p == w for p, w in zip(predictions, wrong))
        summary = ag.build_attack_corpus(
            synth_model, images[:10], wrong[:10], ag.AttackConfig(epsilon=0.3), tmp_path / "c"
        )
        assert summary.attacked == expected_attacked
        assert summary.skipped == 10 - expected_attacked

    @pytest.mark.parametrize("fields, size, message", [
        ({"variant": "topk", "k": 65}, 8, "k=65 exceeds pixel count 64"),
        ({}, 7, "image 10 has 49 values, image 0 has 64"),
    ], ids=["k-above-pixels", "image-size"])
    def test_attack_errors_raised_before_writing(self, synth_model, synth_data, tmp_path, fields, size, message):
        images = synth_data[0][:10] + template_digits(1, size=size, classes=4)[0]
        with pytest.raises(ValueError, match=message):
            ag.build_attack_corpus(synth_model, images, None, ag.AttackConfig(epsilon=0.3, **fields),
                                   tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_every_image_of_the_wrong_size_raises_before_writing(self, synth_model, tmp_path):
        images = template_digits(3, size=7, classes=4)[0]
        with pytest.raises(ValueError, match="dimension mismatch: input has 49 values, model expects 64"):
            ag.build_attack_corpus(synth_model, images, None, ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_arrays_rejected_before_writing(self, synth_model, synth_data, tmp_path):
        images = synth_data[0][:10] + [synth_data[0][10].pixels / 255.0]
        with pytest.raises(ValueError, match="^attacked images must all be Images, not arrays$"):
            ag.build_attack_corpus(synth_model, images, None, ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("labels", [None, []])
    def test_no_images_is_an_empty_dataset(self, synth_model, tmp_path, labels):
        with pytest.raises(ValueError, match="^empty dataset$"):
            ag.build_attack_corpus(synth_model, [], labels, ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("n_labels", [9, 11])
    def test_misaligned_labels_rejected_before_writing(self, synth_model, synth_data, tmp_path, n_labels):
        images, labels = synth_data
        with pytest.raises(ValueError, match=f"10 images but {n_labels} labels"):
            ag.build_attack_corpus(synth_model, images[:10], labels[:n_labels],
                                   ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert not (tmp_path / "c").exists()


def serial_corpus(model, images, labels, config):
    """A corpus by one image at a time: (attacked, skipped, manifest rows, {file name: bytes})."""
    attacked = skipped = 0
    rows, files = [], {}
    for i, img in enumerate(images):
        original = ag.forward(model, img).label()
        if labels is not None and original != labels[i]:
            skipped += 1
            continue
        attacked += 1
        grad = ag.input_gradient(model, img, original)
        step = config.epsilon * np.sign(grad)
        if config.variant == "topk":
            keep = np.zeros(grad.size, dtype=bool)
            keep[np.argsort(-np.abs(grad).ravel(), kind="stable")[:config.k]] = True
            step = step * keep.reshape(grad.shape)
        adv = committed(img, step)
        adversarial = ag.forward(model, adv).label()
        if adversarial != original:
            sample_id, ext = f"{i:05d}", "pgm" if img.planes == 1 else "ppm"
            files[f"{sample_id}_orig.{ext}"] = ag.write_pgm_ppm(img)
            files[f"{sample_id}_adv.{ext}"] = ag.write_pgm_ppm(adv)
            rows.append([sample_id, str(original), str(adversarial)])
    return attacked, skipped, rows, files


def rgb_digits(n, seed):
    """Three differently laid out copies of each 8x8 digit, as one 8x8x3 image."""
    images, labels = template_digits(n, seed=seed, size=8, classes=4, noise=40.0)
    return [ag.Image(np.stack([im.pixels[:, :, 0], im.pixels[::-1, :, 0], im.pixels[:, :, 0].T], axis=2))
            for im in images], labels


class TestBatchedAgainstSerial:
    """build_attack_corpus, which crafts in batches, against a per-image reference loop."""

    @pytest.fixture(scope="class")
    def inputs(self, synth_model):
        big = template_digits(600, seed=21, size=8, classes=4, noise=60.0)  # more than one 512-image chunk
        mixed_x, mixed_y = template_digits(40, seed=22, size=8, classes=4, noise=60.0)
        mixed = [ag.Image(im.pixels.reshape((4, 16) if i % 2 else (16, 4))) for i, im in enumerate(mixed_x)]
        rgb_x, rgb_y = rgb_digits(200, seed=23)
        rgb_model = ag.train(rgb_x, rgb_y, ag.TrainConfig(epochs=6, batch_size=16, learning_rate=0.2, seed=3),
                             hidden=16, classes=4)
        return {"big": (synth_model, *big), "mixed-shapes": (synth_model, mixed, mixed_y),
                "rgb": (rgb_model, *rgb_digits(60, seed=24))}

    @pytest.mark.parametrize("config", [
        ag.AttackConfig(epsilon=0.3),
        ag.AttackConfig(epsilon=0.5, variant="topk", k=50),
    ], ids=["full", "topk"])
    @pytest.mark.parametrize("kind", ["big", "mixed-shapes", "rgb"])
    def test_same_corpus(self, inputs, kind, config, tmp_path):
        model, images, labels = inputs[kind]
        labels = [(y + 1) % 4 if i % 7 == 0 else y for i, y in enumerate(labels)]  # some get skipped
        attacked, skipped, rows, files = serial_corpus(model, images, labels, config)
        assert attacked and skipped and rows  # premise: the set exercises every branch
        summary = ag.build_attack_corpus(model, images, labels, config, tmp_path)
        with open(tmp_path / "manifest.csv", newline="") as f:
            manifest = list(csv.reader(f))
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "manifest.csv"}
        assert (summary.attacked, summary.skipped, summary.effectual) == (attacked, skipped, len(rows))
        assert manifest == [["id", "original_label", "adversarial_label"]] + rows
        assert [list(map(str, row)) for row in summary.manifest] == rows
        assert written == files
