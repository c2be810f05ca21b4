import csv
import hashlib
import math

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

    def test_topk_needs_k(self):
        with pytest.raises(ValueError, match="k >= 1"):
            ag.AttackConfig(variant="topk")
        with pytest.raises(ValueError, match="variant"):
            ag.AttackConfig(variant="pgd")


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
            assert ex.original_label == ag.forward(synth_model, ag.to_float(img)).label()

    def test_deterministic(self, synth_model, synth_data):
        img = synth_data[0][3]
        a = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2))
        b = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2))
        assert a.adversarial == b.adversarial
        assert (a.original_label, a.adversarial_label) == (b.original_label, b.adversarial_label)

    def test_explicit_target_class(self, synth_model, synth_data):
        img = synth_data[0][5]
        ex = ag.craft(synth_model, img, ag.AttackConfig(epsilon=0.2, target=2))
        assert ex.original_label == ag.forward(synth_model, ag.to_float(img)).label()

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_out_of_range(self, synth_model, synth_data, target):
        config = ag.AttackConfig(epsilon=0.2, target=target)
        with pytest.raises(ValueError, match=f"class index {target} out of range 0..3"):
            ag.craft(synth_model, synth_data[0][0], config)

    @pytest.mark.parametrize("target", [None, 1])
    def test_moves_along_the_input_gradient_sign(self, synth_model, synth_data, target):
        config = ag.AttackConfig(epsilon=0.2, target=target)
        for img in synth_data[0][:10]:
            xf = ag.to_float(img)
            c = ag.forward(synth_model, xf).label() if target is None else target
            step = config.epsilon * np.sign(ag.input_gradient(synth_model, xf, c))
            expected = ag.to_bytes(ag.FloatImage(np.clip(xf.pixels + step, 0.0, 1.0)))
            assert ag.craft(synth_model, img, config).adversarial == expected


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
        (ag.AttackConfig(epsilon=0.1, target=3), 9,
         "74b4aae527484cc71a0b9569850dbe9027962de80a12041b3ddfbc1cc4db8c74"),
    ], ids=["topk", "target"])
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
            assert ag.forward(synth_model, ag.to_float(orig)).label() == int(orig_label)
            assert ag.forward(synth_model, ag.to_float(adv)).label() == int(adv_label)
            assert int(orig_label) != int(adv_label)

    def test_misclassified_inputs_skipped_with_labels(self, synth_model, synth_data, tmp_path):
        images, labels = synth_data
        wrong = [(y + 1) % 4 for y in labels]  # disagrees wherever the model is right
        predictions = [ag.forward(synth_model, ag.to_float(im)).label() for im in images[:10]]
        expected_attacked = sum(p == w for p, w in zip(predictions, wrong))
        summary = ag.build_attack_corpus(
            synth_model, images[:10], wrong[:10], ag.AttackConfig(epsilon=0.3), tmp_path / "c"
        )
        assert summary.attacked == expected_attacked
        assert summary.skipped == 10 - expected_attacked

    @pytest.mark.parametrize("n_labels", [9, 11])
    def test_misaligned_labels_rejected_before_writing(self, synth_model, synth_data, tmp_path, n_labels):
        images, labels = synth_data
        with pytest.raises(ValueError, match=f"10 images but {n_labels} labels"):
            ag.build_attack_corpus(synth_model, images[:10], labels[:n_labels],
                                   ag.AttackConfig(epsilon=0.3), tmp_path / "c")
        assert not (tmp_path / "c").exists()
