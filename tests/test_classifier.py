import math
import stat
import sys

import numpy as np
import pytest

import advguard as ag
import oracles


def random_model(rng, d=6, h=5, n=3, scale=0.5):
    return ag.ClassifierModel(
        rng.uniform(-scale, scale, (d, h)),
        rng.uniform(-scale, scale, h),
        rng.uniform(-scale, scale, (h, n)),
        rng.uniform(-scale, scale, n),
    )


def zero_model(d=4, h=3, n=10):
    return ag.ClassifierModel(np.zeros((d, h)), np.zeros(h), np.zeros((h, n)), np.zeros(n))


class TestPredictionVector:
    def test_label_is_argmax_lowest_index_on_tie(self):
        assert ag.PredictionVector([0.4, 0.4, 0.2]).label() == 0
        assert ag.PredictionVector([0.1, 0.9]).label() == 1

    def test_sum_validation(self):
        with pytest.raises(ValueError, match="sum"):
            ag.PredictionVector([0.5, 0.6])
        ag.PredictionVector([0.5, 0.5004], tol=1e-3)  # loose external tolerance

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ag.PredictionVector([1.2, -0.2])


class TestForward:
    def test_zero_model_is_uniform(self):
        pv = ag.forward(zero_model(), np.array([0.3, 0.5, 0.1, 0.9]))
        assert np.allclose(pv.confidences, 0.1, atol=1e-12)

    def test_confidences_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = random_model(rng)
            pv = ag.forward(model, rng.uniform(0, 1, model.input_size))
            assert abs(pv.confidences.sum() - 1.0) <= 1e-6
            assert np.all((pv.confidences > 0) & (pv.confidences < 1))

    def test_hand_computed_2_2_2_network(self):
        model = ag.ClassifierModel(
            np.array([[0.1, -0.2], [0.3, 0.4]]),
            np.array([0.05, -0.05]),
            np.array([[0.2, -0.1], [-0.3, 0.5]]),
            np.array([0.0, 0.1]),
        )
        x = np.array([0.6, 0.8])
        # forward pass by hand, scalar by scalar
        z1_0 = 0.6 * 0.1 + 0.8 * 0.3 + 0.05
        z1_1 = 0.6 * -0.2 + 0.8 * 0.4 - 0.05
        a1_0, a1_1 = max(z1_0, 0.0), max(z1_1, 0.0)
        z2_0 = a1_0 * 0.2 + a1_1 * -0.3 + 0.0
        z2_1 = a1_0 * -0.1 + a1_1 * 0.5 + 0.1
        m = max(z2_0, z2_1)
        e0, e1 = math.exp(z2_0 - m), math.exp(z2_1 - m)
        expected = [e0 / (e0 + e1), e1 / (e0 + e1)]
        pv = ag.forward(model, x)
        assert pv.confidences.tolist() == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ag.forward(zero_model(d=4), np.zeros(5))

    def test_accepts_float_image(self):
        img = ag.FloatImage(np.full((2, 2, 1), 0.5))
        assert len(ag.forward(zero_model(d=4), img)) == 10

    def test_byte_image_enters_scaled(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, d=4)
        img = ag.Image(np.array([[200, 10], [128, 255]], dtype=np.uint8))
        direct = ag.forward(model, img).confidences
        scaled = ag.forward(model, ag.to_float(img)).confidences
        assert np.array_equal(direct, scaled)


class TestLoss:
    def test_certain_prediction_has_zero_loss(self):
        model = zero_model(n=2)
        model.b2[0] = 1000.0  # softmax saturates at class 0
        assert ag.loss(model, np.zeros(4), 0) == 0.0

    def test_uniform_prediction_is_log_n(self):
        assert ag.loss(zero_model(n=10), np.zeros(4), 3) == pytest.approx(math.log(10), abs=1e-12)

    def test_matches_recomputation_from_forward(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_model(rng)
            x = rng.uniform(0, 1, model.input_size)
            c = int(rng.integers(model.n_classes))
            assert ag.loss(model, x, c) == pytest.approx(
                -math.log(ag.forward(model, x).confidences[c]), abs=1e-12
            )

    def test_class_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ag.loss(zero_model(n=3), np.zeros(4), 3)


class TestGradients:
    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            model = random_model(rng)
            x = rng.uniform(0.05, 0.95, model.input_size)
            c = int(rng.integers(model.n_classes))
            analytic = ag.input_gradient(model, x, c)
            numeric = oracles.central_difference(lambda v: ag.loss(model, v, c), x)
            rel = np.abs(analytic - numeric) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4
            )
            assert rel.max() < 1e-4

    def test_zero_first_layer_means_zero_input_gradient(self):
        model = zero_model()
        model.b2[:] = np.arange(10) * 0.1
        grad = ag.input_gradient(model, np.full(4, 0.7), 2)
        assert np.all(grad == 0.0)

    def test_gradient_shape_matches_input(self):
        img = ag.FloatImage(np.full((2, 2, 1), 0.25))
        grad = ag.input_gradient(zero_model(d=4), img, 1)
        assert grad.shape == img.pixels.shape

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, d=4, h=3, n=3)
        x = rng.uniform(0.1, 0.9, 4)
        c = 1
        grads = ag.parameter_gradients(model, x, c)
        for name, grad in zip(("w1", "b1", "w2", "b2"), grads):
            theta0 = getattr(model, name).copy()

            def loss_at(flat, _name=name, _theta0=theta0):
                setattr(model, _name, flat.reshape(_theta0.shape))
                try:
                    return ag.loss(model, x, c)
                finally:
                    setattr(model, _name, _theta0)

            numeric = oracles.central_difference(loss_at, theta0.ravel()).reshape(theta0.shape)
            rel = np.abs(grad - numeric) / np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-4)
            assert rel.max() < 1e-4, name


class TestTraining:
    def test_single_example_memorized(self):
        rng = np.random.default_rng(0)
        img = ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        config = ag.TrainConfig(epochs=5, batch_size=10, learning_rate=0.5, seed=1)
        model = ag.train([img] * 100, [7] * 100, config, hidden=16)
        assert ag.forward(model, ag.to_float(img)).confidences[7] > 0.99

    def test_loss_non_increasing_over_epochs(self):
        rng = np.random.default_rng(0)
        img = ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        losses = []
        for epochs in range(1, 6):
            config = ag.TrainConfig(epochs=epochs, batch_size=10, learning_rate=0.5, seed=1)
            model = ag.train([img] * 100, [7] * 100, config, hidden=16)
            losses.append(ag.loss(model, ag.to_float(img), 7))
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(0)
        imgs = [ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8)) for _ in range(30)]
        labels = [int(v) for v in rng.integers(0, 10, 30)]
        config = ag.TrainConfig(epochs=3, batch_size=8, seed=99)
        m1 = ag.train(imgs, labels, config, hidden=12)
        m2 = ag.train(imgs, labels, config, hidden=12)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            ag.train([], [], ag.TrainConfig())

    def test_label_out_of_range_rejected(self):
        img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="label out of range"):
            ag.train([img], [10], ag.TrainConfig())

    def test_accuracy_helper(self):
        rng = np.random.default_rng(0)
        img = ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        model = ag.train([img] * 50, [3] * 50, ag.TrainConfig(epochs=3, seed=5), hidden=8)
        assert ag.accuracy(model, [img], [3]) == 1.0


class TestModelFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        model = random_model(rng, d=7, h=4, n=5)
        path = tmp_path / "model.bin"
        ag.save_model(model, path)
        loaded = ag.load_model(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, name), getattr(loaded, name))

    def test_magic_present(self, tmp_path):
        path = tmp_path / "model.bin"
        ag.save_model(zero_model(), path)
        assert path.read_bytes()[:4] == b"ADVG"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            ag.load_model(path)


def write_stub(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f'"{sys.executable}" "{script}"'


class TestExternalClassifier:
    def test_parses_stub_output(self, tmp_path):
        cmd = write_stub(tmp_path, "ok.py", "print('0.1 0.9')\n")
        pv = ag.external_classify(cmd, "ignored.pgm")
        assert pv.confidences.tolist() == [0.1, 0.9]
        assert pv.label() == 1

    def test_nonzero_exit_surfaced(self, tmp_path):
        cmd = write_stub(tmp_path, "fail.py", "import sys; sys.exit(3)\n")
        with pytest.raises(ag.ExternalClassifierError, match="exited 3"):
            ag.external_classify(cmd, "x.pgm")

    def test_timeout_surfaced(self, tmp_path):
        cmd = write_stub(tmp_path, "slow.py", "import time; time.sleep(30)\n")
        with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.2 s"):
            ag.external_classify(cmd, "x.pgm", timeout=0.2)

    def test_bad_sum_rejected(self, tmp_path):
        cmd = write_stub(tmp_path, "badsum.py", "print('0.5 0.6')\n")
        with pytest.raises(ag.ExternalClassifierError, match="sum"):
            ag.external_classify(cmd, "x.pgm")

    def test_unparsable_output_rejected(self, tmp_path):
        cmd = write_stub(tmp_path, "garbage.py", "print('not numbers')\n")
        with pytest.raises(ag.ExternalClassifierError, match="unparsable"):
            ag.external_classify(cmd, "x.pgm")

    def test_adapter_hands_real_image_file(self, tmp_path):
        # stub answers from the image itself: reads the PGM payload's first byte
        body = (
            "import sys\n"
            "data = open(sys.argv[1], 'rb').read()\n"
            "v = data[-1]\n"
            "print('1 0' if v < 128 else '0 1')\n"
        )
        classify = ag.ExternalClassifier(write_stub(tmp_path, "reader.py", body))
        dark = ag.Image(np.zeros((1, 1), dtype=np.uint8))
        bright = ag.Image(np.full((1, 1), 200, dtype=np.uint8))
        assert classify(dark).label() == 0
        assert classify(bright).label() == 1
