import math
import stat
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles
from advguard import classifier


def random_model(rng, d=6, h=5, n=3, scale=0.5):
    return ag.ClassifierModel(
        rng.uniform(-scale, scale, (d, h)),
        rng.uniform(-scale, scale, h),
        rng.uniform(-scale, scale, (h, n)),
        rng.uniform(-scale, scale, n),
    )


def overflowing_model(d=4, h=3, n=5):
    """Every weight 1e308: a black image gives a uniform softmax, any brighter one NaN rows."""
    return ag.ClassifierModel(np.zeros((d, h)) + 1e308, np.zeros(h), np.zeros((h, n)) + 1e308, np.zeros(n))


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

    def test_accepts_float_image(self):
        img = np.full((2, 2, 1), 0.5)
        assert len(ag.forward(zero_model(d=4), img)) == 10

    def test_byte_image_enters_scaled(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, d=4)
        img = ag.Image(np.array([[200, 10], [128, 255]], dtype=np.uint8))
        direct = ag.forward(model, img).confidences
        scaled = ag.forward(model, img.pixels / 255.0).confidences
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
        img = np.full((2, 2, 1), 0.25)
        assert ag.input_gradient(zero_model(d=4), img, 1).shape == img.shape
        assert ag.input_gradient(zero_model(d=4), img.ravel(), 1).shape == (4,)
        byte_img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        assert ag.input_gradient(zero_model(d=4), byte_img, 1).shape == byte_img.pixels.shape

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
        assert ag.forward(model, img).confidences[7] > 0.99

    def test_loss_non_increasing_over_epochs(self):
        rng = np.random.default_rng(0)
        img = ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        losses = []
        for epochs in range(1, 6):
            config = ag.TrainConfig(epochs=epochs, batch_size=10, learning_rate=0.5, seed=1)
            model = ag.train([img] * 100, [7] * 100, config, hidden=16)
            losses.append(ag.loss(model, img, 7))
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

    def test_images_train_as_their_float_images(self):
        # a list of Images is converted as one batch; it must give the bits of each image divided by 255
        rng = np.random.default_rng(3)
        imgs = [ag.Image(rng.integers(0, 256, size=(5, 3, 3)).astype(np.uint8)) for _ in range(23)]
        labels = [int(v) for v in rng.integers(0, 10, 23)]
        floats = [im.pixels / 255.0 for im in imgs]
        rows = np.stack([f.ravel() for f in floats])
        config = ag.TrainConfig(epochs=2, batch_size=7, seed=4)
        models = [ag.train(data, labels, config, hidden=6) for data in (imgs, floats, rows)]
        for m in models[1:]:
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(models[0], name), getattr(m, name))
        assert ag.accuracy(models[0], imgs, labels) == ag.accuracy(models[0], floats, labels)

    @pytest.mark.filterwarnings("error")  # rejected before numpy sees the value
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
    @pytest.mark.parametrize("field", ["learning_rate", "init_range"])
    def test_rate_and_range_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match="learning rate and init range must be finite and positive"):
            ag.TrainConfig(**{field: value})

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            ag.train([], [], ag.TrainConfig())

    def test_empty_accuracy_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            ag.accuracy(zero_model(), [], [])

    def test_label_out_of_range_rejected(self):
        img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="label out of range"):
            ag.train([img], [10], ag.TrainConfig())

    def test_accuracy_helper(self):
        rng = np.random.default_rng(0)
        img = ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8))
        model = ag.train([img] * 50, [3] * 50, ag.TrainConfig(epochs=3, seed=5), hidden=8)
        assert ag.accuracy(model, [img], [3]) == 1.0


class TestSingleChecks:
    """Every entry point shares one input-width check and one class-index check."""

    @pytest.mark.parametrize("call", [
        lambda m, x: ag.forward(m, x),
        lambda m, x: ag.loss(m, x, 0),
        lambda m, x: ag.input_gradient(m, x, 0),
        lambda m, x: ag.parameter_gradients(m, x, 0),
        lambda m, x: ag.accuracy(m, [x, x], [0, 1]),
    ], ids=["forward", "loss", "input_gradient", "parameter_gradients", "accuracy"])
    def test_dimension_mismatch(self, call):
        with pytest.raises(ValueError, match="dimension mismatch: input has 5 values, model expects 4"):
            call(zero_model(d=4), np.zeros(5))

    @pytest.mark.parametrize("fn", [ag.loss, ag.input_gradient, ag.parameter_gradients])
    @pytest.mark.parametrize("c", [-1, 3])
    def test_class_out_of_range(self, fn, c):
        with pytest.raises(ValueError, match=f"class index {c} out of range 0..2"):
            fn(zero_model(n=3), np.zeros(4), c)

    def test_diverged_training_rejected(self):
        rng = np.random.default_rng(0)
        imgs = [ag.Image(rng.integers(0, 256, size=(4, 4)).astype(np.uint8)) for _ in range(20)]
        labels = [int(v) for v in rng.integers(0, 10, 20)]
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            ag.train(imgs, labels, ag.TrainConfig(epochs=2, learning_rate=1e300), hidden=8)

    def test_accuracy_rejects_unaligned_labels(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        X = rng.uniform(0, 1, (50, model.input_size))
        with pytest.raises(ValueError, match="images and labels are not aligned"):
            ag.accuracy(model, X, [ag.forward(model, X[0]).label()])

    def test_accuracy_counts_the_forward_label(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        X = rng.uniform(0, 1, (40, model.input_size))
        labels = [ag.forward(model, x).label() for x in X]
        assert ag.accuracy(model, X, labels) == 1.0
        assert ag.accuracy(model, [x.reshape(2, 3, 1) for x in X], labels) == 1.0
        # all classes tie under the zero model: the label is the lowest index
        assert ag.accuracy(zero_model(), np.zeros((3, 4)), [0, 0, 1]) == pytest.approx(2 / 3)


class TestBatch:
    def test_one_image_batch_equals_forward(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        img = ag.Image(rng.integers(0, 256, size=(2, 3)).astype(np.uint8))
        (pv,) = ag.ModelClassifier(model).batch([img])
        assert pv.confidences.tolist() == ag.forward(model, img).confidences.tolist()

    def test_labels_equal_forward(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, scale=2.0)
        images = [ag.Image(rng.integers(0, 256, size=(3, 2)).astype(np.uint8)) for _ in range(40)]
        preds = ag.ModelClassifier(model).batch(images)
        assert [p.label() for p in preds] == [ag.forward(model, img).label() for img in images]
        assert len({p.label() for p in preds}) > 1

    def test_rows_are_the_forward_softmax_rows(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, scale=2.0)
        images = [ag.Image(rng.integers(0, 256, size=(3, 2)).astype(np.uint8)) for _ in range(40)]
        softmax = classifier._forward(model, classifier._floats(classifier._rows(images)))[2]
        preds = ag.ModelClassifier(model).batch(images)
        assert len(preds) == len(softmax)
        for p, row in zip(preds, softmax):
            assert p.confidences.tobytes() == row.tobytes()
            assert p.label() == int(np.argmax(row))

    def test_non_finite_row_raises_the_single_image_error_and_no_warning(self):
        classify = ag.ModelClassifier(overflowing_model())
        dark, bright = (ag.Image(np.full((2, 2), v, dtype=np.uint8)) for v in (0, 255))
        assert classify.batch([dark, dark])[0].label() == 0  # a black image stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise instead
            with pytest.raises(ValueError) as single:
                classify(bright)
            with pytest.raises(ValueError) as batched:
                classify.batch([dark, bright, dark])
        assert str(batched.value) == str(single.value) == "confidences must be finite and nonnegative"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -0.5, 1e308, math.inf, math.nan]),
                             min_size=2, max_size=2), min_size=1, max_size=4),
           st.sampled_from([1e-6, 1e-3]))
    def test_batch_check_is_the_first_failing_rows_check(self, rows, tol):
        matrix = np.array(rows)
        errors = []
        for row in rows:
            try:
                ag.PredictionVector(row, tol=tol)
            except ValueError as e:
                errors.append(str(e))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if errors:
                with pytest.raises(ValueError) as batched:
                    ag.PredictionVector._batch(matrix, tol=tol)
                assert str(batched.value) == errors[0]
            else:
                vectors = ag.PredictionVector._batch(matrix, tol=tol)
                assert [v.confidences.tolist() for v in vectors] == rows


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

    @pytest.mark.parametrize("sizes, layer", [((0, 3, 2), "input"), ((4, 0, 2), "hidden"), ((4, 3, 0), "output")])
    def test_zero_layer_size_rejected(self, tmp_path, sizes, layer):
        d, h, n = sizes
        path = tmp_path / "model.bin"
        # ClassifierModel refuses these sizes, so the file is packed by hand, save_model's layout
        path.write_bytes(b"ADVG" + struct.pack("<IIII", 1, d, h, n) + bytes(8 * (d * h + h + h * n + n)))
        with pytest.raises(ValueError, match=f"{layer} layer size is 0"):
            ag.load_model(path)

    @pytest.mark.parametrize("shapes, message", [
        (((4,), (3,), (3, 2), (2,)), "2-D"),
        (((4, 3), (3,), (3,), (2,)), "2-D"),
        (((4, 0), (0,), (0, 2), (2,)), "hidden layer size is 0"),
        (((4, 3), (2,), (3, 2), (2,)), r"b1 has shape \(2,\), expected \(3,\)"),
        (((4, 3), (3,), (2, 2), (2,)), r"w2 has shape \(2, 2\), expected \(3, 2\)"),
        (((4, 3), (3,), (3, 2), (1, 2)), r"b2 has shape \(1, 2\), expected \(2,\)"),
    ])
    def test_constructor_checks_shapes(self, shapes, message):
        with pytest.raises(ValueError, match=message):
            ag.ClassifierModel(*(np.zeros(s) for s in shapes))


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

    def test_not_rerun_after_timeout(self, tmp_path):
        log = tmp_path / "starts.txt"
        body = f"import time\nwith open({str(log)!r}, 'a') as f:\n    f.write('start\\n')\ntime.sleep(30)\n"
        classify = ag.ExternalClassifier(write_stub(tmp_path, "hang.py", body), timeout=0.5)
        img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.5 s$"):
            classify(img)
        for _ in range(3):
            with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.5 s earlier; not run again"):
                classify(img)
        assert log.read_text() == "start\n"

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
