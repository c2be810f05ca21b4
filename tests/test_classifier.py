import hashlib
import io
import math
import re
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
from synth import template_digits


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

    def test_repr_names_label_and_size(self):
        assert repr(ag.PredictionVector([0.2, 0.5, 0.3])) == "PredictionVector(label=1, n=3)"


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
        mixed = imgs[:11] + floats[11:]  # a list with any float row converts its Images to [0, 1] values
        config = ag.TrainConfig(epochs=2, batch_size=7, seed=4)
        models = [ag.train(data, labels, config, hidden=6) for data in (imgs, floats, rows, mixed)]
        for m in models[1:]:
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(models[0], name), getattr(m, name))
        assert ag.accuracy(models[0], imgs, labels) == ag.accuracy(models[0], floats, labels)

    @pytest.mark.filterwarnings("error")  # rejected before numpy sees the value
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1, True, "0.1", None])
    @pytest.mark.parametrize("field", ["learning_rate"])
    def test_rate_and_range_must_be_finite_and_positive(self, field, value):
        # a bool or a non-number is refused by name, not accepted as 1 or left to a comparison's TypeError
        message = f"^learning rate must be finite and positive, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            ag.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 2.5), ("seed", 1.5), ("epochs", True), ("seed", "1"), ("batch_size", None),
    ])
    def test_non_integer_counts_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ag.TrainConfig(**{field: value})
        assert getattr(ag.TrainConfig(**{field: np.int64(3)}), field) == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            ag.TrainConfig(seed=-1)
        assert ag.TrainConfig(seed=0).seed == 0

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_epochs_and_batch_size_rejected(self, field, value):
        with pytest.raises(ValueError, match="^epochs and batch size must be positive$"):
            ag.TrainConfig(**{field: value})

    @pytest.mark.parametrize("sizes, message", [
        ({"hidden": True}, "hidden must be an integer, got True"),
        ({"hidden": 2.0}, "hidden must be an integer, got 2.0"),
        ({"hidden": -1}, "hidden layer size is -1"),
        ({"hidden": 0}, "hidden layer size is 0"),
        ({"classes": True}, "classes must be an integer, got True"),
        ({"classes": "3"}, "classes must be an integer, got '3'"),
        ({"classes": 0}, "output layer size is 0"),
    ], ids=["bool-hidden", "float-hidden", "negative-hidden", "zero-hidden", "bool-classes", "str-classes",
            "zero-classes"])
    def test_layer_sizes_must_be_positive_integers(self, sizes, message):
        img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ag.train([img], [0], ag.TrainConfig(epochs=1), **{"hidden": 2, "classes": 3, **sizes})
        assert ag.train([img], [0], ag.TrainConfig(epochs=1), hidden=np.int64(2), classes=np.int64(1)).n_classes == 1

    def test_no_config_is_the_default_config(self):
        images, labels = template_digits(40, seed=6, size=4, classes=3)
        default = ag.train(images, labels, hidden=4, classes=3)
        explicit = ag.train(images, labels, ag.TrainConfig(), hidden=4, classes=3)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(default, name).tobytes() == getattr(explicit, name).tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_step_applies_parameter_gradients(self, seed):
        # train's documented start: w1 then w2 drawn uniformly from [-0.05, 0.05] by the seeded generator, zero biases
        rng = np.random.default_rng(seed)
        initial = ag.ClassifierModel(rng.uniform(-0.05, 0.05, (16, 6)), np.zeros(6),
                                     rng.uniform(-0.05, 0.05, (6, 3)), np.zeros(3))
        img = ag.Image(np.random.default_rng(100 + seed).integers(0, 256, (4, 4), dtype=np.uint8))
        config = ag.TrainConfig(epochs=1, batch_size=1, learning_rate=0.5, seed=seed)
        trained = ag.train([img], [2], config, hidden=6, classes=3)
        grads = ag.parameter_gradients(initial, img, 2)
        for name, grad in zip(("w1", "b1", "w2", "b2"), grads):
            step = getattr(initial, name) - config.learning_rate * grad
            assert getattr(trained, name).tobytes() == step.tobytes(), name
            assert np.any(grad != 0.0), name

    # sha256 of the trained w1, b1, w2, b2 bytes: any change to the arithmetic of a training step changes them
    TRAINED_DIGESTS = {
        0: "27097dcd8a5741854cf4182c0a7e3bc47a9ea6dcf8d2cebab4396378fc6adf2a",
        1: "01561c464a4aa1e74392164bbe5675f52d98d34885347557189367ec4a0283f7",
    }

    @pytest.mark.parametrize("seed", sorted(TRAINED_DIGESTS))
    @pytest.mark.parametrize("kind", ["images", "rows"])
    def test_trained_weights_pinned(self, seed, kind):
        images, labels = template_digits(50, seed=8, size=8, classes=4, noise=25.0)
        data = images if kind == "images" else np.stack([im.pixels.ravel() / 255.0 for im in images])
        config = ag.TrainConfig(epochs=2, batch_size=16, seed=seed)  # 50 = 3 * 16 + 2: a short last batch
        model = ag.train(data, labels, config, hidden=8, classes=4)
        weights = b"".join(getattr(model, name).tobytes() for name in ("w1", "b1", "w2", "b2"))
        assert hashlib.sha256(weights).hexdigest() == self.TRAINED_DIGESTS[seed]

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

    @pytest.mark.parametrize("fn", [ag.loss, ag.input_gradient, ag.parameter_gradients])
    @pytest.mark.parametrize("c", [1.5, 1.0, True, "1", None], ids=["1.5", "1.0", "True", "str", "None"])
    def test_non_integer_class_rejected(self, fn, c):
        with pytest.raises(ValueError, match=f"^class index must be an integer, got {re.escape(repr(c))}$"):
            fn(zero_model(n=3), np.zeros(4), c)
        fn(zero_model(n=3), np.zeros(4), np.int64(1))  # numpy integers pass

    @pytest.mark.parametrize("call", [
        lambda images, labels: ag.train(images, labels, ag.TrainConfig(epochs=1), hidden=2),
        lambda images, labels: ag.accuracy(zero_model(d=4), images, labels),
    ], ids=["train", "accuracy"])
    @pytest.mark.parametrize("labels, dtype", [
        ([0.0, 1.9], "float64"), (["0", "1"], "<U1"),
    ], ids=["float", "str"])
    def test_non_integer_labels_rejected(self, call, labels, dtype):
        images = [ag.Image(np.zeros((2, 2), dtype=np.uint8))] * 2
        with pytest.raises(ValueError, match=f"^labels must be integers, got {re.escape(dtype)}$"):
            call(images, labels)
        call(images, np.array([0, 1], dtype=np.uint8))  # any integer dtype passes

    @pytest.mark.parametrize("call", ["train", "accuracy", "build_attack_corpus"])
    @pytest.mark.parametrize("labels, message", [
        ([0.9, 1.9], "labels must be integers, got float64"),
        (["0", "1"], "labels must be integers, got <U1"),
        ([0, None], "labels must be integers, got object"),
        ([True, False], "labels must be integers, got bool"),
        ([0, True], "labels must be integers, got bool"),  # np.asarray makes it an int64 array
        ([0, 3], "label out of range 0..2"),
        ([0], "images and labels are not aligned: 2 images but 1 labels"),
    ], ids=["float", "str", "object", "bool", "bool-among-ints", "class-count", "misaligned"])
    def test_one_label_rule(self, call, labels, message, tmp_path):
        # train, accuracy and build_attack_corpus read labels through one check, against 3 classes
        images = [ag.Image(np.full((2, 2), v, dtype=np.uint8)) for v in (0, 200)]
        run = {
            "train": lambda y: ag.train(images, y, ag.TrainConfig(epochs=1), hidden=2, classes=3),
            "accuracy": lambda y: ag.accuracy(zero_model(d=4, n=3), images, y),
            "build_attack_corpus": lambda y: ag.build_attack_corpus(
                random_model(np.random.default_rng(0), d=4), images, y, ag.AttackConfig(epsilon=0.5),
                tmp_path / "c"),
        }[call]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(labels)
        assert not (tmp_path / "c").exists()
        run(np.array([0, 2], dtype=np.uint8))  # one in-range integer per image passes

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

    @pytest.mark.parametrize("call", [
        lambda m, images: ag.ModelClassifier(m).batch(images),
        lambda m, images: ag.accuracy(m, images, [0] * len(images)),
        lambda m, images: ag.train(images, [0] * len(images), ag.TrainConfig(epochs=1), hidden=2),
    ], ids=["batch", "accuracy", "train"])
    def test_mixed_image_sizes_name_the_first_odd_image(self, call):
        shapes = ((2, 2), (2, 2), (1, 3), (5, 1))
        images = [ag.Image(np.zeros(shape, dtype=np.uint8)) for shape in shapes]
        rows = [np.zeros(shape) for shape in shapes]
        for inputs in (images, rows, [images[0], rows[1], rows[2], images[3]]):
            with pytest.raises(ValueError, match="^image 2 has 3 values, image 0 has 4$"):
                call(zero_model(d=4), inputs)


class TestBatch:
    def test_one_image_batch_equals_forward(self):
        rng = np.random.default_rng(8)
        model = random_model(rng)
        img = ag.Image(rng.integers(0, 256, size=(2, 3)).astype(np.uint8))
        (row,) = ag.ModelClassifier(model).batch([img])
        assert row.tolist() == ag.forward(model, img).confidences.tolist()

    def test_labels_equal_forward(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, scale=2.0)
        images = [ag.Image(rng.integers(0, 256, size=(3, 2)).astype(np.uint8)) for _ in range(40)]
        labels = np.argmax(ag.ModelClassifier(model).batch(images), axis=1).tolist()
        assert labels == [ag.forward(model, img).label() for img in images]
        assert len(set(labels)) > 1

    def test_rows_are_the_forward_softmax_rows(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, scale=2.0)
        images = [ag.Image(rng.integers(0, 256, size=(3, 2)).astype(np.uint8)) for _ in range(40)]
        softmax = classifier._forward(model, classifier._rows(images))[2]
        rows = ag.ModelClassifier(model).batch(images)
        assert type(rows) is np.ndarray and rows.dtype == np.float64 and rows.shape == (40, model.n_classes)
        assert rows.tobytes() == softmax.tobytes()

    def test_non_finite_row_raises_the_single_image_error_and_no_warning(self):
        model = overflowing_model()
        classify = ag.ModelClassifier(model)
        dark, bright = (ag.Image(np.full((2, 2), v, dtype=np.uint8)) for v in (0, 255))
        assert np.argmax(classify.batch([dark, dark])[0]) == 0  # a black image stays finite
        assert ag.accuracy(model, [dark, dark], [0, 1]) == 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise instead
            with pytest.raises(ValueError) as single:
                classify(bright)
            for call in (classify.batch, lambda images: ag.accuracy(model, images, [0] * len(images))):
                with pytest.raises(ValueError) as batched:
                    call([dark, bright, dark])
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
                    classifier._check_confidences(matrix, tol)
                assert str(batched.value) == errors[0]
            else:
                classifier._check_confidences(matrix, tol)
                assert matrix.tolist() == rows  # checked, not changed


def first_layer_bound(X, model):
    """Bound on |a - b| for any two float64 sums of X @ w1 + b1, each a length-(d + 1) dot product per entry.

    Either sum lies within gamma(d + 1) * (|X| @ |w1| + |b1|) of the exact value,
    with gamma(n) = n u / (1 - n u) and u half of float64 eps.
    """
    n = X.shape[1] + 1
    u = np.finfo(np.float64).eps / 2
    return 2 * n * u / (1 - n * u) * (np.abs(X) @ np.abs(model.w1) + np.abs(model.b1))


class TestFirstLayerSlices:
    """_forward multiplies w1 in row slices of about _SLICE_BYTES, and a w1 within one slice in one product.

    It takes byte rows as _rows gives them, with the bits of their [0, 1] floats.
    """

    @pytest.mark.parametrize("n", [1, 2, 512])
    def test_digit_model_is_one_product_bit_for_bit(self, n):
        rng = np.random.default_rng([784, n])
        model = random_model(rng, d=784, h=128, n=10, scale=0.05)
        assert model.w1.nbytes <= classifier._SLICE_BYTES
        X = rng.integers(0, 256, (n, 784), dtype=np.uint8) / 255.0
        assert classifier._forward(model, X)[0].tobytes() == (X @ model.w1 + model.b1).tobytes()

    @pytest.mark.parametrize("d", [2 * 8192, 2 * 8192 + 1, 224 * 224 * 3])
    def test_sliced_model_agrees_with_one_product(self, d):
        assert classifier._SLICE_BYTES // (16 * 8) == 8192  # the slice rows at h = 16
        rng = np.random.default_rng([d, 16])
        model = ag.ClassifierModel(rng.normal(0.0, 0.01, (d, 16)), rng.uniform(-0.05, 0.05, 16),
                                   rng.normal(0.0, 1.0, (16, 10)), rng.uniform(-0.05, 0.05, 10))
        X = rng.integers(0, 256, (8, d), dtype=np.uint8) / 255.0
        z1, _, p = classifier._forward(model, X)
        whole = X @ model.w1 + model.b1
        assert np.all(np.abs(z1 - whole) <= first_layer_bound(X, model))
        logits = np.maximum(whole, 0.0) @ model.w2 + model.b2
        assert np.array_equal(np.argmax(p, axis=1), np.argmax(logits, axis=1))

    def test_row_over_the_budget_is_a_slice_of_its_own(self):
        h = 2**17 + 1
        assert 8 * h > classifier._SLICE_BYTES
        rng = np.random.default_rng(17)
        model = random_model(rng, d=3, h=h, n=2)
        X = rng.uniform(0, 1, (2, 3))
        z1 = classifier._forward(model, X)[0]
        assert np.all(np.abs(z1 - (X @ model.w1 + model.b1)) <= first_layer_bound(X, model))
        by_row = X[:, :1] @ model.w1[:1] + X[:, 1:2] @ model.w1[1:2] + X[:, 2:] @ model.w1[2:] + model.b1
        assert z1.tobytes() == by_row.tobytes()

    @pytest.mark.parametrize("d, h, n", [
        (784, 128, 1), (784, 128, 2), (784, 128, 512),  # one product
        (224 * 224 * 3, 16, 1), (224 * 224 * 3, 16, 2), (224 * 224 * 3, 16, 12),  # 19 slices; 12 rows: 6 RGB images
    ])
    def test_byte_rows_give_the_bits_of_their_floats(self, d, h, n):
        rng = np.random.default_rng([d, h, n])
        model = random_model(rng, d=d, h=h, n=10, scale=0.05)
        Xb = rng.integers(0, 256, (n, d), dtype=np.uint8)
        for got, want in zip(classifier._forward(model, Xb), classifier._forward(model, classifier._floats(Xb))):
            assert got.tobytes() == want.tobytes()  # z1, a1 and the softmax rows

    @pytest.mark.parametrize("d, h", [(12, 5), (3, 2**17 + 1)])  # one product; one w1 row per slice
    def test_parameter_gradients_of_byte_rows(self, d, h):
        rng = np.random.default_rng([d, h])
        model = random_model(rng, d=d, h=h, n=3)
        Xb = rng.integers(0, 256, (4, d), dtype=np.uint8)
        labels = [0, 2, 1, 2]
        got = classifier._parameter_gradients(model, Xb, labels)
        want = classifier._parameter_gradients(model, classifier._floats(Xb), labels)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_rgb_batch_of_one_equals_forward(self):
        rng = np.random.default_rng(224)
        model = random_model(rng, d=224 * 224 * 3, h=16, n=10, scale=0.05)
        img = ag.Image(rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8))
        (row,) = ag.ModelClassifier(model).batch([img])
        assert row.tobytes() == ag.forward(model, img).confidences.tobytes()


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


def blank():
    return ag.Image(np.zeros((2, 2), dtype=np.uint8))


class TestExternalClassifier:
    def test_parses_stub_output(self, tmp_path):
        cmd = write_stub(tmp_path, "ok.py", "print('0.1 0.9')\n")
        pv = ag.ExternalClassifier(cmd)(blank())
        assert pv.confidences.tolist() == [0.1, 0.9]
        assert pv.label() == 1

    def test_nonzero_exit_surfaced(self, tmp_path):
        cmd = write_stub(tmp_path, "fail.py", "import sys; sys.exit(3)\n")
        with pytest.raises(ag.ExternalClassifierError, match="exited 3"):
            ag.ExternalClassifier(cmd)(blank())

    def test_timeout_surfaced(self, tmp_path):
        cmd = write_stub(tmp_path, "slow.py", "import time; time.sleep(30)\n")
        with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.2 s$"):
            ag.ExternalClassifier(cmd, 0.2)(blank())

    def test_not_rerun_after_timeout(self, tmp_path):
        log = tmp_path / "starts.txt"
        body = f"import time\nwith open({str(log)!r}, 'a') as f:\n    f.write('start\\n')\ntime.sleep(30)\n"
        classify = ag.ExternalClassifier(write_stub(tmp_path, "hang.py", body), timeout=0.5)
        img = blank()
        with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.5 s$"):
            classify(img)
        for _ in range(3):
            with pytest.raises(ag.ExternalClassifierError, match="timed out after 0.5 s earlier; not run again"):
                classify(img)
        assert log.read_text() == "start\n"

    def test_missing_program_cannot_run(self, tmp_path):
        missing = str(tmp_path / "no-such-classifier")
        with pytest.raises(ag.ExternalClassifierError, match=f"^cannot run {re.escape(repr(missing))}: "):
            ag.ExternalClassifier(f'"{missing}"')(blank())

    def test_bad_sum_rejected(self, tmp_path):
        cmd = write_stub(tmp_path, "badsum.py", "print('0.5 0.6')\n")
        with pytest.raises(ag.ExternalClassifierError, match="sum"):
            ag.ExternalClassifier(cmd)(blank())

    def test_unparsable_output_rejected(self, tmp_path):
        cmd = write_stub(tmp_path, "garbage.py", "print('not numbers')\n")
        with pytest.raises(ag.ExternalClassifierError, match="unparsable"):
            ag.ExternalClassifier(cmd)(blank())

    def test_empty_output_rejected(self, tmp_path):
        cmd = write_stub(tmp_path, "silent.py", "")
        with pytest.raises(ag.ExternalClassifierError, match="^prediction vector is empty$"):
            ag.ExternalClassifier(cmd)(blank())

    @pytest.mark.parametrize("command, message", [
        ("python3 'stub.py", "^No closing quotation$"),
        ('""', "^classifier command '\"\"' names no program$"),
        (" ", "^classifier command ' ' names no program$"),
    ], ids=["unbalanced-quote", "empty-program", "blank"])
    def test_unsplittable_command_rejected_at_construction(self, command, message):
        with pytest.raises(ValueError, match=message):
            ag.ExternalClassifier(command)

    @pytest.mark.parametrize("timeout", ["5", 0, -1, math.nan, math.inf, True])
    def test_bad_timeout_rejected_at_construction(self, timeout):
        with pytest.raises(ValueError, match=f"^timeout must be a finite number of seconds > 0, got {timeout!r}$"):
            ag.ExternalClassifier("true", timeout=timeout)

    @pytest.mark.parametrize("timeout", [None, 0.5, 2, np.float64(1.5)])
    def test_finite_positive_timeout_accepted(self, timeout):
        assert ag.ExternalClassifier("true", timeout=timeout).timeout == timeout

    @pytest.mark.parametrize("command", [None, b"ls", ["ls"]], ids=["none", "bytes", "list"])
    def test_non_string_command_rejected(self, command, monkeypatch):
        stdin = io.StringIO("ls -l\n")  # shlex.split(None) would take its words from here
        monkeypatch.setattr(sys, "stdin", stdin)
        with pytest.raises(ValueError, match=f"^classifier command must be a string, got {type(command).__name__}$"):
            ag.ExternalClassifier(command)
        assert stdin.tell() == 0

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
