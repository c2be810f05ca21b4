"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The three MNIST-backed
criteria (desk-scale training, attack yield, detection quality) need the
official IDX files on disk (see conftest.mnist_dir) and skip otherwise;
they run in declaration order and share the trained model and corpus.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import advguard as ag
import oracles
from conftest import require_mnist

_shared = {}


@contextmanager
def criterion(name, budget=None):
    """Print `[acceptance] <name>: PASS|FAIL|SKIP`, enforcing the runtime budget."""
    info = {}
    start = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget}s budget")
    except BaseException as e:
        status = "SKIP" if type(e).__name__ == "Skipped" else "FAIL"
        print(f"\n[acceptance] {name}: {status}")
        raise
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s){suffix}")


def test_codebook_exactness():
    with criterion("codebook exactness", budget=1.0):
        six = ag.DenoiseStrategy(6)
        assert six.codebook == (
            (0, 49, 0), (50, 99, 50), (100, 149, 100),
            (150, 199, 150), (200, 249, 200), (250, 255, 250),
        )
        values = ag.Image(np.arange(256, dtype=np.uint8).reshape(1, 256))
        got6 = ag.quantize(values, six).pixels.ravel()
        for v in range(256):
            expected = 250 if v >= 250 else (v // 50) * 50
            assert got6[v] == expected, v
        got2 = ag.quantize(values, ag.DenoiseStrategy(2)).pixels.ravel()
        for v in range(256):
            assert got2[v] == (0 if v < 128 else 128), v


def test_entropy_oracle_equivalence():
    with criterion("entropy oracle equivalence", budget=10.0) as info:
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            planes = 3 if rng.integers(2) else 1
            px = rng.integers(0, 256, size=(h, w, planes)).astype(np.uint8)
            got = ag.entropy_2d(ag.Image(px)).h2d
            expected = oracles.image_entropy(
                [px[:, :, k].tolist() for k in range(planes)]
            )
            assert abs(got - expected) < 1e-9
            assert 0.0 <= got <= 16.0
            checked += 1
        for shape in [(1, 1), (5, 9), (8, 8, 3), (32, 32)]:
            img = ag.Image(np.full(shape, int(rng.integers(256)), dtype=np.uint8))
            assert ag.entropy_2d(img).h2d == 0.0
        info["images"] = checked


def test_convolution_oracle_equivalence():
    with criterion("convolution/average oracle equivalence", budget=10.0):
        rng = np.random.default_rng(31337)
        cross = ag.cross_mask()
        for _ in range(100):
            h = int(rng.integers(1, 17))
            w = int(rng.integers(1, 17))
            plane = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
            rows = plane.tolist()
            assert ag.neighborhood_average(plane).tolist() == oracles.box_average(rows)
            smoothed = ag.smooth(ag.Image(plane), cross).pixels[:, :, 0]
            assert smoothed.tolist() == oracles.convolve(rows, oracles.CROSS_WEIGHTS, 9)


def test_combined_filter_property():
    with criterion("combined-filter minimum-distance property"):
        rng = np.random.default_rng(515)
        for _ in range(100):
            f, q, s = (rng.integers(0, 256, size=(8, 8)).astype(np.uint8) for _ in range(3))
            out = ag.combine(ag.Image(f), ag.Image(q), ag.Image(s)).pixels[:, :, 0].astype(int)
            fq = np.abs(q.astype(int) - f.astype(int))
            fs = np.abs(s.astype(int) - f.astype(int))
            assert np.array_equal(np.abs(out - f.astype(int)), np.minimum(fq, fs))
            ties = fq == fs
            assert np.array_equal(out[ties], q.astype(int)[ties])


def _random_checkable_model(rng):
    """Random small model/input pair whose hidden pre-activations stay clear
    of the relu kink, so finite differences are trustworthy."""
    while True:
        d, h, n = (int(rng.integers(lo, hi)) for lo, hi in ((4, 10), (3, 8), (2, 6)))
        model = ag.ClassifierModel(
            rng.uniform(-0.8, 0.8, (d, h)),
            rng.uniform(-0.5, 0.5, h),
            rng.uniform(-0.8, 0.8, (h, n)),
            rng.uniform(-0.5, 0.5, n),
        )
        x = rng.uniform(0.05, 0.95, d)
        if np.abs(x @ model.w1 + model.b1).min() > 1e-3:
            return model, x


def _max_rel_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    # floor keeps near-zero components from blowing up the quotient
    return float((np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-4)).max())


def test_gradient_check():
    with criterion("gradient check", budget=30.0) as info:
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(20):
            model, x = _random_checkable_model(rng)
            c = int(rng.integers(model.n_classes))

            analytic = ag.input_gradient(model, x, c)
            numeric = oracles.central_difference(lambda v: ag.loss(model, v, c), x)
            worst = max(worst, _max_rel_error(analytic, numeric))

            grads = ag.parameter_gradients(model, x, c)
            for name, grad in zip(("w1", "b1", "w2", "b2"), grads):
                theta0 = getattr(model, name).copy()

                def loss_at(flat, _name=name, _theta0=theta0):
                    setattr(model, _name, flat.reshape(_theta0.shape))
                    try:
                        return ag.loss(model, x, c)
                    finally:
                        setattr(model, _name, _theta0)

                numeric = oracles.central_difference(loss_at, theta0.ravel())
                worst = max(worst, _max_rel_error(grad, numeric.reshape(theta0.shape)))
            assert worst < 1e-4
        info["max_rel_error"] = f"{worst:.2e}"


def test_desk_scale_training(mnist_dataset):
    with criterion("desk-scale training", budget=300.0) as info:
        data = require_mnist(mnist_dataset)
        config = ag.TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=42)
        model = ag.train(data["train_images"][:10000], data["train_labels"][:10000], config, hidden=128)
        acc = ag.accuracy(model, data["test_images"], data["test_labels"])
        info["test_accuracy"] = f"{acc:.4f}"
        assert acc >= 0.90
        again = ag.train(data["train_images"][:10000], data["train_labels"][:10000], config, hidden=128)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, name), getattr(again, name)), name
        _shared["model"] = model


def test_attack_yield(mnist_dataset, tmp_path_factory):
    with criterion("attack yield", budget=600.0) as info:
        data = require_mnist(mnist_dataset)
        if "model" not in _shared:
            pytest.fail("desk-scale training criterion must pass first")
        model = _shared["model"]
        out = tmp_path_factory.mktemp("mnist-corpus")
        summary = ag.build_attack_corpus(
            model, data["test_images"], data["test_labels"], ag.AttackConfig(epsilon=0.10), out
        )
        rate = summary.effectual / len(data["test_images"])
        info["effectual"] = summary.effectual
        info["rate"] = f"{rate:.4f}"
        assert 0.10 <= rate <= 0.90
        # every persisted example must flip the label when re-read from disk
        for sample_id, orig_label, adv_label in summary.manifest:
            adv = ag.read_pgm_ppm((out / f"{sample_id}_adv.pgm").read_bytes())
            reread = ag.forward(model, adv).label()
            assert reread == int(adv_label) and reread != int(orig_label), sample_id
        _shared["corpus"] = out


def test_detection_quality(mnist_dataset):
    with criterion("detection quality", budget=300.0) as info:
        require_mnist(mnist_dataset)
        if "model" not in _shared or "corpus" not in _shared:
            pytest.fail("attack yield criterion must pass first")
        result = ag.evaluate(ag.ModelClassifier(_shared["model"]), _shared["corpus"])
        assert result.ok, (result.corpus_errors, result.classifier_errors)
        info["recall"] = f"{result.stats.recall:.4f}"
        info["precision"] = f"{result.stats.precision:.4f}"
        assert result.stats.recall >= 0.75
        assert result.stats.precision >= 0.80


def test_filter_throughput():
    with criterion("filter throughput", budget=None) as info:
        rng = np.random.default_rng(7)
        img = ag.Image(rng.integers(0, 256, size=(224, 224, 3)).astype(np.uint8))
        ag.adaptive_filter(img)  # warm-up
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            ag.adaptive_filter(img)
            best = min(best, time.perf_counter() - start)
        info["min_ms"] = f"{best * 1000:.1f}"
        assert best < 0.050


def test_strategy_band_exactness():
    with criterion("strategy-band exactness"):
        expected = {8.49: (2, False), 8.50: (4, False), 9.50: (4, False), 9.51: (6, True)}
        for h2d, (intervals, smooth) in expected.items():
            strategy = ag.select_strategy(h2d)
            assert (strategy.intervals, strategy.smooth) == (intervals, smooth), h2d
