"""The whole experiment at desk scale: train, attack, detect, evaluate.

Uses the official MNIST IDX files when they are available under
data/mnist/ (or $ADVGUARD_MNIST_DIR); otherwise it falls back to a
synthetic template dataset so the pipeline can still be watched end to
end. The detection test set is every effectual adversarial example plus
its original, originals counting as benign ground truth.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

import advguard as ag


def load_mnist():
    """Train images and labels, then test images and labels, each file plain or gzipped; None if one is missing."""
    d = Path(os.environ.get("ADVGUARD_MNIST_DIR",
                            Path(__file__).resolve().parent.parent / "data" / "mnist"))
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    paths = [next((p for p in (d / name, d / f"{name}.gz") if p.is_file()), None) for name in names]
    if None in paths:
        return None
    readers = [ag.read_idx_images, ag.read_idx_labels] * 2
    return [read(path.read_bytes()) for read, path in zip(readers, paths)]


def synthetic_digits(n, seed):
    # classes share one base pattern and differ by small offsets, so the
    # margins are tight enough for eps=0.10 to matter (like real digits)
    template_rng = np.random.default_rng(1234)
    base = template_rng.integers(60, 196, size=(28, 28))
    templates = base + template_rng.normal(0, 30, size=(10, 28, 28))
    rng = np.random.default_rng(seed)
    labels = [int(y) for y in rng.integers(0, 10, size=n)]
    images = [
        ag.Image(np.clip(templates[y] + rng.normal(0, 18, (28, 28)), 0, 255).astype(np.uint8))
        for y in labels
    ]
    return images, labels


mnist = load_mnist()
if mnist is not None:
    train_x, train_y, test_x, test_y = mnist
    train_x, train_y = train_x[:10000], train_y[:10000]
    test_x, test_y = test_x[:2000], test_y[:2000]
    print("dataset: MNIST (10,000 train / 2,000 test)")
else:
    train_x, train_y = synthetic_digits(2000, seed=1)
    test_x, test_y = synthetic_digits(500, seed=2)
    print("dataset: synthetic templates (MNIST files not found; see README)")

config = ag.TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=42)
model = ag.train(train_x, train_y, config, hidden=128)
print(f"trained 784-128-10 network, test accuracy {ag.accuracy(model, test_x, test_y):.4f}")

with tempfile.TemporaryDirectory() as tmp:
    corpus = Path(tmp) / "corpus"
    summary = ag.build_attack_corpus(
        model, test_x, test_y, ag.AttackConfig(epsilon=0.10), corpus
    )
    rate = summary.effectual / len(test_x)
    print(f"FGSM eps=0.10: attacked {summary.attacked}, skipped {summary.skipped} "
          f"misclassified, {summary.effectual} effectual ({rate:.1%} of the test set)")

    if summary.effectual == 0:
        print("no effectual examples; nothing to evaluate")
    else:
        result = ag.evaluate(ag.ModelClassifier(model), corpus)
        s = result.stats
        print(f"detection: tp={s.tp} fn={s.fn} fp={s.fp} tn={s.tn}")
        print(f"recall={s.recall:.4f} precision={s.precision:.4f}")

        report = Path(tmp) / "report.csv"
        ag.write_report(s, result.verdicts, report)
        head = report.read_text().splitlines()
        print("\nreport head:")
        for line in head[:4]:
            print(f"  {line}")

        # a closer look at one detected example
        flagged = next((v for kind, v in result.verdicts if kind == "adversarial" and v.adversarial), None)
        if flagged is not None:
            print(f"\nsample {flagged.sample_id}: classified {flagged.original_label}, "
                  f"denoised version classified {flagged.denoised_label} "
                  f"(h2d={flagged.h2d:.2f}, {flagged.strategy.intervals} intervals) -> flagged")
