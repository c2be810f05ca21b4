"""Command-line entry point for the full detection pipeline.

Subcommands: train, attack, filter, detect, eval, entropy. Each prints a
single machine-readable summary line to stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 operational failure, 2 usage error, 3 corpus
errors during eval, 4 classifier errors during detect/eval.
"""

import argparse
import sys
from pathlib import Path

from . import attack as attack_mod
from . import classifier as clf
from . import denoise, detector, entropy, image

EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CORPUS = 3
EXIT_CLASSIFIER = 4


def _bool(value):
    return "true" if value else "false"


def _load_image(path):
    return image.read_pgm_ppm(Path(path).read_bytes())


def _load_dataset(images_path, labels_path, limit=None):
    images = image.read_idx_images(Path(images_path).read_bytes())
    labels = image.read_idx_labels(Path(labels_path).read_bytes()) if labels_path else None
    if labels is not None and len(labels) != len(images):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit] if labels is not None else None
    return images, labels


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text):
    value = float(text)
    try:  # the check ExternalClassifier makes, made before any image is read
        return clf._check_timeout(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _nonblank(text):
    if not text.strip():
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _command(text):
    try:  # the check ExternalClassifier makes, made before any image is read
        return clf.ExternalClassifier(text).command
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _make_classify(args):
    if args.external is not None:
        return clf.ExternalClassifier(args.external, timeout=args.timeout)
    return clf.ModelClassifier(clf.load_model(args.model))


def _cmd_entropy(args):
    profile = entropy.entropy_2d(_load_image(args.image))
    strategy = denoise.select_strategy(profile)
    print(f"h2d={profile.h2d:.4f} intervals={strategy.intervals} smooth={_bool(strategy.smooth)}")
    return 0


def _cmd_filter(args):
    img = _load_image(args.input)
    strategy = denoise.select_strategy(entropy.entropy_2d(img))
    triple = denoise.adaptive_filter(img, strategy=strategy)
    chosen = {"quantized": triple.quantized, "smoothed": triple.smoothed_quantized, "combined": triple.combined}[args.stage]
    if chosen is None:
        print(f"error: smoothing was not applied (intervals={strategy.intervals}); no smoothed stage", file=sys.stderr)
        return EXIT_FAILURE
    Path(args.output).write_bytes(image.write_pgm_ppm(chosen))
    print(f"intervals={strategy.intervals} smooth={_bool(strategy.smooth)} stage={args.stage} out={args.output}")
    return 0


def _cmd_train(args):
    config = clf.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, seed=args.seed,
    )
    images, labels = _load_dataset(args.images, args.labels, args.limit)
    model = clf.train(images, labels, config, hidden=args.hidden)
    clf.save_model(model, args.model)
    print(f"model={args.model} samples={len(images)} epochs={args.epochs}")
    return 0


def _cmd_attack(args):
    config = attack_mod.AttackConfig(epsilon=args.epsilon, variant=args.variant, k=args.k)
    model = clf.load_model(args.model)
    images, labels = _load_dataset(args.images, args.labels, args.limit)
    summary = attack_mod.build_attack_corpus(model, images, labels, config, args.out)
    rate = summary.effectual / summary.attacked if summary.attacked else 0.0
    print(f"attacked={summary.attacked} skipped={summary.skipped} effectual={summary.effectual} rate={rate:.4f} corpus={args.out}")
    return 0


def _cmd_detect(args):
    classify = _make_classify(args)
    verdict = detector.detect(classify, _load_image(args.image), sample_id=args.image)
    print(f"adversarial={_bool(verdict.adversarial)} original={verdict.original_label} denoised={verdict.denoised_label}")
    return 0


def _cmd_eval(args):
    classify = _make_classify(args)
    result = detector.evaluate(classify, args.corpus)
    if args.report:
        detector.write_report(result.stats, result.verdicts, args.report)
    for line in result.corpus_errors + result.classifier_errors:
        print(f"error: {line}", file=sys.stderr)
    print(f"recall={result.stats.recall:.4f} precision={result.stats.precision:.4f}")
    if result.corpus_errors:
        return EXIT_CORPUS
    if result.classifier_errors:
        return EXIT_CLASSIFIER
    return 0


def _add_classifier_args(p):
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--model", type=_nonblank, help="built-in model file")
    which.add_argument("--external", type=_command, help="external classifier command")
    p.add_argument("--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
                   help="kill an external classifier call after this long (default: no limit)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="advguard",
        description="Detect adversarial image examples by adaptive noise reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="print an image's 2-D entropy and denoising strategy")
    p.add_argument("image")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("filter", help="write the denoised version of an image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--stage", choices=("quantized", "smoothed", "combined"), default="combined")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("train", help="train the built-in classifier on IDX data")
    p.add_argument("--images", required=True, help="IDX3 image file")
    p.add_argument("--labels", required=True, help="IDX1 label file")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--limit", type=_nonnegative_int, default=None, help="use only the first N samples")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="craft FGSM examples and write the effectual corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True, help="IDX3 image file")
    p.add_argument("--labels", default=None, help="IDX1 label file; skips misclassified inputs")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--epsilon", type=float, default=0.10)
    p.add_argument("--variant", choices=("full", "topk"), default="full")
    p.add_argument("--k", type=int, default=None, help="pixel budget for the top-k variant")
    p.add_argument("--limit", type=_nonnegative_int, default=None, help="attack only the first N samples")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("detect", help="flag one image as adversarial or benign")
    p.add_argument("image")
    _add_classifier_args(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="evaluate detection over a corpus directory")
    p.add_argument("--corpus", required=True)
    _add_classifier_args(p)
    p.add_argument("--report", default=None, help="write the per-sample CSV report here")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except attack_mod.CorpusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORPUS
    except (detector.DetectionError, clf.ExternalClassifierError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CLASSIFIER
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
